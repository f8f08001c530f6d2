"""Decision and construction core for finite-window shadowing.

Whether some orbit tracks a pseudo-orbit within a tolerance is, for a
diagonal-affine map under the sup norm, an exactly decidable question on any
finite window: the candidate position y at index 0 must satisfy, per window
index n and coordinate j,

    | a_j^n * y_j + drift_j(n) - (x_n)_j |  <=  epsilon(x_n) - margin

and each such constraint is an interval for y_j.  ``box_feasibility``
intersects them from the center of the window outward and returns either a
nonempty box with a witness or an emptiness certificate recording the first
window depth at which some coordinate's intersection vanished.

The strict inequalities of the shadowing definition become ``<= eps - margin``
with a configurable margin: emptiness verdicts are then robust to rounding at
the price of possibly misreporting nearly degenerate nonempty cases, which
are flagged (``near_degenerate``) so callers can fall back to the sampled
oracle.

For expanding homotheties the module also builds the shadowing orbit itself:
writing x_i = k*x_{i-1} + r_i for the realized perturbations r_i, the point

    w = x_start + sum_i r_i * k^(-i)

starts an orbit whose distance to the pseudo-orbit at offset l is exactly
the norm of the perturbation tail sum beyond l, hence bounded by the
geometric tail of the slack values.  ``forward_to_full_shadow`` upgrades a
forward-only shadower to the full window by shifting the sequence and
following the iterates f^k(y_{-k}), reporting non-convergence rather than
guessing a limit.

``sampled_search`` is the independent oracle: a brute-force grid scan over a
candidate box, streamed in row blocks, valid for any map and metric,
including warped metrics whose balls are not boxes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cplus import CPlusFn
from .errors import (
    ContractViolation,
    DegenerateMarginError,
    DimensionMismatch,
    IterationRangeError,
    NonConvergenceError,
    SearchSpaceError,
    UnsupportedMapError,
)
from .geometry import MetricKind, as_point, distance, metric_norm, sample_directions
from .maps import MapSpec, is_diagonal_affine, linear_scales
from .plots import trace_csv
from .pseudo_orbit import ExplicitRule, OrbitWindow, PseudoOrbitSpec, realize

__all__ = [
    "ShadowReport",
    "is_shadowed_by",
    "FeasibilityCertificate",
    "box_feasibility",
    "homothety_shadow_point",
    "shadow_tail_bound",
    "forward_to_full_shadow",
    "SearchResult",
    "sampled_search",
    "transported_epsilon_values",
]


# ---------------------------------------------------------------------------
# Shadow reports
# ---------------------------------------------------------------------------


@dataclass
class ShadowReport:
    """Per-index audit of d(f^n(y), x_n) against the tolerance."""

    start: int
    distances: np.ndarray
    tolerances: np.ndarray

    @property
    def slacks(self) -> np.ndarray:
        return self.tolerances - self.distances

    @property
    def passed(self) -> bool:
        return bool(np.all(self.slacks > 0.0))

    @property
    def worst_index(self) -> int:
        return int(self.start + np.argmin(self.slacks))

    def to_csv(self, extra: dict[str, np.ndarray] | None = None) -> str:
        """Trace with columns n, distance, tolerance, slack, then ``extra``'s in name order."""
        columns = {"n": self.start + np.arange(len(self.distances)), "distance": self.distances,
                   "tolerance": self.tolerances, "slack": self.slacks}
        columns.update((name, np.asarray(extra[name], dtype=float)) for name in sorted(extra or {}))
        return trace_csv(columns)


def is_shadowed_by(window: OrbitWindow, y, m: MapSpec, epsilon,
                   metric: MetricKind = MetricKind.SUP) -> ShadowReport:
    """Compare the orbit of ``y`` to the window under the tolerance.

    ``epsilon`` may be a function or a precomputed per-index array (used for
    transported tolerances).
    """
    orbit = m.orbit(y, window.indices)
    return ShadowReport(window.start, distance(metric, orbit, window.points), _tolerances(window, epsilon))


def _tolerances(window: OrbitWindow, epsilon) -> np.ndarray:
    """``epsilon`` at every window point, or the precomputed per-index values it holds."""
    if isinstance(epsilon, CPlusFn):
        return np.atleast_1d(epsilon.eval(window.points))
    tols = np.asarray(epsilon, dtype=float)
    if tols.shape != (len(window),):
        raise ContractViolation("need one tolerance per window index")
    return tols


# ---------------------------------------------------------------------------
# Exact feasibility for diagonal-affine maps
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityCertificate:
    """Result of the exact finite-window decision.

    ``outcome`` is "nonempty" (with the feasibility box and a witness, the
    box center) or "empty" (with the first |n| at which some coordinate's
    interval intersection vanished).  ``trace`` records, in processing order,
    the per-coordinate intervals after each constraint.  ``near_degenerate``
    marks decisions within 4*margin of flipping; those should be cross-checked
    with the sampled oracle.
    """

    outcome: str
    window_limit: int
    margin: float
    lo: np.ndarray
    hi: np.ndarray
    witness: np.ndarray | None = None
    emptiness_window: int | None = None
    near_degenerate: bool = False
    trace: list = field(default_factory=list)  # (n, lo copy, hi copy)

    @property
    def empty(self) -> bool:
        return self.outcome == "empty"

    def to_obj(self) -> dict:
        dim = len(self.lo)
        obj = {
            "outcome": self.outcome,
            "window_limit": int(self.window_limit),
            "margin": float(self.margin),
            "near_degenerate": bool(self.near_degenerate),
            "box": [[float(a), float(b)] for a, b in zip(self.lo, self.hi)],
            # One intersection trace per coordinate: entries [n, lo, hi] in
            # processing order.
            "trace": [
                [[int(n), float(lo[j]), float(hi[j])] for n, lo, hi in self.trace]
                for j in range(dim)
            ],
        }
        if self.witness is not None:
            obj["witness"] = [float(v) for v in self.witness]
        if self.emptiness_window is not None:
            obj["emptiness_window"] = int(self.emptiness_window)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    def trace_to_csv(self) -> str:
        """Interval widths per processed constraint, one column per coordinate."""
        ns = [n for n, _, _ in self.trace]
        widths = np.array([hi - lo for _, lo, hi in self.trace]).reshape(len(ns), len(self.lo))
        widths = np.where(widths < 0.0, 0.0, widths)  # an emptied interval has width 0
        columns = {"order": np.arange(len(ns)), "n": np.array(ns, dtype=int)}
        columns.update((f"width{j + 1}", widths[:, j]) for j in range(len(self.lo)))
        return trace_csv(columns)


# Constraints in the first block of the walk; each later block doubles.
_FIRST_BLOCK = 16


def _constraint_order(rows: np.ndarray) -> np.ndarray:
    """Window indices at positions ``rows`` of the order 0, 1, -1, 2, -2, ..."""
    return np.where(rows % 2 == 1, (rows + 1) // 2, -(rows // 2))


def box_feasibility(spec: PseudoOrbitSpec, epsilon: CPlusFn, window_limit: int,
                    margin: float = 0.0) -> FeasibilityCertificate:
    """Decide finite-window shadowing feasibility exactly.

    Processes constraints for n = 0, +1, -1, ... out to ``window_limit``
    (clipped to the spec's window for explicit rules; spliced rules extend on
    demand).  Requires a diagonal-affine map and the sup norm, where tolerance
    balls are boxes and orbit maps are coordinatewise affine.

    The order is walked in blocks of ``_FIRST_BLOCK`` constraints, doubling
    each time; a block realizes and evaluates only its own indices and
    intersects its intervals by running maxima and minima, so a walk that
    decides early never realizes the far end of a long window.

    Raises ``UnsupportedMapError`` for other maps (use ``sampled_search``),
    ``DegenerateMarginError`` if a still-undecided run reaches a constraint
    whose tolerance does not exceed the margin, and ``IterationRangeError``
    if it reaches an index whose iterates leave double range.
    """
    m = spec.map
    if not is_diagonal_affine(m):
        raise UnsupportedMapError(
            f"{type(m).__name__} is not diagonal-affine; use sampled_search instead"
        )
    if margin < 0.0:
        raise ContractViolation("margin must be nonnegative")
    window_limit = int(window_limit)
    if window_limit < 0:
        raise ContractViolation("window_limit must be positive")

    if isinstance(spec.rule, ExplicitRule):
        n_min = max(spec.window[0], spec.rule.start)
        n_max = min(spec.window[1], spec.rule.start + len(spec.rule.points) - 1)
        if not n_min <= 0 <= n_max:
            raise ContractViolation("explicit rule must cover index 0 of its window")
    else:
        n_min, n_max = -window_limit, window_limit
    rows = 2 * min(window_limit, max(n_max, -n_min)) + 1

    lo, hi = np.full(m.dimension, -np.inf), np.full(m.dimension, np.inf)
    trace: list = []  # (n, lo, hi) after each constraint
    start, size = 0, _FIRST_BLOCK
    while start < rows:
        ns = _constraint_order(np.arange(start, min(start + size, rows)))
        ns = ns[(n_min <= ns) & (ns <= n_max)]
        start, size = start + size, 2 * size
        overflow = None
        try:
            pow_, drift = m.power_coefficients(ns)
        except IterationRangeError as exc:
            # Decide on the constraints before the overflow, or refuse.
            overflow, ns = exc, ns[: np.argmax(ns == exc.n)]
            pow_, drift = m.power_coefficients(ns)
        if ns.size:
            window = realize(spec, (ns.min(), ns.max()))
            x_n = window.points[ns - window.start]
            eps = np.atleast_1d(epsilon.eval(x_n))
            radius = (eps - margin)[:, None]
            ends = ((x_n - drift - radius) / pow_, (x_n - drift + radius) / pow_)
            los = np.maximum.accumulate(np.vstack([lo, np.minimum(*ends)]))[1:]
            his = np.minimum.accumulate(np.vstack([hi, np.maximum(*ends)]))[1:]
            decided = np.flatnonzero((radius[:, 0] <= 0.0) | np.any(los > his, axis=1))
            trace.extend(zip(ns[: decided[0] + 1 if decided.size else None].tolist(), los, his))
            if decided.size:
                i, n = decided[0], int(ns[decided[0]])
                if radius[i, 0] <= 0.0:
                    raise DegenerateMarginError(n, float(eps[i]), margin)
                gap = float(np.max(los[i] - his[i]))
                return FeasibilityCertificate("empty", window_limit, margin, los[i], his[i],
                                              emptiness_window=abs(n), trace=trace,
                                              near_degenerate=margin > 0.0 and gap <= 4.0 * margin)
            lo, hi = los[-1], his[-1]
        if overflow is not None:
            raise overflow

    min_width = float(np.min(hi - lo))
    return FeasibilityCertificate("nonempty", window_limit, margin, lo, hi, witness=0.5 * (lo + hi),
                                  near_degenerate=margin > 0.0 and min_width <= 4.0 * margin, trace=trace)


# ---------------------------------------------------------------------------
# Constructive shadowing for homotheties
# ---------------------------------------------------------------------------


def _series(window: OrbitWindow, scales: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """(residuals r_i, series point w) of the window, accumulated in ``dtype``."""
    if len(window) < 2:
        raise ContractViolation("window too short: need at least one step")
    if window.dimension != scales.size:
        raise DimensionMismatch(f"map of dimension {scales.size}, window of dimension {window.dimension}")
    x = window.points.astype(dtype)
    residuals = x[1:] - x[:-1] * scales[None, :].astype(dtype)
    L = residuals.shape[0]
    inv_powers = np.cumprod(np.tile(1.0 / scales.astype(dtype), (L, 1)), axis=0)
    return residuals, x[0] + np.sum(residuals * inv_powers, axis=0)


def _tail_sums(terms: np.ndarray, scales) -> np.ndarray:
    """T_l = sum_{i > l} terms_i * scales^(l-i) for l = 0..L, by the backward
    recurrence T_{l-1} = (terms_l + T_l) / scales."""
    tails = np.zeros((len(terms) + 1,) + np.shape(scales))
    for i in range(len(terms), 0, -1):
        tails[i - 1] = (terms[i - 1] + tails[i]) / scales
    return tails


def homothety_shadow_point(window: OrbitWindow, m: MapSpec) -> np.ndarray:
    """Shadow-point series for the expanding homothety ``m`` = diag(A).

    With per-step perturbations r_i = x_{start+i} - A x_{start+i-1} the
    returned point is w = x_start + sum_{i=1..L} A^(-i) r_i, anchored at the
    window's start index: the orbit n -> f^(n-start)(w) is the shadowing
    candidate.  The scales may differ in sign (``maps.linear_scales``), which
    admits the orientation-reversing variant diag(k, -k).

    The series accumulates in ``np.longdouble``, since iterating w far forward
    multiplies its storage rounding by k^n.
    """
    _, w = _series(window, linear_scales(m), np.longdouble)
    return w


def homothety_shadow_report(window: OrbitWindow, epsilon, m: MapSpec,
                            metric: MetricKind = MetricKind.SUP) -> tuple[np.ndarray, ShadowReport]:
    """Shadow point plus its report, with distances evaluated stably.

    The orbit of the series point w satisfies, identically,

        f^l(w) - x_{start+l} = sum_{i > l} A^(l-i) r_i

    so the per-index distance equals the norm of the perturbation tail sum.
    Evaluating the right-hand side (by the backward recurrence
    D_l = (r_{l+1} + D_{l+1}) / A) avoids the catastrophic cancellation of
    subtracting two nearly equal k^l-sized points, which matters once the
    window's far end exceeds about 2^50 times its start.
    """
    scales = linear_scales(m)
    residuals, w = _series(window, scales)
    tails = _tail_sums(residuals, scales)
    return w, ShadowReport(window.start, metric_norm(metric, tails), _tolerances(window, epsilon))


def shadow_tail_bound(window: OrbitWindow, m: MapSpec, delta: CPlusFn) -> np.ndarray:
    """Geometric tail bound on the shadow-point distances, per window index.

    bound_l = sum_{i > l} delta(f(x_{i-1})) * k^(l-i) for the expanding homothety
    ``m`` of modulus k, computed with the actual slack values along the window;
    the measured distance of the shadow-point orbit never exceeds it when every
    perturbation respects the strict slack condition.
    """
    k = abs(float(linear_scales(m)[0]))
    return _tail_sums(np.atleast_1d(delta.eval(m.iterate(window.points[:-1], 1))), k)


def forward_to_full_shadow(spec: PseudoOrbitSpec, epsilon: CPlusFn, forward_shadower,
                           depth: int, tol: float,
                           metric: MetricKind = MetricKind.SUP) -> np.ndarray:
    """Upgrade a forward-only shadower to the whole window by shifting.

    For k = 0..depth the sequence is reindexed as z_n = x_{n-k} and handed to
    ``forward_shadower`` (a callable taking an OrbitWindow starting at 0 and
    returning a point whose forward orbit shadows it).  The iterates
    f^k(y_{-k}) must all fall in the closed ball around x_0 of radius
    epsilon(x_0); a violation is a contract breach of the shadower.  If the
    iterate sequence is Cauchy within ``tol`` over its last quarter the final
    iterate is returned, otherwise ``NonConvergenceError`` carries the
    trailing diameter trace; nothing is guessed.
    """
    if depth < 1:
        raise ContractViolation("depth must be positive")
    x0 = realize(spec, (0, 0)).points[0]
    eps0 = float(epsilon.eval(x0))
    n_max = spec.window[1]
    iterates = []
    for k in range(depth + 1):
        shifted = realize(spec, (-k, n_max))
        z_window = OrbitWindow(0, shifted.points)
        y = as_point(forward_shadower(z_window))
        fk = spec.map.iterate(y, k)
        gap = float(distance(metric, fk, x0))
        if gap > eps0:
            raise ContractViolation(
                f"forward shadower broke containment at shift {k}: d={gap!r} > {eps0!r}"
            )
        iterates.append(fk)
    pts = np.stack(iterates)
    tail_len = max(2, (depth + 1) // 4)
    tail = pts[-tail_len:]
    diffs = distance(metric, tail[:, None, :], tail[None, :, :])
    if float(np.max(diffs)) > tol:
        diameters = [float(np.max(distance(metric, pts[j:][:, None, :], pts[j:][None, :, :])))
                     for j in range(len(pts) - 1)]
        raise NonConvergenceError(
            f"iterates not Cauchy within {tol!r} over the last {tail_len} shifts",
            diameters,
        )
    return pts[-1]


# ---------------------------------------------------------------------------
# Sampled search oracle
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    """Outcome of the brute-force grid oracle."""

    found: np.ndarray | None
    checked: int
    grid_step: float
    near_miss: np.ndarray | None = None
    refined: bool = False

    @property
    def absent(self) -> bool:
        return self.found is None

    def to_obj(self) -> dict:
        return {
            "found": None if self.found is None else [float(v) for v in self.found],
            "checked": int(self.checked),
            "grid_step": float(self.grid_step),
            "near_miss": None if self.near_miss is None else [float(v) for v in self.near_miss],
            "refined": bool(self.refined),
        }


_MAX_GRID = 100_000_000
# Grid points per scanned block; bounds the scan's memory at any grid size.
_BLOCK_POINTS = 1_000_000


def _grid_axes(search_box, grid_step: float) -> list[np.ndarray]:
    if not all(np.isfinite(lo) and np.isfinite(hi) and lo <= hi for lo, hi in search_box):
        raise ContractViolation("search box must be bounded with lo <= hi")
    # Sized before any axis is built: a tiny step must not allocate first.
    counts = [float(np.floor((hi - lo) / grid_step + 0.5)) + 1 for lo, hi in search_box]
    if math.prod(counts) > _MAX_GRID:
        raise SearchSpaceError(f"grid of {math.prod(counts):.0f} points exceeds the {_MAX_GRID} limit")
    return [lo + grid_step * np.arange(int(c)) for (lo, _), c in zip(search_box, counts)]


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    """The grid spanned by ``axes`` as row-major points (first axis slowest)."""
    # Broadcast views: only the stacked points are allocated.
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def _scan(m: MapSpec, window: OrbitWindow, eps_vals: np.ndarray, metric: MetricKind,
          points: np.ndarray, order: list[int]) -> tuple[np.ndarray, float | None]:
    """Scan one block of candidates against the window constraints in ``order``.

    Returns ``(first passing point, None)``, or ``(near miss, gap)`` for the
    candidate closest to the constraint that emptied the block.  Each image
    is one closed-form ``m.iterate``.  The surviving set is an intersection,
    so any order decides the same; boolean pruning keeps row-major order, so
    the first survivor is the block's first passing point.
    """
    live = points
    for n in order:
        img = live if n == 0 else m.iterate(live, n)
        dist = distance(metric, img, window.point_at(n)) - float(eps_vals[n - window.start])
        ok = dist < 0.0
        if not np.any(ok):
            j = int(np.argmin(dist))
            return live[j].copy(), float(dist[j])
        if not np.all(ok):
            live = live[ok]
    return live[0].copy(), None


def sampled_search(spec: PseudoOrbitSpec, epsilon: CPlusFn, metric: MetricKind,
                   search_box, grid_step: float, refine: bool = True) -> SearchResult:
    """Grid-scan a box for a point whose whole-window report passes.

    The fallback decision procedure for maps without the diagonal-affine
    structure, and the independent oracle validating the exact one.  Streams
    the grid in row-major blocks of whole rows and returns the first passing
    grid point: the first block that keeps a survivor holds it.  On absence
    the near miss is the closest point, over all blocks, to the constraint
    that emptied its block, and one refinement pass scans the half-step grid
    in a one-cell neighborhood of it before giving up.
    """
    m = spec.map
    if grid_step <= 0.0:
        raise ContractViolation("grid_step must be positive")
    if len(search_box) != m.dimension:
        raise ContractViolation(f"search box has {len(search_box)} axes for a map of dimension {m.dimension}")
    axes = _grid_axes(search_box, grid_step)
    total = int(np.prod([len(a) for a in axes]))

    window = realize(spec)
    eps_vals = np.atleast_1d(epsilon.eval(window.points))
    if is_diagonal_affine(m):
        # Tightest tolerance first; deep indices break ties.
        order = sorted(range(window.start, window.stop + 1),
                       key=lambda n: (eps_vals[n - window.start], -abs(n)))
    else:
        # Index 0 needs no map call and drops most candidates; every other
        # index costs one closed-form iterate, so tightest-first gains nothing
        # here and measured slower (README, "Numerical policy").
        order = [0, *range(1, window.stop + 1), *range(-1, window.start - 1, -1)]

    row_size = int(np.prod([len(a) for a in axes[1:]]))
    rows_per_block = max(1, _BLOCK_POINTS // row_size)
    best_gap, near = np.inf, None
    for row in range(0, len(axes[0]), rows_per_block):
        block = _grid_points([axes[0][row:row + rows_per_block]] + axes[1:])
        point, gap = _scan(m, window, eps_vals, metric, block, order)
        if gap is None:
            return SearchResult(point, total, grid_step)
        if gap < best_gap:
            best_gap, near = gap, point

    if refine and near is not None:
        sub = _grid_points([near[j] + (grid_step / 2.0) * np.arange(-2, 3) for j in range(len(axes))])
        point, gap = _scan(m, window, eps_vals, metric, sub, order)
        if gap is None:
            return SearchResult(point, total + sub.shape[0], grid_step, refined=True)
        return SearchResult(None, total + sub.shape[0], grid_step, near_miss=near, refined=True)
    return SearchResult(None, total, grid_step, near_miss=near)


# ---------------------------------------------------------------------------
# Conjugacy transport
# ---------------------------------------------------------------------------


# Directions sampled on each sphere around a window point, and the factor by
# which the transported tolerance exceeds the largest sampled displacement.
_BOUNDARY_SAMPLES = 64
_TRANSPORT_SAFETY = 1.05


def transported_epsilon_values(window: OrbitWindow, eps_values, change,
                               metric: MetricKind = MetricKind.SUP) -> np.ndarray:
    """Tolerances for a transported window that cover the transported balls.

    For each window point x with tolerance e, samples the image under the
    change of coordinates of the sphere of radius e (plus a half-radius
    shell) around x and returns ``_TRANSPORT_SAFETY`` times the largest
    displacement from change(x).  By construction the ball around change(x)
    with the returned radius contains the sampled image of the ball around
    x, so a passing report transports to a passing report.

    All points go through one ``change.apply``; a change maps each point
    alone, so every value has the bits of a per-point evaluation.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.shape != (len(window),):
        raise ContractViolation("need one tolerance per window index")
    L, d = window.points.shape
    dirs = sample_directions(metric, d, _BOUNDARY_SAMPLES)
    shells = np.array([0.5, 1.0])
    # (L, 2, samples, d), multiplied in the per-point order shells * e * dirs.
    offsets = shells[None, :, None, None] * eps_values[:, None, None, None] * dirs[None, None]
    sampled = change.apply((window.points[:, None, None, :] + offsets).reshape(-1, d)).reshape(L, -1, d)
    displacement = distance(metric, sampled, change.apply(window.points)[:, None, :])
    return _TRANSPORT_SAFETY * np.max(displacement, axis=1)
