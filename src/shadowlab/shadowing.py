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

    w = x_0 + sum_{i=1..stop} r_i * k^(-i)

is the shadowing orbit's point at index 0, and f^n(w) - x_n = T_n =
sum_{i>n} k^(n-i) r_i, so its distance to the pseudo-orbit at index n is
the norm of the perturbation tail sum beyond n, hence bounded by the
geometric tail of the slack values.  One backward recurrence, ``_tail_sums``,
computes every such series: the tails, the tail bounds and the series
points x_n + T_n.  ``forward_to_full_shadow`` upgrades that forward-only
shadower to the full window through the shifted points y_{-k} = x_{-k} + T_{-k}
and their iterates f^k(y_{-k}), which all equal x_0 + T_0 up to rounding: it
returns the residual |T_0| that decides containment, and each iterate's
distance to x_0 + T_0 in units of its rounding budget.

Shadow reports, tail bounds, series points and the shifted iterates also take
a stack of windows ``(N, L, d)`` and give each orbit's row the bits of its own
call; ``transported_shadow_report`` carries such a report through a change of
coordinates, in residual space too.

``sampled_search`` is the independent oracle: a brute-force grid scan over a
candidate box in one pass, valid for any map and metric, including warped
metrics whose balls are not boxes.  It builds only the grid points that one
lower bound on the axes, and slabs for affine conjugates, let pass, in
chunks of bounded size.
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
    SearchSpaceError,
    UnsupportedMapError,
)
from .geometry import MetricKind, distance, metric_norm
from .maps import Conjugated, MapSpec, _scale_shift, is_diagonal_affine, linear_scales
from .plots import trace_csv
from .pseudo_orbit import ExplicitRule, OrbitWindow, PseudoOrbitSpec, _per_orbit, _values_along, realize

__all__ = [
    "ShadowReport",
    "is_shadowed_by",
    "FeasibilityCertificate",
    "box_feasibility",
    "homothety_shadow_point",
    "shadow_tail_bound",
    "ForwardToFull",
    "forward_to_full_shadow",
    "SearchResult",
    "sampled_search",
    "transported_shadow_report",
    "transported_epsilon_values",
]


# ---------------------------------------------------------------------------
# Shadow reports
# ---------------------------------------------------------------------------


@dataclass
class ShadowReport:
    """Per-index audit of d(f^n(y), x_n) against the tolerance; rows of a stack are its orbits."""

    start: int
    distances: np.ndarray  # shape (..., L)
    tolerances: np.ndarray

    @property
    def slacks(self) -> np.ndarray:
        return self.tolerances - self.distances

    @property
    def passed(self):
        return _per_orbit(np.all(self.slacks > 0.0, axis=-1))

    @property
    def worst_index(self):
        return _per_orbit(self.start + np.argmin(self.slacks, axis=-1))

    def to_csv(self, extra: dict[str, np.ndarray] | None = None) -> str:
        """Trace with columns n, distance, tolerance, slack, then ``extra``'s in name order."""
        columns = {"n": self.start + np.arange(len(self.distances)), "distance": self.distances,
                   "tolerance": self.tolerances, "slack": self.slacks}
        columns.update((name, np.asarray(extra[name], dtype=float)) for name in sorted(extra or {}))
        return trace_csv(columns)


def is_shadowed_by(window: OrbitWindow, y, m: MapSpec, epsilon: CPlusFn,
                   metric: MetricKind = MetricKind.SUP) -> ShadowReport:
    """Compare the orbit of ``y`` to the window, or to each orbit of a stack, under ``epsilon``."""
    orbit = m.orbit(y, window.indices)
    return ShadowReport(window.start, distance(metric, orbit, window.points),
                        _values_along(epsilon, window.points, window.indices))


# ---------------------------------------------------------------------------
# Exact feasibility for diagonal-affine maps
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityCertificate:
    """Result of the exact finite-window decision.

    ``outcome`` is "nonempty" (with the feasibility box and a witness, the
    box center) or "empty" (with the first |n| at which some coordinate's
    interval intersection vanished).  ``trace`` reads the walk's ``blocks``,
    arrays (ns, los, his), as one (n, lo row, hi row) per constraint, in
    processing order.  ``near_degenerate`` marks decisions within 4*margin of
    flipping; those should be cross-checked with the sampled oracle.
    """

    outcome: str
    window_limit: int
    margin: float
    lo: np.ndarray
    hi: np.ndarray
    witness: np.ndarray | None = None
    emptiness_window: int | None = None
    near_degenerate: bool = False
    blocks: list = field(default_factory=list)  # (ns, los, his) per block, in processing order

    @property
    def empty(self) -> bool:
        return self.outcome == "empty"

    @property
    def trace(self) -> list:
        return [entry for ns, los, his in self.blocks for entry in zip(ns.tolist(), los, his)]

    def to_obj(self) -> dict:
        dim = len(self.lo)
        obj = {
            "outcome": self.outcome,
            "window_limit": int(self.window_limit),
            "margin": float(self.margin),
            "near_degenerate": bool(self.near_degenerate),
            "box": [[float(a), float(b)] for a, b in zip(self.lo, self.hi)],
            # One intersection trace per coordinate: [n, lo, hi] per constraint, in processing order.
            "trace": [[[n, lo, hi] for ns, los, his in self.blocks
                       for n, lo, hi in zip(ns.tolist(), los[:, j].tolist(), his[:, j].tolist())]
                      for j in range(dim)],
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
        ns = np.concatenate([np.zeros(0, dtype=int)] + [ns for ns, _, _ in self.blocks])
        widths = np.concatenate([np.zeros((0, len(self.lo)))] + [his - los for _, los, his in self.blocks])
        widths = np.where(widths < 0.0, 0.0, widths)  # an emptied interval has width 0
        columns = {"order": np.arange(len(ns)), "n": ns}
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
    each time; a block computes one power table for its own indices only,
    builds a spliced rule's points seed * a^n + drift(n) from it with the bits
    ``realize`` gives them, and intersects its intervals by running extrema.

    Raises ``UnsupportedMapError`` for other maps (use ``sampled_search``),
    ``DegenerateMarginError`` if a still-undecided run reaches a constraint
    whose tolerance does not exceed the margin, and ``IterationRangeError``
    if it reaches an index whose power or point leaves double range.
    """
    m, rule = spec.map, spec.rule
    if not is_diagonal_affine(m):
        raise UnsupportedMapError(
            f"{type(m).__name__} is not diagonal-affine; use sampled_search instead"
        )
    if margin < 0.0:
        raise ContractViolation("margin must be nonnegative")
    window_limit = int(window_limit)
    if window_limit < 0:
        raise ContractViolation("window_limit must be nonnegative")

    if isinstance(rule, ExplicitRule):
        n_min = max(spec.window[0], rule.start)
        n_max = min(spec.window[1], rule.start + len(rule.points) - 1)
        if not n_min <= 0 <= n_max:
            raise ContractViolation("explicit rule must cover index 0 of its window")
    else:
        n_min, n_max = -window_limit, window_limit
    rows = 2 * min(window_limit, max(n_max, -n_min)) + 1

    lo, hi = np.full(m.dimension, -np.inf), np.full(m.dimension, np.inf)
    blocks: list = []  # (ns, los, his) of each block's processed constraints
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
        if isinstance(rule, ExplicitRule):
            x_n = rule.points[ns - rule.start]
        else:
            seeds = np.where((ns >= rule.splice)[:, None], rule.forward_seed, rule.backward_seed)
            with np.errstate(over="ignore", invalid="ignore"):
                x_n = _scale_shift(seeds, pow_, drift)
            bad = np.flatnonzero(~np.all(np.isfinite(x_n), axis=1))
            if bad.size:
                overflow = IterationRangeError(int(ns[bad[0]]), "a spliced point left double range")
                ns, pow_, drift, x_n = ns[: bad[0]], pow_[: bad[0]], drift[: bad[0]], x_n[: bad[0]]
        if ns.size:
            eps = _values_along(epsilon, x_n, ns)
            radius = (eps - margin)[:, None]
            ends = ((x_n - drift - radius) / pow_, (x_n - drift + radius) / pow_)
            los = np.maximum.accumulate(np.vstack([lo, np.minimum(*ends)]))[1:]
            his = np.minimum.accumulate(np.vstack([hi, np.maximum(*ends)]))[1:]
            decided = np.flatnonzero((radius[:, 0] <= 0.0) | np.any(los > his, axis=1))
            if decided.size:
                i, n = decided[0], int(ns[decided[0]])
                if radius[i, 0] <= 0.0:
                    raise DegenerateMarginError(n, float(eps[i]), margin)
                gap = float(np.max(los[i] - his[i]))
                return FeasibilityCertificate("empty", window_limit, margin, los[i], his[i], emptiness_window=abs(n),
                                              blocks=[*blocks, (ns[: i + 1], los[: i + 1], his[: i + 1])],
                                              near_degenerate=margin > 0.0 and gap <= 4.0 * margin)
            blocks.append((ns, los, his))
            lo, hi = los[-1], his[-1]
        if overflow is not None:
            raise overflow

    min_width = float(np.min(hi - lo))
    return FeasibilityCertificate("nonempty", window_limit, margin, lo, hi, witness=0.5 * (lo + hi),
                                  near_degenerate=margin > 0.0 and min_width <= 4.0 * margin, blocks=blocks)


# ---------------------------------------------------------------------------
# Constructive shadowing for homotheties
# ---------------------------------------------------------------------------


def _residuals(points: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """r_i = x_i - A x_{i-1} of consecutive window points ``(..., L, d)``, in the points' dtype."""
    if points.shape[-1] != scales.size:
        raise DimensionMismatch(f"map of dimension {scales.size}, window of dimension {points.shape[-1]}")
    return points[..., 1:, :] - points[..., :-1, :] * scales.astype(points.dtype)


def _tail_sums(terms: np.ndarray, scales) -> np.ndarray:
    """T_l = sum_{i > l} terms_i * scales^(l-i) for l = 0..L, by the backward
    recurrence T_{l-1} = (terms_l + T_l) / scales, in the dtype of ``terms``.

    The index axis of ``terms`` is the one before the axes of ``scales``, and
    the recurrence runs once along it for every leading (orbit) axis.
    """
    axis = -1 - np.ndim(scales)
    terms = np.moveaxis(terms, axis, 0)
    tails = np.zeros((len(terms) + 1,) + terms.shape[1:], dtype=terms.dtype)
    for i in range(len(terms), 0, -1):
        tails[i - 1] = (terms[i - 1] + tails[i]) / scales
    return np.moveaxis(tails, 0, axis)


def _series_tails(points: np.ndarray, m: MapSpec) -> np.ndarray:
    """f^n(w) - x_n at every index of ``points`` ``(..., L, d)``, in their dtype, for the series
    point w of the homothety ``m``; x_n + T_n is the series point of the window from n on."""
    scales = linear_scales(m).astype(points.dtype)
    return _tail_sums(_residuals(points, scales), scales)


def homothety_shadow_point(window: OrbitWindow, m: MapSpec) -> np.ndarray:
    """The shadowing orbit's point at index 0, for the expanding homothety ``m`` = diag(A).

    With per-step perturbations r_i = x_i - A x_{i-1} the returned point is
    w = x_0 + T_0, T_0 = sum_{i=1..stop} A^(-i) r_i, the series of the window's
    forward half; a window that ends at 0 gives x_0, and one without index 0 is
    refused.  The scales may differ in sign (``maps.linear_scales``), which
    admits the orientation-reversing variant diag(k, -k).  T_0 is summed in
    ``np.longdouble`` by ``_tail_sums``, from the window's far end, for each
    orbit of a stack at once (README, "Numerical policy").
    """
    if not window.start <= 0 <= window.stop:
        raise ContractViolation(f"shadow point needs index 0, window is [{window.start}, {window.stop}]")
    x = window.points[..., -window.start:, :].astype(np.longdouble)
    return x[..., 0, :] + _series_tails(x, m)[..., 0, :]


def homothety_shadow_report(window: OrbitWindow, epsilon, m: MapSpec,
                            metric: MetricKind = MetricKind.SUP) -> ShadowReport:
    """Report of the orbit through the series point, with distances evaluated stably.

    The orbit of the point w = ``homothety_shadow_point(window, m)``
    satisfies, identically,

        f^n(w) - x_n = sum_{i > n} A^(n-i) r_i

    so the per-index distance equals the norm of the perturbation tail sum.
    Evaluating the right-hand side (by the backward recurrence
    D_n = (r_{n+1} + D_{n+1}) / A) avoids the catastrophic cancellation of
    subtracting two nearly equal k^n-sized points, which matters once the
    window's far end exceeds about 2^50 times its start.  A stack of windows
    gets one report whose rows are its orbits.
    """
    return ShadowReport(window.start, metric_norm(metric, _series_tails(window.points, m)),
                        _values_along(epsilon, window.points, window.indices))


def transported_shadow_report(window: OrbitWindow, eps_values, m: MapSpec, change,
                              metric: MetricKind = MetricKind.SUP) -> ShadowReport:
    """The series point's report carried through the change of coordinates h = ``change``:
    distances |h.difference(x_n, T_n)| for the tails T_n = f^n(w) - x_n, so no orbit of
    h o m o h^-1 is iterated, against ``transported_epsilon_values`` of ``eps_values``.
    A stack of windows gets one report (README, "Numerical policy")."""
    distances = metric_norm(metric, change.difference(window.points, _series_tails(window.points, m)))
    return ShadowReport(window.start, distances, transported_epsilon_values(window, eps_values, change, metric))


def shadow_tail_bound(window: OrbitWindow, m: MapSpec, delta: CPlusFn) -> np.ndarray:
    """Geometric tail bound on the shadow-point distances, per window index.

    bound_l = sum_{i > l} delta(f(x_{i-1})) * k^(l-i) for the expanding homothety
    ``m`` of modulus k, computed with the actual slack values along the window;
    the measured distance of the shadow-point orbit never exceeds it when every
    perturbation respects the strict slack condition.  A stack of windows gets
    one row per orbit.
    """
    k = abs(float(linear_scales(m)[0]))
    images = m.iterate(window.points[..., :-1, :], 1)
    return _tail_sums(_values_along(delta, images, window.indices[:-1]), k)


# The rounding budget of an iterate f^k(y_{-k}), in units of the values it is built from:
# y_{-k} = x_{-k} + T_{-k} cancels, so its rounding scales with |x_{-k}|, and the iteration
# multiplies it by |k|^k.  2^-50 is eight float64 ulps; the worst iterate measured uses a tenth.
_ROUNDING_UNIT = 2.0 ** -50


@dataclass
class ForwardToFull:
    """The forward-to-full construction of ``forward_to_full_shadow``; rows of a stack are its orbits."""

    iterates: np.ndarray  # f^k(y_{-k}) for the shifts k = 0, 1, ..., depth, shape (..., K, d)
    direct: np.ndarray    # the series point x_0 + T_0, in np.longdouble
    residual: np.ndarray  # |T_0|, its distance to x_0, in the run's metric
    eps0: np.ndarray      # epsilon(x_0)
    rounding: np.ndarray  # |f^k(y_{-k}) - direct| over its rounding budget, shape (..., K)

    @property
    def contained(self) -> np.ndarray:
        """Whether the series point lies in the closed epsilon(x_0)-ball around x_0."""
        return self.residual <= self.eps0


def forward_to_full_shadow(window: OrbitWindow, epsilon: CPlusFn, m: MapSpec, depth: int,
                           metric: MetricKind = MetricKind.SUP) -> ForwardToFull:
    """Upgrade the forward-only series shadower to the whole window by shifting.

    For k = 0..depth the window from index -k on is shadowed forward by its series
    point y_{-k} = x_{-k} + T_{-k}; one recurrence from the far end gives every
    T_{-k}, for every orbit of a stack.  On a homothety f^k(y_{-k}) = x_0 + T_0 for
    every k, so the limit is exact and containment is decided in residual space,
    |T_0| <= epsilon(x_0).  The iterates f^k(y_{-k}) are the independent route: each
    is measured against the series point x_0 + T_0 in units of its rounding budget
    2^-50 (|k|^k (|x_{-k}| + |y_{-k}|) + |x_0 + T_0|).  A power of the homothety
    that leaves double range raises ``IterationRangeError``.
    """
    if not (depth >= 1 and window.start <= -depth and 0 <= window.stop):
        raise ContractViolation(f"depth {depth} needs depth >= 1 and a window from -depth through 0, "
                                f"window is [{window.start}, {window.stop}]")
    zero = -window.start
    x0 = window.points[..., zero, :]
    x = window.points[..., zero - depth:, :].astype(np.longdouble)
    tails = _series_tails(x, m)
    series = (x + tails)[..., depth::-1, :]  # y_{-k} = x_{-k} + T_{-k}, k = 0..depth
    scale, drift = m.power_coefficients(np.arange(depth + 1))
    iterates = _scale_shift(series.astype(float), scale, drift)
    direct = series[..., 0, :]

    def norm(points):
        return metric_norm(metric, np.asarray(points, dtype=float))

    gaps = norm(iterates - direct[..., None, :])
    magnitude = np.max(np.abs(scale), axis=-1) * (norm(x[..., depth::-1, :]) + norm(series))
    budget = _ROUNDING_UNIT * (magnitude + norm(direct)[..., None])
    rounding = np.divide(gaps, budget, out=np.zeros_like(gaps), where=gaps > 0.0)
    return ForwardToFull(iterates, direct, norm(tails[..., depth, :]),
                         _values_along(epsilon, x0[..., None, :], [0])[..., 0], rounding)


# ---------------------------------------------------------------------------
# Sampled search oracle
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    """Outcome of the brute-force grid oracle."""

    found: np.ndarray | None
    checked: int  # row-major position of the point found plus one; else the grid plus 5^d refinement points
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
# Entries of a ``_span_table`` slab table.
_SLAB_TABLE_ENTRIES = 1_000_000


def _grid_counts(search_box, grid_step: float) -> list[float]:
    """Values per axis of the grid over ``search_box`` at ``grid_step``, sized before any axis
    is built, so a tiny step does not allocate first; more than ``_MAX_GRID`` points in all
    raise ``SearchSpaceError``."""
    if not all(np.isfinite(lo) and np.isfinite(hi) and lo <= hi for lo, hi in search_box):
        raise ContractViolation("search box must be bounded with lo <= hi")
    counts = [float(np.floor((hi - lo) / grid_step + 0.5)) + 1 for lo, hi in search_box]
    if math.prod(counts) > _MAX_GRID:
        raise SearchSpaceError(f"grid of {math.prod(counts):.0f} points exceeds the {_MAX_GRID} limit")
    return counts


def _grid_axes(search_box, grid_step: float) -> list[np.ndarray]:
    return [lo + grid_step * np.arange(int(c)) for (lo, _), c in zip(search_box, _grid_counts(search_box, grid_step))]


# Grid points per chunk of a scan.  Each chunk runs the window on its own, so the
# scan's temporaries stay this size however many points a tolerance keeps.
_CHUNK_POINTS = 1 << 14


def _chunks(axes: list[np.ndarray], lo, hi):
    """The grid points (axes[0][i], q) for the rows q of the row-major product of ``axes[1:]``
    with lo[i] <= q < hi[i], in row-major chunks of whole first-axis values, at most
    ``_CHUNK_POINTS`` points each unless one value alone has more; each chunk is one array
    filled in place.  ``lo`` and ``hi`` are arrays along ``axes[0]`` or scalars, read
    ``_CHUNK_POINTS`` values at a time, which no chunk crosses: scalar spans add no
    whole-axis array."""
    size = len(axes[0])
    # A scalar span becomes a stride-0 view, built faster than by np.broadcast_to.
    lo, hi = (v if np.ndim(v) else np.ndarray(size, np.intp, np.array(v, np.intp), strides=(0,)) for v in (lo, hi))
    for i in range(0, size, _CHUNK_POINTS):
        counts = np.maximum(hi[i:i + _CHUNK_POINTS] - lo[i:i + _CHUNK_POINTS], 0)
        ends = np.cumsum(counts)
        shift = lo[i:i + _CHUNK_POINTS] + counts - ends  # a point's row less its place in the spans read
        s = 0
        while s < len(ends):
            base = ends[s] - counts[s]
            e = max(s + 1, int(np.searchsorted(ends, base + _CHUNK_POINTS, "right")))
            if ends[e - 1] > base:
                points = np.empty((int(ends[e - 1] - base), len(axes)))
                points[:, 0] = np.repeat(axes[0][i + s:i + e], counts[s:e])
                rows = np.arange(base, ends[e - 1]) + np.repeat(shift[s:e], counts[s:e])
                for j in range(len(axes) - 1, 0, -1):  # the last axis varies fastest
                    rows, col = (0, rows) if j == 1 else np.divmod(rows, len(axes[j]))
                    points[:, j] = axes[j][col]
                yield points
            s = e


# Relative rounding allowance of the axis lower bound (README, "Numerical policy").
_AXIS_ROUNDING = 2.0 ** -48
# Allowance of the slab bound, relative to the magnitudes of a constraint's evaluation
# (README, "Numerical policy"), and the magnitude from which a constraint's slabs bound
# nothing: below it no image, warp or difference of the grid can overflow.
_SLAB_ROUNDING = 2.0 ** -40
_SLAB_LIMIT = 2.0 ** 500


def _excess(m: MapSpec, window: OrbitWindow, eps_vals: np.ndarray, metric: MetricKind,
            live: np.ndarray, n: int) -> np.ndarray:
    """d(f^n(p), x_n) - eps(x_n) for the rows p of ``live``; a NaN distance is refused."""
    img = live if n == 0 else m.iterate(live, n)
    dist = distance(metric, img, window.point_at(n))
    if np.isnan(dist).any():
        raise IterationRangeError(n, "the grid oracle's distance to the window point is NaN")
    return dist - float(eps_vals[n - window.start])


def _span_table(m: MapSpec, window: OrbitWindow, eps_vals: np.ndarray, h: np.ndarray,
                axes: list[np.ndarray], order: list[int]):
    """``(lo, hi, counts)``: row k of ``lo`` and ``hi`` bounds, per value of ``axes[0]``, the
    rows of the product of ``axes[1:]`` holding every grid point that passes ``order[:k]``;
    ``counts[k]`` is the number of points in row k.

    For a planar affine conjugate g^n(p) = A p + c, row k <= K holds the ``axes[1]`` ranges
    within the slabs |(A p + c - x_n)_r| < half of ``order[:k]``, widened by the axis
    bound's allowance ``h`` (README, "Numerical policy"), with K * len(axes[0]) within
    ``_SLAB_TABLE_ENTRIES``.  Any other map, K = 0, and an order with coefficients,
    magnitudes or a tolerance not below ``_SLAB_LIMIT`` get one row of scalars that takes
    every row, so the scan raises exactly where an unslabbed scan does."""
    rows = math.prod(len(a) for a in axes[1:])
    every = [0], [rows], np.array([len(axes[0]) * rows])
    if not isinstance(m, Conjugated) or len(axes) != 2:
        return every
    ns = np.asarray(order)
    try:
        a, c, size = m.affine_coefficients(ns, [float(np.max(np.abs(v))) for v in axes])
    except (UnsupportedMapError, IterationRangeError):
        return every
    x, eps = window.points[ns - window.start], eps_vals[ns - window.start]
    # d >= |img_r - x_r| less the axis allowance of ``_scan``.
    eps = (eps + _AXIS_ROUNDING * h[ns - window.start]) / (1.0 - _AXIS_ROUNDING)
    bound = size + np.abs(x) + eps[:, None]
    if not (np.all(bound < _SLAB_LIMIT) and np.all(np.abs(a) < _SLAB_LIMIT) and np.all(np.abs(c) < _SLAB_LIMIT)):
        return every
    half = eps[:, None] + _SLAB_ROUNDING * bound + np.finfo(float).tiny
    ns = ns[:_SLAB_TABLE_ENTRIES // len(axes[0])]
    if not ns.size:
        return every
    lo = np.zeros((len(ns) + 1, len(axes[0])), dtype=np.intp)
    hi = np.full_like(lo, len(axes[1]))
    for k, n in enumerate(ns):  # row k + 1 is row k within the slabs of n; index 0 has none
        lo[k + 1], hi[k + 1] = lo[k], hi[k]
        if n == 0:
            continue
        for r in range(2):
            # With s = sign(A_r1): s (A_r0 p_0 + c_r - x_r) + |A_r1| p_1 in (-half, half),
            # and |A_r1| p_1 is sorted along axes[1].
            shift = (-1.0 if a[k, r, 1] < 0.0 else 1.0) * (a[k, r, 0] * axes[0] + (c[k, r] - x[k, r]))
            scaled = abs(a[k, r, 1]) * axes[1]
            np.maximum(lo[k + 1], np.searchsorted(scaled, -half[k, r] - shift, "left"), out=lo[k + 1])
            np.minimum(hi[k + 1], np.searchsorted(scaled, half[k, r] - shift, "right"), out=hi[k + 1])
    return lo, hi, np.sum(np.maximum(hi - lo, 0), axis=1)


def _run(m: MapSpec, window: OrbitWindow, eps_vals: np.ndarray, metric: MetricKind, chunks,
         order: list[int]) -> tuple[int, np.ndarray | None, float | None]:
    """Run ``order`` on row-major ``chunks`` of grid points: ``(len(order), first passing
    point, None)``, or ``(dead, near miss, gap)`` for the latest position ``dead`` any chunk
    reaches (-1 without chunks), whose near miss is the least excess there, the earliest
    chunk on ties: the first argmin over all chunks' points."""
    dead, near, gap = -1, None, np.inf
    for live in chunks:
        for k, n in enumerate(order):
            dist = _excess(m, window, eps_vals, metric, live, n)
            ok = dist < 0.0
            if not np.any(ok):
                break
            if not np.all(ok):
                live = np.compress(ok, live, axis=0)  # the rows of live[ok], several times faster
        else:
            return len(order), live[0].copy(), None
        j = int(np.argmin(dist))
        if k > dead or (k == dead and dist[j] < gap):
            dead, near, gap = k, live[j].copy(), float(dist[j])
    return dead, near, gap


def _scan(m: MapSpec, window: OrbitWindow, eps_vals: np.ndarray, metric: MetricKind,
          axes: list[np.ndarray], order: list[int]) -> tuple[np.ndarray, float | None, int]:
    """Scan the grid spanned by ``axes`` against the window constraints in ``order``.

    Returns ``(first passing point, None, len(order))``, or ``(near miss, gap, k)`` for
    the first candidate closest to ``order[k]``, the constraint that emptied the grid.
    The first constraint's image is coordinatewise (index 0, or any index of a
    diagonal-affine map), and each gap |img_j - x_j| bounds a point's distance below
    under every metric (README, "Numerical policy").  Only the product of the axis
    values whose bound can pass, or, when none passes, can tie the least distance, is
    enumerated, by ``_chunks``, so memory does not grow with the points a tolerance keeps.

    The scan runs the points of the last row of the ``_span_table``: the slabs of the
    longest prefix of the order the table covers, or every point.  When none passes, the
    grid dies at some position k* of the order, and every point that reaches k* lies
    within the slabs of ``order[:k]`` for each k <= k*.  So the scan steps down to the
    rows of shorter prefixes until a run reaches the end of its prefix, which puts
    k <= k*: that run holds every point the whole product's near miss is taken from.
    """
    n = order[0]
    x, eps, unit = window.point_at(n), float(eps_vals[n - window.start]), np.eye(len(axes))
    # |H(p) - H(x)| >= |p - x| >= |p_j - x_j|, less the rounding allowance: 2^-48 of the gap,
    # and under POLAR_WARP 2^-48 h, h = |H(x)| plus the smallest normal, for the axis bound
    # and the slabs alike (README, "Numerical policy").
    h = (metric_norm(metric, window.points) + np.finfo(float).tiny if metric is MetricKind.POLAR_WARP
         else np.zeros(len(window.points)))
    # Lower bounds of d(img, x) - eps, ``_CHUNK_POINTS`` axis values at a time.  A NaN one
    # (inf - inf, where image and H(x) overflow) bounds nothing, and ~(lo > t) keeps its value.
    lows = [np.empty(len(a)) for a in axes]
    for j, a in enumerate(axes):
        for i in range(0, len(a), _CHUNK_POINTS):
            part = a[i:i + _CHUNK_POINTS]
            gap = np.abs((part if n == 0 else m.iterate(np.outer(part, unit[j]), n)[:, j]) - x[j])
            if np.isnan(gap).any():  # NaN at every grid point with that coordinate
                raise IterationRangeError(n, "the grid oracle's distance to the window point is NaN")
            lows[j][i:i + len(part)] = gap * (1.0 - _AXIS_ROUNDING) - _AXIS_ROUNDING * h[n - window.start] - eps
    reach = max(0.0, max(float(np.min(low)) for low in lows))
    kept = [a[~(low > reach)] for a, low in zip(axes, lows)]
    lo, hi, counts = _span_table(m, window, eps_vals, h, kept, order)
    k = int(np.argmax(counts == counts[-1]))  # counts fall with k: the shortest prefix with these points
    while True:
        dead, near, gap = _run(m, window, eps_vals, metric, _chunks(kept, lo[k], hi[k]), order)
        if dead >= k:
            break
        k = int(np.argmax(counts == counts[k - 1]))
    if dead == 0:  # the argmin and its ties lie where the bounds reach gap
        wide = [a[~(low > gap)] for a, low in zip(axes, lows)]
        if any(len(w) > len(a) for w, a in zip(wide, kept)):
            _, near, gap = _run(m, window, eps_vals, metric, _chunks(wide, 0, math.prod(map(len, wide[1:]))), [n])
    return near, gap, dead


def sampled_search(spec: PseudoOrbitSpec, epsilon: CPlusFn, metric: MetricKind,
                   search_box, grid_step: float) -> SearchResult:
    """Grid-scan a box for a point whose whole-window report passes.

    The fallback decision procedure for maps without the diagonal-affine
    structure, and the independent oracle validating the exact one.  One
    ``_scan`` over the whole grid returns its first row-major passing point,
    and ``checked`` is that point's row-major position plus one.  Otherwise
    the near miss is the first point closest to the constraint that emptied
    the grid, one refinement pass scans the half-step grid of 5^d points
    around it, and ``checked`` counts both grids.
    """
    m = spec.map
    if not 0.0 < grid_step < np.inf:
        raise ContractViolation("grid_step must be positive and finite")
    if len(search_box) != m.dimension:
        raise ContractViolation(f"search box has {len(search_box)} axes for a map of dimension {m.dimension}")
    axes = _grid_axes(search_box, grid_step)

    window = realize(spec)
    eps_vals = _values_along(epsilon, window.points, window.indices)
    if is_diagonal_affine(m):
        # Tightest tolerance first; deep indices break ties.
        order = sorted(range(window.start, window.stop + 1),
                       key=lambda n: (eps_vals[n - window.start], -abs(n)))
    else:  # index 0 first: README, "Numerical policy"
        order = [0, *range(1, window.stop + 1), *range(-1, window.start - 1, -1)]

    near, gap, _ = _scan(m, window, eps_vals, metric, axes, order)
    shape = [len(a) for a in axes]
    if gap is None:  # an axis repeats a value only where rounding merges steps: the first is found
        position = np.ravel_multi_index([np.searchsorted(a, v) for a, v in zip(axes, near)], shape)
        return SearchResult(near, int(position) + 1, grid_step)
    point, gap, _ = _scan(m, window, eps_vals, metric, list(near[:, None] + grid_step / 2.0 * np.arange(-2, 3)),
                          order)
    checked = math.prod(shape) + 5 ** len(axes)
    if gap is None:
        return SearchResult(point, checked, grid_step, refined=True)
    return SearchResult(None, checked, grid_step, near_miss=near, refined=True)


# ---------------------------------------------------------------------------
# Conjugacy transport
# ---------------------------------------------------------------------------


def transported_epsilon_values(window: OrbitWindow, eps_values, change,
                               metric: MetricKind = MetricKind.SUP) -> np.ndarray:
    """Tolerances for a transported window, or each orbit of a stack, that cover the transported balls.

    For each window point x with tolerance e, the closed-form ``change.difference_bound(x, e,
    metric)`` (README, "Numerical policy").  The polar-warped metric is refused.
    """
    if metric is MetricKind.POLAR_WARP:
        raise ContractViolation("transported tolerances need a norm, not the polar-warped metric")
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.shape != window.points.shape[:-1]:
        raise ContractViolation("need one tolerance per window index")
    return change.difference_bound(window.points, eps_values, metric)
