"""Construction, validation, and classification of delta-pseudo-orbits.

A pseudo-orbit is a finite window of a bi-indexed sequence {x_n} governed by
a map f and a slack function delta through the strict step condition

    d(f(x_n), x_{n+1}) < delta(f(x_n)).

Two rules generate windows:

* ``Explicit``: a stored list of points with a start index.
* ``Spliced``: two seeds anchored at index 0; points are f^n(forward_seed)
  for n >= splice index and f^n(backward_seed) for n < it.  Every step is a
  true orbit step except the single jump into the splice, so the window can
  be extended on demand by the map's closed forms without storing points.
  This is the universal adversarial pattern: glue the future of one orbit to
  the past of another with one small jump.

An explicit rule may hold a stack of N windows over one index range, points
``(N, L, d)``; realizing, validating and classifying it act on every orbit at
once, and one orbit is the stack without its leading axis.

Classification targets the homothety dichotomy: a window is ``bounded`` if
all its points stay in the closed ball of a reference radius r0, and
``escaping`` when, past the first exit, norms grow by a fixed ratio every
step ((1+k)/2 for expansion factor k, i.e. 3/2 at k=2).  ``unclassified`` is
a first-class outcome: it is the empirical signal that a slack function
violates the synthesis conditions, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cplus import CPlusFn
from .errors import ContractViolation, IterationRangeError, PositivityError, UnboundedSlackError
from .geometry import MetricKind, as_point, distance, euclidean_norm, metric_norm, sample_directions, uniform_ball
from .maps import MapSpec, linear_scales, map_to_dict
from .plots import trace_csv

__all__ = [
    "ExplicitRule",
    "SplicedRule",
    "PseudoOrbitSpec",
    "OrbitWindow",
    "realize",
    "validate",
    "ValidationReport",
    "max_splice_jump",
    "OrbitClass",
    "classify_pseudo_orbit",
    "random_pseudo_orbit",
    "generate_orbit_ensemble",
    "orbit_to_csv",
]


@dataclass(frozen=True)
class ExplicitRule:
    points: np.ndarray  # (L, d), or a stack (N, L, d) of N orbits
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))


@dataclass(frozen=True)
class SplicedRule:
    forward_seed: np.ndarray
    backward_seed: np.ndarray
    splice: int = 0

    def __post_init__(self):
        object.__setattr__(self, "forward_seed", as_point(self.forward_seed))
        object.__setattr__(self, "backward_seed", as_point(self.backward_seed))


@dataclass(frozen=True)
class PseudoOrbitSpec:
    rule: ExplicitRule | SplicedRule
    window: tuple[int, int]
    map: MapSpec

    def __post_init__(self):
        n_min, n_max = self.window
        if not (n_min <= 0 <= n_max) or n_min == n_max:
            raise ContractViolation("window must be a nonempty range containing 0")


class OrbitWindow:
    """A realized window: points[..., i, :] sits at index start + i, in each orbit
    of a stack ``(N, L, d)``; ``len`` is L."""

    def __init__(self, start: int, points: np.ndarray):
        self.start = int(start)
        self.points = np.atleast_2d(np.asarray(points, dtype=float))

    def __len__(self):
        return self.points.shape[-2]

    @property
    def dimension(self) -> int:
        return self.points.shape[-1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self))

    @property
    def stop(self) -> int:
        return self.start + len(self) - 1

    def point_at(self, n: int) -> np.ndarray:
        if not self.start <= n <= self.stop:
            raise ContractViolation(f"index {n} outside window [{self.start}, {self.stop}]")
        return self.points[..., n - self.start, :]

    def __repr__(self):
        return f"<OrbitWindow [{self.start}, {self.stop}] d={self.dimension}>"


def _spliced_points(rule: SplicedRule, m: MapSpec, ns: np.ndarray) -> np.ndarray:
    """The points of the indices ``ns``; raises IterationRangeError at the first index of
    ``ns`` whose point leaves double range."""
    fwd_mask = ns >= rule.splice
    out = np.empty((len(ns), m.dimension))
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(fwd_mask):
            out[fwd_mask] = m.orbit(rule.forward_seed, ns[fwd_mask])
        if np.any(~fwd_mask):
            out[~fwd_mask] = m.orbit(rule.backward_seed, ns[~fwd_mask])
    if not np.all(np.isfinite(out)):
        bad = np.argmax(~np.all(np.isfinite(out), axis=1))
        raise IterationRangeError(int(ns[bad]), "a spliced point left double range")
    return out


def realize(spec: PseudoOrbitSpec, window: tuple[int, int] | None = None) -> OrbitWindow:
    """Materialize the points of the window (or of an override window).

    Spliced rules extend to any window through the map's closed forms;
    explicit rules are cut to their stored range.
    """
    n_min, n_max = window if window is not None else spec.window
    ns = np.arange(n_min, n_max + 1)
    if isinstance(spec.rule, ExplicitRule):
        lo = spec.rule.start
        hi = spec.rule.start + spec.rule.points.shape[-2] - 1
        if n_min < lo or n_max > hi:
            raise ContractViolation(
                f"explicit rule covers [{lo}, {hi}], cannot realize [{n_min}, {n_max}]"
            )
        return OrbitWindow(n_min, spec.rule.points[..., n_min - lo : n_max - lo + 1, :])
    return OrbitWindow(n_min, _spliced_points(spec.rule, spec.map, ns))


def _values_along(fn: CPlusFn, points: np.ndarray, ns) -> np.ndarray:
    """``fn`` at window points ``(..., L, d)`` of indices ``ns``, shape ``(..., L)``.

    One eval over every row of a stack; a value <= 0 names its window index
    ``ns[row % L]``, whichever orbit of the stack holds it.
    """
    try:
        return fn.eval(points.reshape(-1, points.shape[-1])).reshape(points.shape[:-1])
    except PositivityError as exc:
        exc.n = int(ns[exc.row % len(ns)])
        raise


def _per_orbit(values: np.ndarray):
    """A Python scalar for one orbit, an array of one value per orbit for a stack."""
    return values if values.ndim else values.item()


@dataclass
class ValidationReport:
    """Per-step slack audit of the pseudo-orbit condition; rows of a stack are its orbits."""

    start: int                 # index n of the first step n -> n+1
    gaps: np.ndarray           # d(f(x_n), x_{n+1}), shape (..., L - 1)
    bounds: np.ndarray         # delta(f(x_n))

    @property
    def step_ok(self) -> np.ndarray:
        return self.gaps < self.bounds

    @property
    def passed(self):
        return _per_orbit(np.all(self.step_ok, axis=-1))

    def failing_steps(self) -> list[int]:
        """Indices n of the failing steps n -> n+1, of every orbit of a stack."""
        return [int(self.start + i) for i in np.nonzero(~self.step_ok)[-1]]


def validate(spec: PseudoOrbitSpec, delta: CPlusFn, metric: MetricKind = MetricKind.SUP,
             window: tuple[int, int] | None = None) -> ValidationReport:
    """Audit every step of the window, or of each orbit of a stack; failures are data, not errors."""
    w = realize(spec, window)
    images = spec.map.apply(w.points[..., :-1, :])
    gaps = distance(metric, images, w.points[..., 1:, :])
    return ValidationReport(w.start, gaps, _values_along(delta, images, w.indices[:-1]))


# Bisection levels of ``max_splice_jump``, and how many of them one batched call decides.
_BISECT_LEVELS = 80
_BISECT_DEPTH = 6


def max_splice_jump(spec: PseudoOrbitSpec, delta: CPlusFn, metric: MetricKind = MetricKind.SUP,
                    direction: np.ndarray | None = None) -> float:
    """Largest admissible jump magnitude at the splice, times 0.99.

    The spliced sequence has exactly one nonzero step, from index splice-1
    into the splice; its size is controlled by how far the backward seed may
    sit from the forward seed.  The seeds are re-parameterized as
    ``backward = forward + q * u`` with u a metric-unit direction (taken from
    the spec's own seeds unless given), and q is located by doubling plus
    bisection against the strict step condition.  The returned value is
    multiplied by 0.99 so it stays strictly admissible under rounding.

    The bisection is walked ``_BISECT_DEPTH`` levels at a time: one call of
    the map, the distance and the slack tests every midpoint those levels can
    reach, and the walk takes the same midpoints as a one-point bisection, so
    q has its bits (README, "Numerical policy").  Raises
    ``UnboundedSlackError`` when no jump the doubling reaches is inadmissible.
    """
    rule = spec.rule
    if not isinstance(rule, SplicedRule):
        raise ContractViolation("max_splice_jump needs a spliced rule")
    if direction is None:
        direction = rule.backward_seed - rule.forward_seed
        if np.all(direction == 0.0):
            raise ContractViolation("seeds coincide; pass an explicit jump direction")
    direction = as_point(direction)
    if metric is MetricKind.POLAR_WARP:
        scale = float(euclidean_norm(direction))
    else:
        scale = float(metric_norm(metric, direction))
    u = direction / scale
    # Step splice-1 -> splice: compare f^s(backward seed) to f^s(forward seed).
    right = spec.map.iterate(rule.forward_seed, rule.splice)

    def admissible(qs: np.ndarray) -> np.ndarray:
        """The strict step condition at each jump of ``qs``; every stage is elementwise."""
        left = spec.map.iterate(rule.forward_seed + qs[:, None] * u, rule.splice)
        return distance(metric, left, right) < delta.eval(left)

    hi = float(delta.eval(rule.forward_seed))
    for _ in range(200):
        if not admissible(np.array([hi]))[0]:
            break
        hi *= 2.0
    else:
        raise UnboundedSlackError(hi)
    lo = 0.0
    for level in range(0, _BISECT_LEVELS, _BISECT_DEPTH):
        # Every midpoint the next ``depth`` levels can reach, in increasing order:
        # each level halves the brackets of the level before, 0.5 * (lo + hi) each.
        depth = min(_BISECT_DEPTH, _BISECT_LEVELS - level)
        size = 1 << depth
        qs = np.empty(size + 1)
        qs[0], qs[size] = lo, hi
        for step in (size >> k for k in range(depth)):
            qs[step // 2::step] = 0.5 * (qs[:-1:step] + qs[step::step])
        ok = admissible(qs[1:-1])
        # The bisection's walk through them is a binary search.
        i = size // 2
        for k in range(2, depth + 2):
            if ok[i - 1]:
                lo, i = float(qs[i]), i + (size >> k)
            else:
                hi, i = float(qs[i]), i - (size >> k)
    q = 0.99 * lo
    while q > 0.0 and not admissible(np.array([q]))[0]:
        q *= 0.5
    return q


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """The class of one orbit; for a stack, ``kind`` and ``escape_index`` hold one per orbit."""

    kind: str                       # "bounded" | "escaping" | "unclassified"
    radius: float                   # the reference radius r0
    growth_ratio: float             # (1 + k)/2 for the homothety's modulus k
    escape_index: int | None = None  # None for a bounded orbit

    @property
    def bounded(self) -> bool:
        return self.kind == "bounded"

    @property
    def escaping(self) -> bool:
        return self.kind == "escaping"


def classify_pseudo_orbit(window: OrbitWindow, r0: float, m: MapSpec,
                          metric: MetricKind = MetricKind.SUP) -> OrbitClass:
    """Sort a realized window of the expanding homothety ``m`` (modulus k, read by
    ``maps.linear_scales``) into the bounded/escaping dichotomy.

    ``bounded``: every point lies in the closed ball of radius r0.
    ``escaping``: past the first index i0 with |x_{i0}| > r0, norms grow by
    strictly more than (1 + k)/2 at every step to the window's end.
    Anything else is ``unclassified``, which flags a slack function whose
    admissible perturbations are too large for the dichotomy.  A stack is
    classified orbit by orbit in one pass.
    """
    growth = (abs(float(linear_scales(m)[0])) + 1.0) / 2.0
    norms = metric_norm(metric, window.points)
    outside = norms > r0
    exits = np.any(outside, axis=-1)
    i0 = np.argmax(outside, axis=-1)
    grows = norms[..., 1:] > growth * norms[..., :-1]  # step i -> i + 1
    escapes = np.all(grows | (np.arange(len(window) - 1) < i0[..., None]), axis=-1)
    kind = np.where(exits, np.where(escapes, "escaping", "unclassified"), "bounded")
    return OrbitClass(_per_orbit(kind), r0, growth, _per_orbit(np.where(exits, window.start + i0, None)))


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


# Draws each anchored orbit tests in a step's first rejection round; each later
# round doubles the width, up to ``max(_BATCH, block)``.
_BATCH = 16


class _BallStreams:
    """Unit-ball draws for a batch of orbits, each orbit from its own stream.

    Orbit i reads, in order, the concatenation of ``uniform_ball(metric, dim, rngs[i],
    block)`` blocks.  :meth:`peek` shows an orbit's next draws without using them, and a
    caller moves its ``cursor`` past those it used.  README's "Numerical policy" bounds
    a row's draws and says why batching leaves the stream unchanged.
    """

    def __init__(self, metric: MetricKind, dim: int, rngs, block: int):
        self.metric = metric
        self.rngs = rngs
        self.block = block
        self.buf = np.empty((len(rngs), block + max(_BATCH, block), dim))
        self.cursor = np.zeros(len(rngs), dtype=np.intp)
        self.fill = np.zeros(len(rngs), dtype=np.intp)

    def peek(self, rows: np.ndarray, b: int) -> np.ndarray:
        """The next ``b`` draws of each orbit in ``rows`` (distinct), shape ``(len(rows), b, dim)``."""
        dim = self.buf.shape[2]
        for i in rows[self.fill[rows] - self.cursor[rows] < b]:
            row, c, f = self.buf[i], self.cursor[i], self.fill[i]
            row[:f - c] = row[c:f]
            f -= c
            while f < b:
                row[f:f + self.block] = uniform_ball(self.metric, dim, self.rngs[i], self.block)
                f += self.block
            self.cursor[i], self.fill[i] = 0, f
        return self.buf[rows[:, None], self.cursor[rows, None] + np.arange(b)]


def _lockstep_orbits(m: MapSpec, delta: CPlusFn, metric: MetricKind,
                     window: tuple[int, int], seeds: np.ndarray, rngs,
                     keep_within: np.ndarray) -> np.ndarray:
    """Advance N random pseudo-orbits together; points of shape ``(N, L, d)``.

    ``seeds[i]`` sits at index 0 of orbit i, which draws from ``rngs[i]`` in blocks of
    one window's step count; ``keep_within[i]`` is its anchor radius, ``inf`` for a free
    orbit.  Each step makes one map call and one ``delta.eval`` over the batch.  README's
    "Numerical policy" says how free and anchored orbits draw, and why the points have
    the bits of the one-draw-at-a-time loop.
    """
    n_min, n_max = window
    if not (n_min <= 0 <= n_max) or n_min == n_max:
        raise ContractViolation("window must be a nonempty range containing 0")
    count, dim = seeds.shape
    block = n_max - n_min
    free, anchored = np.flatnonzero(np.isposinf(keep_within)), np.flatnonzero(np.isfinite(keep_within))
    # Forward step n reads draw n - 1 of a free orbit's block, backward step n draw n_max - n - 1.
    blocks = np.array([uniform_ball(metric, dim, rngs[i], block) for i in free]).reshape(-1, block, dim)
    streams = _BallStreams(metric, dim, [rngs[i] for i in anchored], block)

    def settle(rows, r, exact, trial, fits, finish):
        """Each draw r's candidate: r, scaled by its orbit's radius, gives ``trial(rows, r)``
        and is halved until that point ``fits``, at most 200 times, after which the exact
        step is the candidate; ``finish`` maps a point that fits to its candidate."""
        point = trial(rows, r)
        live = np.arange(len(r))
        for _ in range(200):
            live = live[~fits(rows[live], r[live], point[live])]
            if not live.size:
                break
            r[live] *= 0.5
            point[live] = trial(rows[live], r[live])
        cand = finish(point)
        cand[live] = exact[rows[live]]
        return cand

    def step(draw, exact, rad, *law):
        """Each free orbit's candidate of its block's draw ``draw``, and each anchored
        orbit's first candidate within its radius among its next 10 000 draws, else ``exact``."""
        out = exact.copy()
        out[free] = settle(free, blocks[:, draw] * rad[free, None], exact, *law)
        pending, used, b = np.arange(len(anchored)), 0, _BATCH
        while pending.size and used < 10_000:
            b = min(b, 10_000 - used)
            rows = anchored[np.repeat(pending, b)]
            cand = settle(rows, streams.peek(pending, b).reshape(-1, dim) * rad[rows, None], exact, *law)
            ok = (metric_norm(metric, cand) <= keep_within[rows]).reshape(-1, b)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)
            out[anchored[pending[hit]]] = cand.reshape(-1, b, dim)[hit, first[hit]]
            streams.cursor[pending] += np.where(hit, first + 1, b)
            pending = pending[~hit]
            used += b
            b = min(2 * b, max(_BATCH, block))
        return out

    points = np.empty((count, block + 1, dim))
    points[:, -n_min] = seeds
    x = seeds
    for n in range(1, n_max + 1):
        with np.errstate(over="ignore"):
            fx = m.apply(x)
        if not np.all(np.isfinite(fx)):
            raise IterationRangeError(n, "an exact image left double range")
        rad = 0.99 * delta.eval(fx)
        # The stored point is what validation sees: once the slack drops near
        # the coordinate ulp (or to subnormal scales), fx + r can round to an
        # inadmissible step, so the fit test measures the stored point.
        x = points[:, n - n_min] = step(
            n - 1, fx, rad, lambda rows, r: fx[rows] + r,
            lambda rows, r, p: distance(metric, p, fx[rows]) < rad[rows], lambda p: p)
    x = seeds
    for n in range(-1, n_min - 1, -1):
        rad = 0.99 * delta.eval(x)
        with np.errstate(over="ignore"):
            prev = m.apply_inverse(x)
        if not np.all(np.isfinite(prev)):
            raise IterationRangeError(n, "an exact image left double range")
        # The perturbation is sized against delta at f(x_{n-1}) = x_n - r.
        x = points[:, n - n_min] = step(
            n_max - n - 1, prev, rad, lambda rows, r: x[rows] - r,
            lambda rows, r, p: metric_norm(metric, r) < 0.99 * delta.eval(p), m.apply_inverse)
    return points


def random_pseudo_orbit(m: MapSpec, delta: CPlusFn, metric: MetricKind,
                        window: tuple[int, int], seed_point, rng,
                        keep_within: float | None = None) -> PseudoOrbitSpec:
    """Draw a random delta-pseudo-orbit around a seed at index 0.

    Each step draws r uniformly from the metric ball of radius 0.99 times the
    slack at its base point.  Forward, the base is the exact image f(x_n) and
    the candidate x_{n+1} = f(x_n) + r; the draw fits when that stored point
    is an admissible step.  Backward, the base is x_n and the candidate
    x_{n-1} = f^{-1}(x_n - r); the draw fits when |r| < 0.99 * delta(x_n - r).
    A draw that does not fit is halved, at most 200 times, after which the
    exact step is its candidate.

    ``keep_within`` (a positive radius; ``None`` for a free orbit) switches on
    anchored mode: a candidate outside the given radius is rejected and the
    next draw tested, forward and backward alike, which manufactures members
    of the bounded class.  A step tests at most 10 000 draws and then takes
    the exact step.  The rejection changes the sampling law, never the
    pseudo-orbit property: every accepted step still satisfies the strict
    slack condition.

    This is the one-orbit case of the lockstep generator behind
    :func:`generate_orbit_ensemble`.  Draws come from ``rng`` in blocks of one
    window's step count, so ``rng`` may advance past the draws used (README,
    "Numerical policy").
    """
    n_min, n_max = window
    x0 = as_point(seed_point)
    keep = np.inf if keep_within is None else float(keep_within)
    if not keep > 0.0:
        raise ContractViolation(f"keep_within must be a positive radius or None, got {keep_within!r}")
    points = _lockstep_orbits(m, delta, metric, (n_min, n_max), x0[None, :], [rng],
                              np.array([keep]))
    return PseudoOrbitSpec(ExplicitRule(points[0], n_min), (n_min, n_max), m)


def generate_orbit_ensemble(m: MapSpec, delta: CPlusFn, metric: MetricKind,
                            window: tuple[int, int], count: int, seed: int,
                            r0: float, anchored_fraction: float = 0.2,
                            start_range: tuple[float, float] | None = None) -> list[PseudoOrbitSpec]:
    """A reproducible batch of random pseudo-orbits, mixed by class.

    Orbit i uses its own stream ``default_rng(seed + i)``: it draws its start
    point, then takes every perturbation of :func:`random_pseudo_orbit`'s law
    from that stream in blocks of one window's step count.  All orbits advance
    together, one ``(count, d)`` array per step, yet no orbit's points depend
    on the others, so batches are deterministic and order-independent: the
    first j orbits of a batch of count >= j are the batch of j.  A fixed
    fraction is generated in anchored mode near the origin (bounded class
    material); the rest start at log-uniform radii and escape on their own.
    ``r0`` is positive and finite, ``anchored_fraction`` lies in [0, 1], and
    the radii in ``start_range`` =
    (lo, hi), 0 < lo <= hi < inf, (0.01 * r0, 4 * r0) by default.
    """
    if count < 1:
        raise ContractViolation(f"an ensemble needs at least one orbit, got count={count}")
    if not 0.0 < r0 < np.inf:
        raise ContractViolation(f"r0 must be a positive finite radius, got {r0!r}")
    if not 0.0 <= anchored_fraction <= 1.0:
        raise ContractViolation(f"anchored_fraction must lie in [0, 1], got {anchored_fraction!r}")
    if start_range is None:
        start_range = (1e-2 * r0, 4.0 * r0)
    lo, hi = start_range
    if not 0.0 < lo <= hi < np.inf:
        raise ContractViolation(f"start_range must satisfy 0 < lo <= hi < inf, got {start_range!r}")
    dim = m.dimension
    delta0 = float(delta.eval(np.zeros(dim)))
    # Anchored orbits stay inside radius `keep`; that is only sustainable if
    # an admissible inward draw exists from everywhere inside, which needs
    # keep * (k - 1) comfortably below the slack near the origin.  k is the
    # map's sup-norm expansion on the unit directions: max|a_j| exactly for a
    # diagonal linear map, whose axis directions are sampled exactly.
    dirs = sample_directions(MetricKind.SUP, dim, 64)
    k = float(np.max(metric_norm(MetricKind.SUP, m.apply(dirs))))
    keep = 0.45 * min(delta0, r0) / max(1.0, k - 1.0)
    n_anchored = int(round(anchored_fraction * count))
    rngs = [np.random.default_rng(seed + i) for i in range(count)]
    seeds = np.empty((count, dim))
    for i, rng in enumerate(rngs):
        if i < n_anchored:
            seeds[i] = uniform_ball(metric, dim, rng, 1)[0] * (0.25 * keep)
        else:
            radius = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            u = rng.standard_normal(dim)
            u /= max(float(metric_norm(metric, u)), 1e-300)
            seeds[i] = radius * u
    limits = np.where(np.arange(count) < n_anchored, keep, np.inf)
    n_min, n_max = window
    points = _lockstep_orbits(m, delta, metric, (n_min, n_max), seeds, rngs, limits)
    return [PseudoOrbitSpec(ExplicitRule(p, n_min), (n_min, n_max), m) for p in points]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def orbit_to_csv(window: OrbitWindow, meta: dict | None = None) -> str:
    """Trace with columns n, x1..xd; metadata rides in leading '#' lines."""
    columns = {"n": window.indices}
    columns.update((f"x{j + 1}", window.points[:, j]) for j in range(window.dimension))
    return trace_csv(columns, meta)


def spec_meta(spec: PseudoOrbitSpec) -> dict:
    """Header metadata describing a pseudo-orbit spec."""
    if isinstance(spec.rule, SplicedRule):
        rule = {
            "kind": "spliced",
            "forward_seed": spec.rule.forward_seed.tolist(),
            "backward_seed": spec.rule.backward_seed.tolist(),
            "splice": spec.rule.splice,
        }
    else:
        rule = {"kind": "explicit", "start": spec.rule.start, "count": int(spec.rule.points.shape[-2])}
    return {"map": map_to_dict(spec.map), "rule": rule, "window": list(spec.window)}
