"""Strictly positive continuous functions on R^d, as expression trees.

Both the shadowing tolerance (epsilon) and the pseudo-orbit slack (delta)
live here.  A function is a tree over one point variable with node kinds

    const, norm (metric-selected), coord, add, sub (guarded), mul, min, max,
    exp2neg (u -> 2^-u), recip (guarded), radial (piecewise-linear table in
    the norm), envelope (tabulated 1-Lipschitz minorant)

all of which are continuous, so continuity is structural.  Strict positivity
is checked at evaluation time: a root evaluation that is <= 0 raises
``PositivityError`` naming the node, as do the guarded nodes (``sub`` must
stay positive, ``recip`` needs a positive denominator).

Evaluation is vectorized: ``fn.eval(p)`` accepts a single point ``(d,)`` or a
batch ``(N, d)`` and returns a scalar or an ``(N,)`` array.

Floating-point policy: ``exp2neg`` saturates at the smallest positive
subnormal instead of underflowing to zero, so trees like ``2^-|x|`` remain
strictly positive arbitrarily far out.

Trees serialize to a small JSON schema ``{"op": name, "args": [...]}`` where
args mix child trees and literals; radial tables carry sorted
``(radius, value)`` pairs.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (REQUIRED, ContractViolation, DimensionMismatch, PositivityError, check, number,
                     numbers, one_of, read_fields, rows, within)
from .geometry import MetricKind, distance, metric_norm, sample_directions
from .maps import MapSpec, linear_scales

__all__ = [
    "CPlusFn",
    "Const",
    "Norm",
    "Coord",
    "Add",
    "Sub",
    "Mul",
    "Min",
    "Max",
    "Exp2Neg",
    "Recip",
    "RadialTable",
    "Envelope",
    "fn_from_json",
    "fn_from_obj",
    "epsilon_from_neighborhood",
    "saddle_adversarial_epsilon",
    "decaying_epsilon",
    "synthesize_delta_homothety",
    "delta_reference_levels",
    "verify_delta_conditions",
    "random_positive_fn",
]

_TINY = math.ulp(0.0)  # smallest positive subnormal double


def _as_batch(p) -> tuple[np.ndarray, bool]:
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ContractViolation(f"expected a point or a batch of points, got shape {arr.shape}")


def _positive(node: str, values: np.ndarray) -> np.ndarray:
    """``values``, or a PositivityError at the row of the least one when some value is <= 0."""
    if not np.all(values > 0.0):
        row = int(np.argmin(values))
        raise PositivityError(node, float(values[row]), row)
    return values


class CPlusFn:
    """Base class for strictly positive scalar fields."""

    op: str = "?"

    def eval(self, p):
        """Evaluate at a point or batch; raises if any value is <= 0."""
        pts, single = _as_batch(p)
        values = _positive(self.op, self._eval(pts))
        return float(values[0]) if single else values

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_obj(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_json()}>"


class Const(CPlusFn):
    op = "const"

    def __init__(self, value: float):
        self.value = float(value)

    def _eval(self, pts):
        return np.full(pts.shape[0], self.value)

    def to_obj(self):
        return {"op": "const", "args": [self.value]}


class Norm(CPlusFn):
    """|x| in the chosen metric's norm (distance to the origin)."""

    op = "norm"

    def __init__(self, metric: MetricKind = MetricKind.SUP):
        self.metric = metric

    def _eval(self, pts):
        return metric_norm(self.metric, pts)

    def to_obj(self):
        return {"op": "norm", "args": [self.metric.value]}


class Coord(CPlusFn):
    op = "coord"

    def __init__(self, index: int):
        self.index = int(index)

    def _eval(self, pts):
        if not 0 <= self.index < pts.shape[1]:
            raise ContractViolation(f"coordinate {self.index} out of range")
        return pts[:, self.index]

    def to_obj(self):
        return {"op": "coord", "args": [self.index]}


class _Nary(CPlusFn):
    fold = None  # the binary ufunc combining the terms left to right

    def __init__(self, *terms: CPlusFn):
        if len(terms) < 2:
            raise ContractViolation(f"{self.op} needs at least two operands")
        self.terms = tuple(terms)

    def _eval(self, pts):
        out = self.terms[0]._eval(pts)
        for t in self.terms[1:]:
            out = self.fold(out, t._eval(pts))
        return out

    def to_obj(self):
        return {"op": self.op, "args": [t.to_obj() for t in self.terms]}


class Add(_Nary):
    op, fold = "add", np.add


class Mul(_Nary):
    op, fold = "mul", np.multiply


class Min(_Nary):
    op, fold = "min", np.minimum


class Max(_Nary):
    op, fold = "max", np.maximum


class Sub(CPlusFn):
    """a - b, guarded: the difference must stay strictly positive."""

    op = "sub"

    def __init__(self, a: CPlusFn, b: CPlusFn):
        self.a = a
        self.b = b

    def _eval(self, pts):
        return _positive("sub", self.a._eval(pts) - self.b._eval(pts))

    def to_obj(self):
        return {"op": "sub", "args": [self.a.to_obj(), self.b.to_obj()]}


class _Unary(CPlusFn):
    def __init__(self, child: CPlusFn):
        self.child = child

    def to_obj(self):
        return {"op": self.op, "args": [self.child.to_obj()]}


class Exp2Neg(_Unary):
    """u -> 2^(-u); saturates at the smallest subnormal instead of underflowing."""

    op = "exp2neg"

    def _eval(self, pts):
        u = self.child._eval(pts)
        with np.errstate(over="ignore", under="ignore"):
            out = np.exp2(-u)
        return np.maximum(out, _TINY)


class Recip(_Unary):
    """u -> 1/u, guarded: the denominator must be strictly positive."""

    op = "recip"

    def _eval(self, pts):
        return 1.0 / _positive("recip", self.child._eval(pts))


class RadialTable(CPlusFn):
    """Piecewise-linear function of the norm, from sorted (radius, value) pairs.

    Inside the table: linear interpolation.  Below the first radius the first
    value is held.  Beyond the last radius the tail rule applies:

    * ``"clamp"``: hold the last value (default);
    * ``"harmonic"``: continue as v_last * (1 + r_last) / (1 + r), which keeps
      the value strictly positive and strictly decreasing and matches the
      final slope of a profile of the shape G(r)/(1+r) at the cut radius.
    """

    op = "radial"

    def __init__(self, pairs, metric: MetricKind = MetricKind.SUP, tail: str = "clamp"):
        pts = np.asarray(pairs, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ContractViolation("radial table needs a nonempty list of (radius, value) pairs")
        radii, values = pts[:, 0], pts[:, 1]
        if radii[0] < 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ContractViolation("radii must be nonnegative and strictly increasing")
        if np.any(values <= 0.0):
            raise PositivityError("radial", float(np.min(values)), int(np.argmin(values)))
        if tail not in ("clamp", "harmonic"):
            raise ContractViolation(f"unknown tail rule {tail!r}")
        self.radii = radii
        self.values = values
        self.metric = metric
        self.tail = tail

    def _eval(self, pts):
        r = metric_norm(self.metric, pts)
        out = np.interp(r, self.radii, self.values)
        if self.tail == "harmonic":
            r_last = self.radii[-1]
            v_last = self.values[-1]
            beyond = r > r_last
            if np.any(beyond):
                out = np.where(beyond, v_last * (1.0 + r_last) / (1.0 + r), out)
        return out

    def to_obj(self):
        return {
            "op": "radial",
            "args": [
                self.metric.value,
                [[float(r), float(v)] for r, v in zip(self.radii, self.values)],
                self.tail,
            ],
        }


# Nodes per cell of the pruned envelope minimum: about sqrt(M) for M nodes, which
# balances the per-cell bounds every query computes against the terms of the cells
# it cannot prune, and never fewer than this.
_CELL_NODES = 64
# Elements of the largest temporary one block of queries or of (query, cell) pairs
# forms, so no temporary grows with (queries x nodes).
_BLOCK = 1 << 20


class Envelope(CPlusFn):
    """Sampled infimal convolution: x -> min_i (values_i + d(x, points_i)).

    This is the 1-Lipschitz minorant of the tabulated data, continuous and
    strictly positive whenever the tabulated values are.  On its own nodes it
    equals the tabulated infimal convolution exactly (the i-th term at the
    i-th node contributes values_i + 0).

    The minimum is an exact branch and bound over cells of nodes.  On first
    use the nodes are packed into cells by per-axis rank, each cell keeping
    its node-coordinate box [lo, hi] and its least value vmin (a short cell
    repeats its own nodes).  For a query x,
    ``vmin + norm(max(lo - x, x - hi, 0))`` bounds the cell's terms from
    below, and it does so for the computed doubles too: rounded subtraction,
    abs, max, add, squaring of nonnegatives and sqrt are monotone, and the
    gap goes through the same ``geometry`` norm as the distance.  A query takes every term of its
    lowest-bound cell, then the terms of only those cells whose bound is below
    that running value, so the result is the minimum of the same doubles as
    the full scan, bit for bit.  The bounds are per cell: a single global
    bound prunes nothing where the terms tie over a wide region, as
    ``1 + |x|`` does under the sup metric.
    """

    op = "envelope"

    def __init__(self, points, values, metric: MetricKind = MetricKind.SUP):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.points.ndim != 2 or 0 in self.points.shape:
            raise ContractViolation("envelope needs a nonempty (M, d) sample set")
        if self.values.shape != (self.points.shape[0],):
            raise ContractViolation("one value per sample point required")
        if not np.all(np.isfinite(self.points)):
            raise ContractViolation("envelope sample points must be finite")
        if np.any(np.isnan(self.values)):
            raise ContractViolation("envelope values must not be NaN")
        _positive("envelope", self.values)
        if metric not in (MetricKind.SUP, MetricKind.EUCLIDEAN):
            raise ContractViolation("envelope supports sup and Euclidean metrics")
        self.metric = metric
        self._node_values: np.ndarray | None = None
        self._cells: tuple | None = None

    def _cell_table(self) -> tuple:
        """(points (C, B, d), values (C, B), lo (C, d), hi (C, d), vmin (C,)) of the cells."""
        if self._cells is None:
            m, dim = self.points.shape
            per_axis = math.ceil((m / max(_CELL_NODES, math.isqrt(m))) ** (1.0 / dim))
            groups = [np.arange(m)]
            for axis in range(dim):  # sort-tile-recursive: slabs by rank along each axis in turn
                groups = [part for g in groups
                          for part in np.array_split(g[np.argsort(self.points[g, axis], kind="stable")],
                                                     min(per_axis, len(g)))]
            width = max(len(g) for g in groups)
            nodes = np.stack([np.resize(g, width) for g in groups])
            pts, vals = self.points[nodes], self.values[nodes]
            self._cells = (pts, vals, pts.min(axis=1), pts.max(axis=1), vals.min(axis=1))
        return self._cells

    def _eval(self, pts):
        if pts.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(f"{pts.shape[1]}-D query of {self.points.shape[1]}-D envelope samples")
        cell_pts, cell_vals, lo, hi, vmin = self._cell_table()
        n_cells, width, dim = cell_pts.shape

        def least_terms(x, cells):  # row i: min over cell cells[i] of values + d(x[i], nodes)
            return np.min(cell_vals[cells] + distance(self.metric, x[:, None, :], cell_pts[cells]), axis=1)

        out = np.empty(pts.shape[0])
        queries = max(1, _BLOCK // (max(n_cells, width) * dim))
        pairs = max(1, _BLOCK // (width * dim))
        for start in range(0, pts.shape[0], queries):
            x = pts[start : start + queries]
            gap = np.maximum(np.maximum(lo - x[:, None, :], x[:, None, :] - hi), 0.0)
            bound = vmin + metric_norm(self.metric, gap)
            seed = np.argmin(bound, axis=1)
            best = least_terms(x, seed)
            bound[np.arange(x.shape[0]), seed] = np.inf
            qi, ci = np.nonzero(bound < best[:, None])
            for k in range(0, qi.size, pairs):
                np.minimum.at(best, qi[k : k + pairs], least_terms(x[qi[k : k + pairs]], ci[k : k + pairs]))
            out[start : start + x.shape[0]] = best
        return out

    def values_at_nodes(self) -> np.ndarray:
        """The infimal convolution at the sample points themselves (cached)."""
        if self._node_values is None:
            self._node_values = self._eval(self.points)
        return self._node_values

    def to_obj(self):
        return {
            "op": "envelope",
            "args": [self.metric.value, self.points.tolist(), self.values.tolist()],
        }


def fn_from_obj(obj) -> CPlusFn:
    """Rebuild a tree, unevaluated, from an ``{"op", "args"}`` object or a shorthand string
    (``saddle_adversarial``, ``const:<value>``, ``decaying:<rate>``, ``table:<pairs>``); a
    malformed node raises ContractViolation whose path locates it, as in ``.args[1]``."""
    if isinstance(obj, str):
        kinds, (op, _, text) = _SHORTHANDS, obj.partition(":")
        with within(".args[0]"):
            try:
                args = [json.loads(text)] if text else []
            except json.JSONDecodeError as exc:
                raise ContractViolation(f"not JSON: {text!r}") from exc
    else:
        obj = read_fields(obj, {"op": (_ANY, REQUIRED), "args": (_LIST, [])})
        kinds, op, args = _NODE_KINDS, obj["op"], obj["args"]
    with within(".op"):
        build, readers = kinds[one_of(kinds)(op)]
    try:
        inspect.signature(build).bind(*args)
    except TypeError as exc:
        raise ContractViolation(f"{op!r} does not take {len(args)} arguments") from exc
    decoded = []
    for i, value in enumerate(args):
        with within(f".args[{i}]"):
            decoded.append(readers[min(i, len(readers) - 1)](value, decoded))
    try:
        return build(*decoded)
    except PositivityError as exc:  # a tabulated value <= 0 is refused as it is read
        raise ContractViolation(str(exc)) from exc


_ANY = lambda v, f: v
_LIST = lambda v, f: check(isinstance(v, (list, tuple)), "a list", v)
_FN = lambda v, f: fn_from_obj(v)
_METRIC = lambda v, f: MetricKind(one_of([k.value for k in MetricKind])(v))
_POSITIVE = number(0.0, open_lo=True)
# op -> (builder, argument readers); a builder taking *args repeats its last reader.
_NODE_KINDS = {
    "const": (Const, (_POSITIVE,)),
    "norm": (Norm, (_METRIC,)),
    "coord": (Coord, (number(0, integer=True),)),
    **{cls.op: (cls, (_FN,)) for cls in (Add, Mul, Min, Max, Sub, Exp2Neg, Recip)},
    "radial": (lambda metric, pairs, tail="clamp": RadialTable(pairs, metric, tail), (_METRIC, rows, _ANY)),
    "envelope": (lambda metric, points, values: Envelope(points, values, metric), (_METRIC, rows, numbers)),
}


def fn_from_json(text: str) -> CPlusFn:
    return fn_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Named tolerance functions
# ---------------------------------------------------------------------------


def saddle_adversarial_epsilon() -> CPlusFn:
    """The tolerance 2^(-|x|_inf) that defeats the planar saddle.

    It decays doubly exponentially along the expanding axis orbit
    (value 2^(-2^n) at the n-th forward point), pinning any candidate
    shadowing point onto the forward seed.
    """
    return Exp2Neg(Norm(MetricKind.SUP))


def decaying_epsilon(rate: float) -> CPlusFn:
    """min(1, rate/(1 + |x|_inf)): strictly positive, vanishing at infinity."""
    if rate <= 0.0:
        raise ContractViolation("rate must be positive")
    return Min(Const(1.0), Mul(Const(rate), Recip(Add(Const(1.0), Norm(MetricKind.SUP)))))


_SHORTHANDS = {
    "saddle_adversarial": (saddle_adversarial_epsilon, ()),
    "const": _NODE_KINDS["const"],
    "decaying": (decaying_epsilon, (_POSITIVE,)),
    "table": (RadialTable, (rows,)),
}


# ---------------------------------------------------------------------------
# Diagonal neighborhoods and the infimal-convolution construction
# ---------------------------------------------------------------------------


def epsilon_from_neighborhood(rho: CPlusFn, grid, metric: MetricKind = MetricKind.SUP) -> Envelope:
    """Turn the ball-type diagonal neighborhood E[x] = open ball of radius
    rho(x) into a tolerance function.

    Returns the sampled infimal convolution
    ``eps(x) = min over grid points y of (rho(y) + d(x, y))``, the largest
    1-Lipschitz function dominated by rho on the grid.  For ball-type
    neighborhoods the distance from a center to its ball's complement equals
    the radius, so rho itself is the correct ingredient.

    Guarantees on the grid: eps <= rho pointwise, eps is 1-Lipschitz, and
    d(x, y) < eps(x) implies d(x, y) < rho(x) (the tolerance ball sits inside
    the neighborhood slice).
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ContractViolation("grid must be a nonempty (M, d) array")
    return Envelope(pts, np.atleast_1d(rho.eval(pts)), metric)


# ---------------------------------------------------------------------------
# Delta synthesis for homotheties
# ---------------------------------------------------------------------------


def delta_reference_levels(epsilon: CPlusFn, m: MapSpec, metric: MetricKind = MetricKind.SUP,
                           sphere_samples: int = 64):
    """(r0, ball_min): the tolerance at the origin and 0.9 times the sampled minimum over
    the ball of radius r0, the levels the synthesizer derives for the expanding homothety ``m``.

    The ball is sampled on rays s*u through the metric's unit directions, which trace its
    spheres only for a norm that scales; the polar-warped metric is refused."""
    dim = linear_scales(m).size
    if sphere_samples < 4:
        raise ContractViolation("need at least 4 sphere samples")
    if metric is MetricKind.POLAR_WARP:
        raise ContractViolation("slack synthesis needs a norm that scales, not the polar-warped metric")
    origin = np.zeros(dim)
    r0 = float(epsilon.eval(origin))
    dirs = sample_directions(metric, dim, sphere_samples)
    radii = np.linspace(0.0, r0, 33)
    ball = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    return r0, 0.9 * float(np.min(epsilon.eval(ball)))


# The radial table's last geometric knot, and the number of geometric knots.
_RHO_MAX = float(2 ** 16)
_RADIAL_POINTS = 512


def synthesize_delta_homothety(epsilon: CPlusFn, m: MapSpec, metric: MetricKind = MetricKind.SUP,
                               sphere_samples: int = 64) -> RadialTable:
    """Build a pseudo-orbit slack delta for the expanding homothety ``m``.

    With k the modulus of ``m``'s scales (read by ``maps.linear_scales``), r0 =
    epsilon(0) and b = 0.9 * (sampled min of epsilon over the closed ball of
    radius r0), the returned radial table is

        delta(x) = 0.5 * G(|x|) / (1 + |x|)

    where g(s) is the sampled-direction minimum at radius s of epsilon, b and,
    for s > r0, the escape bound s*(k-1)/(2k) (equal to s/4 at k = 2), and G
    is the running minimum of g along the radial grid, which has r0 as a knot.
    From r0 on, each knot's value is at most the escape bound as well, since
    the interpolant just outside r0 starts from the value at r0.  By
    construction delta is strictly positive and, at every verified point,

        delta < epsilon,   delta < b,   delta < |x|*(k-1)/(2k) outside the
        ball,   and delta is strictly decreasing in the norm.

    The 0.9 and 0.5 safety factors absorb the sampling of true minima; callers
    re-verify a posteriori with ``verify_delta_conditions``.  Beyond ``_RHO_MAX``
    the table continues by the harmonic tail rule, which preserves positivity
    and strict decrease at arbitrarily large radii.
    """
    k = abs(float(linear_scales(m)[0]))
    r0, ball_min = delta_reference_levels(epsilon, m, metric, sphere_samples)

    near = min(4.0 * r0, _RHO_MAX)
    # Geometric knots resolve small radii; the absolute-step band keeps the
    # linear interpolant below exponentially decaying tolerances out to the
    # radius where any such tolerance leaves double range (around 1e3).
    s_grid = np.unique(np.concatenate([
        np.linspace(0.0, near, 65),
        np.geomspace(max(near, 1e-12), _RHO_MAX, _RADIAL_POINTS),
        np.arange(near, min(_RHO_MAX, 2200.0), 4.0),
        [r0],
    ]))
    dirs = sample_directions(metric, m.dimension, sphere_samples)
    pts = (s_grid[:, None, None] * dirs[None, :, :]).reshape(-1, m.dimension)
    eps_on_rays = epsilon.eval(pts).reshape(len(s_grid), sphere_samples)
    g = np.minimum(np.min(eps_on_rays, axis=1), ball_min)
    outside = s_grid > r0
    escape_bound = s_grid * (k - 1.0) / (2.0 * k)
    g = np.where(outside, np.minimum(g, escape_bound), g)
    G = np.minimum.accumulate(g)
    with np.errstate(under="ignore"):
        values = 0.5 * G / (1.0 + s_grid)
    values = np.where(s_grid >= r0, np.minimum(values, escape_bound), values)

    # A tolerance that decays exponentially drives the profile below double
    # range long before _RHO_MAX.  Truncate at the last comfortably
    # representable knot and drop the continuation to the smallest subnormal
    # with a constant tail: admissible perturbations out there round to
    # exactly zero, which is also what the true (unrepresentably small)
    # profile would force.
    dead = values <= 1e-300
    if np.any(dead):
        cut = int(np.argmax(dead))
        if cut < 2:
            raise ContractViolation("tolerance collapses immediately; cannot synthesize")
        edge = s_grid[cut - 1] * (1.0 + 1e-9)
        pairs = np.column_stack([
            np.append(s_grid[:cut], edge),
            np.append(values[:cut], _TINY),
        ])
        return RadialTable(pairs, metric, tail="clamp")
    return RadialTable(np.column_stack([s_grid, values]), metric, tail="harmonic")


@dataclass
class DeltaConditionReport:
    """Outcome of re-verifying a synthesized delta at random points."""

    r0: float
    ball_min: float
    factor: float
    checked: int
    failures: dict[str, int]

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.failures.values())


def verify_delta_conditions(delta: CPlusFn, epsilon: CPlusFn, m: MapSpec,
                            metric: MetricKind = MetricKind.SUP, n_points: int = 100_000,
                            rng=None) -> DeltaConditionReport:
    """Check the four synthesis conditions for the expanding homothety ``m`` at
    independent random points.

    All comparisons are strict with zero tolerance; the safety factors baked
    into the synthesis provide the slack.  Points mix uniform radii inside
    the reference ball with log-uniform radii spanning the profile's radial
    reach (for a radial table, just inside its last knot; beyond it both the
    profile and a collapsing tolerance leave double range, where strict
    comparisons are meaningless).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    k = abs(float(linear_scales(m)[0]))
    r0, ball_min = delta_reference_levels(epsilon, m, metric, 256)
    r_hi = 0.999 * float(delta.radii[-1]) if isinstance(delta, RadialTable) else float(2 ** 18)

    n_inside = n_points // 2
    n_outside = n_points - n_inside
    radii_in = rng.uniform(0.0, r0, size=n_inside)
    radii_out = np.exp(rng.uniform(np.log(max(r0 * 1e-3, 1e-9)), np.log(r_hi), size=n_outside))
    radii = np.concatenate([radii_in, radii_out])
    u = rng.standard_normal((n_points, m.dimension))
    u /= np.maximum(metric_norm(metric, u), 1e-300)[:, None]
    pts = u * radii[:, None]

    d_vals = delta.eval(pts)
    e_vals = epsilon.eval(pts)
    norms = metric_norm(metric, pts)
    outside = norms > r0

    failures = {
        "below_epsilon": int(np.sum(~(d_vals < e_vals))),
        "below_ball_min": int(np.sum(~(d_vals < ball_min))),
        "escape_bound": int(np.sum(~(d_vals[outside] < norms[outside] * (k - 1.0) / (2.0 * k)))),
    }

    # Strict decrease in the norm: compare value pairs at distinct radii.
    order = np.argsort(norms, kind="stable")
    sorted_norms = norms[order]
    sorted_vals = d_vals[order]
    distinct = np.diff(sorted_norms) > 0.0
    failures["strictly_decreasing"] = int(np.sum(~(np.diff(sorted_vals)[distinct] < 0.0)))

    return DeltaConditionReport(r0, ball_min, k, n_points, failures)


def random_positive_fn(rng) -> CPlusFn:
    """A random member of C+: floor + amplitude * 2^(-b*|x|_inf).

    Strictly positive, bounded, strictly decreasing in the norm.  Used to
    exercise adversarial constructions against arbitrary slacks.
    """
    floor = float(rng.uniform(0.02, 0.3))
    amp = float(rng.uniform(0.1, 2.0))
    b = float(rng.uniform(0.2, 2.0))
    return Add(Const(floor), Mul(Const(amp), Exp2Neg(Mul(Const(b), Norm(MetricKind.SUP)))))
