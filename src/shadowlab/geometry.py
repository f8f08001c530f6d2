"""Points, norms, and metrics on R^d.

Three metrics are available:

* ``SUP``: the max norm ``|x|_inf = max_j |x_j|``, the default everywhere
  because sup-norm balls are axis-aligned boxes, which keeps the exact
  feasibility machinery exact.
* ``EUCLIDEAN``: the usual 2-norm.
* ``POLAR_WARP``: a planar metric obtained by radially remapping each point
  through ``H(p) = (1 + |p|_2) * p`` (equivalently ``r -> r + r^2`` in polar
  coordinates, angles untouched) and taking the Euclidean distance between the
  images.  ``H`` fixes the origin and is a homeomorphism of the plane, so the
  warped metric induces the standard topology while inflating distances far
  from the origin.

All functions are vectorized over a trailing coordinate axis: a "point" is a
float array of shape ``(d,)`` and batches are ``(..., d)``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ContractViolation, DimensionMismatch

__all__ = [
    "MetricKind",
    "as_point",
    "sup_norm",
    "euclidean_norm",
    "euclidean_norm_of_columns",
    "radial_rescale",
    "metric_norm",
    "distance",
    "sample_directions",
    "uniform_ball",
]


class MetricKind(Enum):
    SUP = "sup"
    EUCLIDEAN = "euclidean"
    POLAR_WARP = "polar_warp"


def as_point(coords) -> np.ndarray:
    """Validate and return a 1-D float coordinate vector.

    Requires d >= 1 and finite entries (no NaN or infinity).
    """
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ContractViolation(f"a point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ContractViolation(f"point has non-finite coordinates: {p!r}")
    return p


def sup_norm(p) -> np.ndarray:
    """Max of absolute coordinates, along the last axis.

    Folded column by column with ``np.maximum``: a reduction over a short
    trailing axis is several times slower, and max is exact, so the bits are
    those of ``np.max(np.abs(p), axis=-1)``.
    """
    p = np.asarray(p, dtype=float)
    return _max_abs(lambda j: p[..., j], p.shape[-1])


def _max_abs(column, d: int) -> np.ndarray:
    """max_j |column(j)| over j < d, a running ``np.maximum`` over coordinate columns."""
    out = np.asarray(np.abs(column(0)))  # a single point's column is a scalar: np.maximum needs an array out
    for j in range(1, d):
        np.maximum(out, np.abs(column(j)), out=out)
    return out[()]


def _squares_summed(cols) -> np.ndarray:
    """sum_j cols[j]^2, added left to right one coordinate column at a time.

    For d <= 7 this is also the order of NumPy's own 2-norm, whose pairwise sum is a
    sequential loop below 8 terms, so the sum has its bits, without the cost of a
    reduction over a short trailing axis."""
    out = cols[0] * cols[0]
    for c in cols[1:]:
        out += c * c
    return out


def euclidean_norm(p) -> np.ndarray:
    """The 2-norm along the last axis: ``euclidean_norm_of_columns`` of p's coordinate columns."""
    p = np.asarray(p, dtype=float)
    return euclidean_norm_of_columns([p[..., j] for j in range(p.shape[-1])])


def euclidean_norm_of_columns(cols) -> np.ndarray:
    """The 2-norm of the vectors whose j-th coordinates are ``cols[j]``, arrays of one shape:
    the square root of the squares summed left to right, except on vectors whose norm is
    below 1e-150, where the squares lose bits or underflow, or whose squares overflow; those
    are first divided by their largest |coordinate|, so the norm of (1e-200, 0) is 1e-200,
    not 0, and that of (1e200, 0) is 1e200, not inf."""
    with np.errstate(over="ignore"):
        out = np.asarray(_squares_summed(cols))
        np.sqrt(out, out=out)
        # Flat indices: a boolean mask copies a 1M-row block slowly.
        rescaled = np.flatnonzero((out < 1e-150) | (out == np.inf))
        if rescaled.size:
            picked = [np.reshape(c, -1)[rescaled] for c in cols]  # the columns of those vectors
            largest = _max_abs(picked.__getitem__, len(picked))
            # A zero vector stays 0, and one with an infinite coordinate stays inf.
            scale = np.clip(largest, np.finfo(float).smallest_subnormal, np.finfo(float).max)
            out.reshape(-1)[rescaled] = scale * np.sqrt(_squares_summed([c / scale for c in picked]))
    return out[()]


def radial_rescale(p, a: float = 1.0, b: float = 1.0) -> np.ndarray:
    """Map ``p -> h(|p|_2) * p/|p|_2`` with ``h(r) = a*r + b*r^2``.

    The origin maps to the origin (h(0)=0 forces it).  For a>0, b>=0 the map
    is a homeomorphism of the plane; b=0 reduces to scalar multiplication.
    """
    p = np.asarray(p, dtype=float)
    # h(r)/r = a + b*r is finite at r=0, so no division is needed.
    factor = a + b * euclidean_norm(p)
    out = np.empty(p.shape)
    for j in range(p.shape[-1]):  # p * factor[..., None], one coordinate column at a time
        np.multiply(p[..., j], factor, out=out[..., j])
    return out


def _check_same_dimension(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape[-1] != q.shape[-1]:
        raise DimensionMismatch(
            f"points of dimension {p.shape[-1]} and {q.shape[-1]}"
        )


def metric_norm(metric: MetricKind, p) -> np.ndarray:
    """Distance from ``p`` to the origin in the given metric."""
    p = np.asarray(p, dtype=float)
    if metric is MetricKind.SUP:
        return sup_norm(p)
    if metric is MetricKind.EUCLIDEAN:
        return euclidean_norm(p)
    if metric is MetricKind.POLAR_WARP:
        if p.shape[-1] != 2:
            raise ContractViolation("the polar-warped metric is planar only (d=2)")
        r = euclidean_norm(p)
        with np.errstate(over="ignore"):  # a radius past about 1.3e154 has norm inf
            return r + r * r
    raise ContractViolation(f"unknown metric {metric!r}")


def distance(metric: MetricKind, p, q) -> np.ndarray:
    """Metric distance between ``p`` and ``q`` (broadcasting over batches)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_same_dimension(p, q)
    if metric is MetricKind.SUP:
        # The fold of ``sup_norm`` on the columns p_j - q_j: no ``(..., d)`` difference
        # is built, and the leading axes broadcast as in ``p - q``.
        return _max_abs(lambda j: p[..., j] - q[..., j], p.shape[-1])
    if metric is MetricKind.EUCLIDEAN:  # the tiny-row rescale must see the difference rows
        return euclidean_norm(p - q)
    if metric is MetricKind.POLAR_WARP:
        if p.shape[-1] != 2:
            raise ContractViolation("the polar-warped metric is planar only (d=2)")
        # Images past double range are inf, and their differences inf or NaN: the caller decides.
        with np.errstate(over="ignore", invalid="ignore"):
            return euclidean_norm(radial_rescale(p) - radial_rescale(q))
    raise ContractViolation(f"unknown metric {metric!r}")


def sample_directions(metric: MetricKind, dim: int, count: int) -> np.ndarray:
    """Unit vectors of the metric's norm, shape ``(count, dim)``.

    In the plane the directions are evenly spaced angles, which makes radial
    constructions deterministic.  Otherwise Gaussian directions are drawn
    from a fixed seed and normalized.  The polar-warped metric is no norm and
    is refused.
    """
    if metric is MetricKind.POLAR_WARP:
        raise ContractViolation("unit directions need a norm, not the polar-warped metric")
    if count < 1:
        raise ContractViolation("need at least one direction")
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        u = np.random.default_rng(0).standard_normal((count, dim))
        bad = euclidean_norm(u) == 0.0
        u[bad] = 1.0
    return u / metric_norm(metric, u)[:, None]


def uniform_ball(metric: MetricKind, dim: int, rng, size: int) -> np.ndarray:
    """Uniform samples from the unit ball of the metric, shape ``(size, dim)``."""
    if metric is MetricKind.SUP:
        return rng.uniform(-1.0, 1.0, size=(size, dim))
    if metric is MetricKind.EUCLIDEAN:
        u = rng.standard_normal((size, dim))
        norms = euclidean_norm(u)
        norms[norms == 0.0] = 1.0
        radii = rng.uniform(0.0, 1.0, size=size) ** (1.0 / dim)
        return u * (radii / norms)[:, None]
    raise ContractViolation(f"uniform sampling not defined for metric {metric!r}")
