"""Catalog of plane (and R^d) homeomorphisms with exact evaluation.

The workhorse is the diagonal-affine map ``f(y)_j = a_j * y_j + t_j`` with all
``a_j`` nonzero.  Its n-th iterate has the closed form

    f^n(y)_j = a_j^n * y_j + t_j * (a_j^n - 1)/(a_j - 1)      (a_j != 1)
    f^n(y)_j = y_j + n * t_j                                  (a_j == 1)

valid for negative n as well, which is what makes finite-window shadowing
feasibility exactly decidable for this class.  The catalog:

* ``saddle()``            (x, y) -> (2x, y/2), hyperbolic with one expanding
                          and one contracting axis;
* ``homothety(k, d)``     x -> k*x with |k| != 1;
* ``translation_map(d)``  x -> x + e_1, fixed-point free;
* ``reverse_homothety(c)`` the planar realization (x, y) -> (c*x, -c*y) of
                          the conjugate-linear contraction z -> c * conj(z).

Nonlinear changes of coordinates are modeled by ``Diffeo`` objects (affine
changes, radial rescalings r -> a*r + b*r^2, and compositions), and
``conjugate_map`` produces ``change o inner o change^{-1}``.  Conjugated maps
are evaluated exactly but are tagged non-diagonal: boxes are not preserved,
so only the sampled search oracle decides feasibility for them.  An affine
conjugate of a diagonal-affine map gives the affine coefficients of its
iterates (``affine_coefficients``), whose slabs bound that oracle's scan.

Every map has the closed-form ``iterate(p, n)`` and ``orbit(p, ns)``; a
conjugated map iterates through its inner map's closed form,
``change(inner^n(change^{-1}(p)))``, and never steps, in the grid oracle
too, which chooses only the order of its indices by map (README,
"Numerical policy").  Changes of coordinates compute each point alone, so a
point's image has the same bits in a call of any size, and its
``difference(p, t)`` is change(p + t) - change(p) without subtracting two images.

``power_map`` normalizes eagerly: powers of diagonal-affine maps are again
diagonal-affine (exactness is preserved), and powers commute with conjugacy.
"""

from __future__ import annotations

import numpy as np

from .errors import (REQUIRED, ContractViolation, DimensionMismatch, IterationRangeError, UnsupportedMapError,
                     number, numbers, read_kind, rows)
from .geometry import as_point, euclidean_norm, radial_rescale

__all__ = [
    "MapSpec",
    "DiagonalAffine",
    "Conjugated",
    "Diffeo",
    "IdentityChange",
    "AffineChange",
    "RadialRescale",
    "ComposedChange",
    "saddle",
    "homothety",
    "translation_map",
    "reverse_homothety",
    "conjugate_map",
    "power_map",
    "is_diagonal_affine",
    "linear_scales",
    "affine_fixed_point",
    "map_to_dict",
    "map_from_dict",
    "diffeo_to_dict",
    "diffeo_from_dict",
]


# ---------------------------------------------------------------------------
# Changes of coordinates
# ---------------------------------------------------------------------------


class Diffeo:
    """A closed-form homeomorphism of R^d with a closed-form inverse."""

    dimension: int | None  # None = any dimension

    def apply(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_inverse(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def difference(self, p: np.ndarray, t: np.ndarray) -> np.ndarray:
        """apply(p + t) - apply(p), computed without subtracting two images."""
        raise NotImplementedError


class IdentityChange(Diffeo):
    dimension = None

    def apply(self, p):
        return np.asarray(p, dtype=float)

    def apply_inverse(self, p):
        return np.asarray(p, dtype=float)

    def difference(self, p, t):
        return np.asarray(t, dtype=float)


class AffineChange(Diffeo):
    """p -> M p + b with an invertible matrix M."""

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ContractViolation("affine change needs a square matrix")
        if self.offset.shape != (self.matrix.shape[0],):
            raise DimensionMismatch("offset does not match the matrix")
        det = np.linalg.det(self.matrix)
        if det == 0.0 or not np.isfinite(det):
            raise ContractViolation("affine change must be invertible")
        self._inverse = np.linalg.inv(self.matrix)
        self.dimension = self.matrix.shape[0]

    def apply(self, p):
        return _linear(np.asarray(p, dtype=float), self.matrix, after=self.offset)

    def apply_inverse(self, p):
        return _linear(np.asarray(p, dtype=float), self._inverse, before=self.offset)

    def difference(self, p, t):
        return _linear(np.asarray(t, dtype=float), self.matrix)


def _linear(p: np.ndarray, matrix: np.ndarray, before=None, after=None) -> np.ndarray:
    """``(p - before) @ matrix.T + after`` by elementwise products and sums, so each
    point's image has the same bits in a call of any size; a BLAS product rounds a
    point differently depending on how many points share the call.  The offsets are
    taken one coordinate column at a time, with the bits of the broadcast ``p - before``
    and ``+ after``."""
    if p.shape[-1] != matrix.shape[1]:
        raise DimensionMismatch(f"change of dimension {matrix.shape[1]}, point of dimension {p.shape[-1]}")
    cols = [p[..., j] if before is None else p[..., j] - before[j] for j in range(p.shape[-1])]
    out = np.empty(p.shape)
    for i, row in enumerate(matrix):
        acc = cols[0] * row[0]
        for j in range(1, len(row)):
            acc += cols[j] * row[j]
        if after is not None:
            acc += after[i]
        out[..., i] = acc
    return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j u_j v_j along the last axis, coordinate by coordinate as in ``_linear``."""
    return sum(u[..., j] * v[..., j] for j in range(u.shape[-1]))


class RadialRescale(Diffeo):
    """p -> h(|p|_2) p / |p|_2 with h(r) = a*r + b*r^2, a > 0, b >= 0.

    Strictly increasing in the radius, so invertible; the inverse radius is
    the positive root of b*s^2 + a*s = r.
    """

    dimension = None

    def __init__(self, a: float = 1.0, b: float = 1.0):
        if a <= 0.0 or b < 0.0:
            raise ContractViolation("radial rescale needs a > 0 and b >= 0")
        self.a = float(a)
        self.b = float(b)

    def apply(self, p):
        return radial_rescale(p, self.a, self.b)

    def apply_inverse(self, p):
        p = np.asarray(p, dtype=float)
        r = euclidean_norm(p)
        # s/r = 2/(a + sqrt(a^2 + 4br)): the root without the cancellation of
        # (sqrt(a^2 + 4br) - a)/(2b) when 4br is small next to a^2.
        return p * (2.0 / (self.a + np.sqrt(self.a * self.a + 4.0 * self.b * r)))[..., None]

    def difference(self, p, t):
        # h(p+t) - h(p) = a t + b (|p+t| t + (|p+t| - |p|) p), with
        # |p+t| - |p| = (2 p.t + |t|^2) / (|p+t| + |p|), which is 0 where both norms are.
        p, t = np.asarray(p, dtype=float), np.asarray(t, dtype=float)
        r, s = euclidean_norm(p), euclidean_norm(p + t)
        growth = (2.0 * _dot(p, t) + _dot(t, t)) / np.where(s + r > 0.0, s + r, 1.0)
        return self.a * t + self.b * (s[..., None] * t + growth[..., None] * p)


class ComposedChange(Diffeo):
    """outer o inner."""

    def __init__(self, outer: Diffeo, inner: Diffeo):
        self.outer = outer
        self.inner = inner
        dims = {d.dimension for d in (outer, inner) if d.dimension is not None}
        if len(dims) > 1:
            raise DimensionMismatch("composed changes disagree on dimension")
        self.dimension = dims.pop() if dims else None

    def apply(self, p):
        return self.outer.apply(self.inner.apply(p))

    def apply_inverse(self, p):
        return self.inner.apply_inverse(self.outer.apply_inverse(p))

    def difference(self, p, t):
        return self.outer.difference(self.inner.apply(p), self.inner.difference(p, t))


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


class MapSpec:
    """Base class: a homeomorphism with forward and inverse evaluation."""

    dimension: int

    def apply(self, p) -> np.ndarray:
        raise NotImplementedError

    def apply_inverse(self, p) -> np.ndarray:
        raise NotImplementedError

    def iterate(self, p, n: int) -> np.ndarray:
        """f^n(p) in closed form, f^0 = id; negative n goes through the inverse."""
        raise NotImplementedError

    def orbit(self, p, ns) -> np.ndarray:
        """f^n(p) for every n in the integer array ``ns``, shape (len(ns), d);
        row i has the bits of ``iterate(p, ns[i])``."""
        raise NotImplementedError

    def _check_dim(self, p: np.ndarray) -> None:
        if p.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"map of dimension {self.dimension}, point of dimension {p.shape[-1]}"
            )


class DiagonalAffine(MapSpec):
    def __init__(self, scales, translation=None):
        self.scales = np.atleast_1d(np.asarray(scales, dtype=float))
        if translation is None:
            translation = np.zeros_like(self.scales)
        self.translation = np.atleast_1d(np.asarray(translation, dtype=float))
        if self.scales.shape != self.translation.shape or self.scales.ndim != 1:
            raise DimensionMismatch("scales and translation must be equal-length vectors")
        if np.any(self.scales == 0.0):
            raise ContractViolation("zero scale is not invertible")
        self.dimension = self.scales.size

    def __repr__(self):
        return f"DiagonalAffine(scales={self.scales.tolist()}, translation={self.translation.tolist()})"

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        return _scale_shift(p, self.scales, self.translation)

    def apply_inverse(self, p):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        return _scale_shift(p, self.scales, self.translation, inverse=True)

    def power_coefficients(self, n) -> tuple[np.ndarray, np.ndarray]:
        """(a^n, drift(n)) for one index or an integer array of indices.

        drift_j(n) = t_j*(a_j^n - 1)/(a_j - 1), or n*t_j when a_j == 1.
        Raises IterationRangeError if a_j^n leaves double range.  Unlike
        ``power``, ``float_power`` gives a_j^n the same bits in a call of any size.
        """
        ns = np.atleast_1d(np.asarray(n, dtype=float))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pow_ = np.float_power(self.scales[None, :], ns[:, None])
        if not np.all(np.isfinite(pow_)):
            bad = int(ns[np.argwhere(~np.all(np.isfinite(pow_), axis=1))[0][0]])
            raise IterationRangeError(bad, f"scale power left double range")
        unit = self.scales == 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            geom = (pow_ - 1.0) / np.where(unit, 1.0, self.scales - 1.0)[None, :]
        drift = np.where(unit[None, :], ns[:, None], geom) * self.translation[None, :]
        if np.isscalar(n) or np.asarray(n).ndim == 0:
            return pow_[0], drift[0]
        return pow_, drift

    def iterate(self, p, n):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        pow_, drift = self.power_coefficients(int(n))
        return _scale_shift(p, pow_, drift)

    def orbit(self, p, ns) -> np.ndarray:
        p = as_point(p)
        self._check_dim(p)
        pow_, drift = self.power_coefficients(np.asarray(ns))
        return _scale_shift(p, pow_, drift)


def _scale_shift(p: np.ndarray, scale: np.ndarray, shift: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``p * scale + shift``, or ``(p - shift) / scale`` when ``inverse``, with the
    coefficients broadcast against ``p``, one coordinate column at a time.  Each element
    gets the broadcast's two rounded operations, so the bits are its bits; the broadcast
    over the short trailing axis is several times slower on large batches."""
    out = np.empty(np.broadcast(p, scale).shape)
    for j in range(out.shape[-1]):
        col = out[..., j]
        if inverse:
            np.subtract(p[..., j], shift[..., j], out=col)
            np.divide(col, scale[..., j], out=col)
        else:
            np.multiply(p[..., j], scale[..., j], out=col)
            np.add(col, shift[..., j], out=col)
    return out


class Conjugated(MapSpec):
    """change o inner o change^{-1}; exact but not box-preserving."""

    def __init__(self, inner: MapSpec, change: Diffeo):
        if change.dimension is not None and change.dimension != inner.dimension:
            raise DimensionMismatch("conjugacy dimension does not match the map")
        self.inner = inner
        self.change = change
        self.dimension = inner.dimension

    def __repr__(self):
        return f"Conjugated({self.inner!r})"

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        return self.change.apply(self.inner.apply(self.change.apply_inverse(p)))

    def apply_inverse(self, p):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        return self.change.apply(self.inner.apply_inverse(self.change.apply_inverse(p)))

    def iterate(self, p, n):
        p = np.asarray(p, dtype=float)
        self._check_dim(p)
        inside = self.change.apply_inverse(p)
        return self.change.apply(self.inner.iterate(inside, n))

    def orbit(self, p, ns):
        p = as_point(p)
        self._check_dim(p)
        return self.change.apply(self.inner.orbit(self.change.apply_inverse(p), ns))

    def affine_coefficients(self, ns, reach) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, c, size) for an affine change p -> M p + b around a diagonal-affine inner.

        For n = ns[i], g^n(p) = A[i] p + c[i] in exact arithmetic on the floats that
        ``iterate`` rounds: A = M diag(a^n) N and c = M drift(n) + b - A b, with N the
        inverse matrix the change applies.  ``size[i]`` is ``iterate``'s own evaluation on
        absolute values at |p| = ``reach``, differences taken as sums; rounding is monotone,
        so it bounds every intermediate |value| of ``iterate(p, n)`` at points with
        |p_j| <= reach_j.  Raises IterationRangeError where ``power_coefficients`` does,
        and UnsupportedMapError for any other conjugate.
        """
        if not (isinstance(self.inner, DiagonalAffine) and isinstance(self.change, AffineChange)):
            raise UnsupportedMapError(f"{self!r} is not an affine conjugate of a diagonal-affine map")
        pow_, drift = self.inner.power_coefficients(np.asarray(ns))
        matrix, inverse, offset = self.change.matrix, self.change._inverse, self.change.offset
        a = np.einsum("rj,kj,jl->krl", matrix, pow_, inverse)
        c = drift @ matrix.T + offset - a @ offset
        size = _linear(np.asarray(reach, dtype=float), np.abs(inverse), before=-np.abs(offset))
        size = _linear(_scale_shift(size, np.abs(pow_), np.abs(drift)), np.abs(matrix), after=np.abs(offset))
        return a, c, size


# ---------------------------------------------------------------------------
# Catalog and constructors
# ---------------------------------------------------------------------------


def saddle() -> DiagonalAffine:
    """(x, y) -> (2x, y/2)."""
    return DiagonalAffine([2.0, 0.5])


def homothety(factor: float, dimension: int = 2) -> DiagonalAffine:
    """x -> factor * x with |factor| not 0 or 1."""
    if factor == 0.0 or abs(factor) == 1.0:
        raise ContractViolation("homothety factor must have |k| != 0, 1")
    return DiagonalAffine([float(factor)] * dimension)

def translation_map(dimension: int = 2) -> DiagonalAffine:
    """x -> x + e_1."""
    t = np.zeros(dimension)
    t[0] = 1.0
    return DiagonalAffine(np.ones(dimension), t)


def reverse_homothety(factor: float = 0.5) -> DiagonalAffine:
    """Planar (x, y) -> (c*x, -c*y), i.e. z -> c * conj(z) in coordinates.

    Realized as the linear map diag(c, -c) so it rides the exact
    diagonal-affine feasibility path.
    """
    if factor == 0.0 or abs(factor) == 1.0:
        raise ContractViolation("reverse homothety factor must have |c| != 0, 1")
    return DiagonalAffine([float(factor), -float(factor)])


def conjugate_map(inner: MapSpec, change: Diffeo) -> MapSpec:
    """g with g(p) = change(inner(change^{-1}(p)))."""
    if isinstance(change, IdentityChange):
        return inner
    return Conjugated(inner, change)


def power_map(inner: MapSpec, k: int) -> MapSpec:
    """The k-th iterate as a map; k must be a nonzero integer.

    Diagonal-affine inners are normalized eagerly (scales raised to k and the
    drift folded into the translation) so exactness survives.  Conjugated
    inners commute with powering.
    """
    k = int(k)
    if k == 0:
        raise ContractViolation("power k must be nonzero")
    if isinstance(inner, DiagonalAffine):
        pow_, drift = inner.power_coefficients(k)
        return DiagonalAffine(pow_, drift)
    if isinstance(inner, Conjugated):
        return Conjugated(power_map(inner.inner, k), inner.change)
    raise ContractViolation(f"cannot take powers of {type(inner).__name__}")


def is_diagonal_affine(m: MapSpec) -> bool:
    return isinstance(m, DiagonalAffine)


def linear_scales(m: MapSpec) -> np.ndarray:
    """The scales of an expanding homothety x -> diag(scales) x, whose scales share one
    modulus k = |scales_j| > 1 (so diag(k, -k) qualifies).  The one source of k and d
    for the slack synthesis, the shadow series and the classifier; any other map
    raises ContractViolation."""
    if not isinstance(m, DiagonalAffine) or np.any(m.translation):
        raise ContractViolation(f"a homothety must be a diagonal linear map, got {m!r}")
    moduli = np.abs(m.scales)
    # np.allclose(moduli, moduli[0]) for finite scales, without its overhead on every orbit.
    if not np.all(np.abs(moduli - moduli[0]) <= 1e-8 + 1e-5 * moduli[0]):
        raise ContractViolation(f"a homothety's scales must share one modulus, got {m.scales.tolist()}")
    if moduli[0] <= 1.0:
        raise ContractViolation(f"a homothety must expand, |k| > 1, got k = {float(moduli[0])!r}")
    return m.scales


def affine_fixed_point(m: DiagonalAffine) -> np.ndarray | None:
    """The fixed point of a diagonal-affine map, or None when there is none.

    Solves a_j y + t_j = y per coordinate.  A coordinate with a_j = 1 and
    t_j != 0 has no solution, so the map has no fixed point; one with a_j = 1
    and t_j = 0 has a whole line of them, which raises.  The result never
    carries a negative zero.
    """
    unit = m.scales == 1.0
    if np.any(unit & (m.translation != 0.0)):
        return None
    if np.any(unit):
        raise ContractViolation("fixed points of a unit scale are not unique")
    return m.translation / (1.0 - m.scales) + 0.0


# ---------------------------------------------------------------------------
# Serialization (scenario configs describe maps by kind + parameters)
# ---------------------------------------------------------------------------


def diffeo_to_dict(change: Diffeo) -> dict:
    if isinstance(change, IdentityChange):
        return {"kind": "identity"}
    if isinstance(change, AffineChange):
        return {
            "kind": "affine",
            "matrix": change.matrix.tolist(),
            "offset": change.offset.tolist(),
        }
    if isinstance(change, RadialRescale):
        return {"kind": "radial", "a": change.a, "b": change.b}
    if isinstance(change, ComposedChange):
        return {
            "kind": "composed",
            "outer": diffeo_to_dict(change.outer),
            "inner": diffeo_to_dict(change.inner),
        }
    raise ContractViolation(f"cannot serialize {type(change).__name__}")


def diffeo_from_dict(obj: dict) -> Diffeo:
    """Rebuild a change of coordinates; a malformed ``obj`` raises ContractViolation located
    at the offending field, as in ``.inner.a``."""
    return read_kind(obj, _DIFFEO_KINDS)


_DIFFEO = (lambda v, f: diffeo_from_dict(v), REQUIRED)
_DIFFEO_KINDS = {
    "identity": (IdentityChange, {}),
    "affine": (AffineChange, {"matrix": (rows, REQUIRED), "offset": (numbers, REQUIRED)}),
    "radial": (RadialRescale, {"a": (number(), 1.0), "b": (number(), 1.0)}),
    "composed": (ComposedChange, {"outer": _DIFFEO, "inner": _DIFFEO}),
}


def map_to_dict(m: MapSpec) -> dict:
    if isinstance(m, DiagonalAffine):
        return {
            "kind": "diagonal_affine",
            "scales": m.scales.tolist(),
            "translation": m.translation.tolist(),
        }
    if isinstance(m, Conjugated):
        return {
            "kind": "conjugated",
            "inner": map_to_dict(m.inner),
            "change": diffeo_to_dict(m.change),
        }
    raise ContractViolation(f"cannot serialize {type(m).__name__}")


def map_from_dict(obj: dict) -> MapSpec:
    """Rebuild a map from its kind + parameters; a malformed ``obj`` raises ContractViolation
    located at the offending field, as in ``.inner.factor``."""
    return read_kind(obj, _MAP_KINDS)


_DIMENSION = (number(1, integer=True), 2)
_MAP = (lambda v, f: map_from_dict(v), REQUIRED)
_MAP_KINDS = {
    "diagonal_affine": (DiagonalAffine, {"scales": (numbers, REQUIRED), "translation": (numbers, None)}),
    "saddle": (saddle, {}),
    "homothety": (homothety, {"factor": (number(), 2.0), "dimension": _DIMENSION}),
    "translation": (translation_map, {"dimension": _DIMENSION}),
    "reverse_homothety": (reverse_homothety, {"factor": (number(), 0.5)}),
    "conjugated": (Conjugated, {"inner": _MAP, "change": _DIFFEO}),
    "power": (power_map, {"inner": _MAP, "k": (number(integer=True), REQUIRED)}),
}
