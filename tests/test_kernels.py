"""The column-fold kernels against the NumPy expressions they replace, bit for bit.

Each kernel takes the coordinates one column at a time instead of broadcasting over
the trailing axis.  The references below are the plain broadcasts and reductions it
replaces; the affine change's reference keeps ``_linear`` without offsets, the column
loop it already had.
"""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowlab
from shadowlab.geometry import MetricKind, distance, euclidean_norm, radial_rescale
from shadowlab.maps import AffineChange, DiagonalAffine, _linear

# Signed zeros, subnormals and a tiny normal next to ordinary and large magnitudes.
_CELLS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, 1e-200, 1.0, -2.5]) | st.floats(
    -1e30, 1e30, allow_nan=False, allow_infinity=False)
_FORMS = ("point-point", "stack-point", "point-stack", "stack-stack", "deep-point", "deep-deep", "pairwise")


def _array(draw, shape) -> np.ndarray:
    cells = draw(st.lists(_CELLS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(cells, dtype=float).reshape(shape)


@st.composite
def _operands(draw, dims=st.integers(1, 7)):
    """(p, q): p of shape (d,), (N, d) or (N, L, d), and q a point, a stack of p's
    shape, or the pairwise (T, 1, d) / (1, T, d) broadcast of one stack."""
    d, n, length = draw(dims), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    form = draw(st.sampled_from(_FORMS))
    if form == "pairwise":
        x = _array(draw, (n, d))
        return x[:, None, :], x[None, :, :]
    shapes = {"point": (d,), "stack": (n, d), "deep": (n, length, d)}
    p_form, q_form = form.split("-")
    return _array(draw, shapes[p_form]), _array(draw, shapes[q_form])


def _reference_norm(p: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` over the last axis, with rows below 1e-150 divided by their
    largest |coordinate| first, as ``euclidean_norm`` documents."""
    norm = np.linalg.norm(p, axis=-1)
    scale = np.maximum(np.max(np.abs(p), axis=-1), np.finfo(float).smallest_subnormal)
    return np.where(norm < 1e-150, scale * np.linalg.norm(p / scale[..., None], axis=-1), norm)[()]


def _reference_rescale(p: np.ndarray, a: float = 1.0, b: float = 1.0) -> np.ndarray:
    return p * (a + b * _reference_norm(p))[..., None]


def _assert_same(got, want) -> None:
    """Same bits, same shape, and np.float64 (not a 0-d array) for a single point."""
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_operands())
def test_sup_distance_is_the_max_of_the_broadcast_difference(operands):
    p, q = operands
    _assert_same(distance(MetricKind.SUP, p, q), np.max(np.abs(p - q), axis=-1))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_operands())
def test_euclidean_norm_and_distance_match_linalg_norm(operands):
    p, q = operands
    _assert_same(euclidean_norm(p), _reference_norm(p))
    _assert_same(distance(MetricKind.EUCLIDEAN, p, q), _reference_norm(p - q))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands(dims=st.just(2)), st.sampled_from([1.0, 0.5, 3.0]), st.sampled_from([0.0, 1.0, 0.25]))
def test_radial_rescale_and_warped_distance_match_the_broadcast(operands, a, b):
    p, q = operands
    _assert_same(radial_rescale(p, a, b), _reference_rescale(p, a, b))
    _assert_same(distance(MetricKind.POLAR_WARP, p, q), _reference_norm(_reference_rescale(p) - _reference_rescale(q)))


_SCALES = st.sampled_from([2.0, 0.5, 1.0, -1.0, -3.0]) | st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 0.1)
_SHIFTS = st.sampled_from([0.0, -0.0, 1.0, 5e-324]) | st.floats(-10.0, 10.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands(), st.data(), st.integers(-6, 6))
def test_diagonal_affine_kernels_match_the_broadcast(operands, data, n):
    p, q = operands
    d = p.shape[-1]
    m = DiagonalAffine(data.draw(st.lists(_SCALES, min_size=d, max_size=d)),
                       data.draw(st.lists(_SHIFTS, min_size=d, max_size=d)))
    s, t = m.scales, m.translation
    _assert_same(m.apply(p), p * s + t)
    _assert_same(m.apply_inverse(p), (p - t) / s)
    pow_, drift = m.power_coefficients(n)
    _assert_same(m.iterate(p, n), p * pow_ + drift)
    point, ns = q.reshape(-1, d)[0], np.arange(-3, 4)
    pows, drifts = m.power_coefficients(ns)
    _assert_same(m.orbit(point, ns), point[None, :] * pows + drifts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands(), st.data())
def test_affine_change_kernels_match_the_broadcast(operands, data):
    p, _ = operands
    d = p.shape[-1]
    matrix = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))).reshape(d, d)
    assume(abs(np.linalg.det(matrix)) > 1e-3)
    change = AffineChange(matrix, data.draw(st.lists(_SHIFTS, min_size=d, max_size=d)))
    _assert_same(change.apply(p), _linear(p, change.matrix) + change.offset)
    _assert_same(change.apply_inverse(p), _linear(p - change.offset, np.linalg.inv(matrix)))


def test_no_module_calls_linalg_norm():
    # geometry.euclidean_norm is the package's one 2-norm: a direct np.linalg.norm
    # skips its tiny-row rescale and sums d >= 8 coordinates in another order.
    found = []
    for path in sorted(Path(shadowlab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            direct = isinstance(node, ast.Attribute) and ast.unparse(node).endswith("linalg.norm")
            imported = (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                        and any(alias.name == "norm" for alias in node.names))
            if direct or imported:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
