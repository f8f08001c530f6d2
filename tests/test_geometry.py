import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.errors import ContractViolation, DimensionMismatch
from shadowlab.geometry import (
    MetricKind,
    as_point,
    distance,
    euclidean_norm,
    metric_norm,
    radial_rescale,
    sample_directions,
    sup_norm,
    uniform_ball,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def planar(x, y):
    return np.array([x, y], dtype=float)


def test_sup_norm_examples():
    assert sup_norm(planar(0, 0)) == 0.0
    assert sup_norm(planar(2, -5)) == 5.0
    assert sup_norm(np.array([1.0, 1.0, -7.0])) == 7.0


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e300, -1.0])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3), st.integers(1, 4), st.data())
def test_sup_norm_fold_equals_the_axis_reduction(leading, d, data):
    shape = (*leading, d)
    cells = data.draw(st.lists(_EDGE_FLOATS | st.floats(), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
    p = np.array(cells, dtype=float).reshape(shape)
    got = sup_norm(p)
    expected = np.max(np.abs(p), axis=-1)
    assert type(got) is type(expected) and np.shape(got) == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


def test_distance_examples():
    assert distance(MetricKind.SUP, planar(3, -1), planar(0, 0)) == 3.0
    # Warp value h(1) = 1 + 1^2 = 2 at unit radius.
    assert distance(MetricKind.POLAR_WARP, planar(1, 0), planar(0, 0)) == 2.0


def test_euclidean_norm_keeps_tiny_vectors(rng):
    # Squared, these coordinates underflow: np.linalg.norm gives 0.0 and 1.41420569e-160.
    assert euclidean_norm(planar(1e-200, 0)) == 1e-200
    tiny = np.array([[1e-160, 1e-160], [3e-200, -4e-200], [0.0, 0.0], [-1e-300, 0.0]])
    expected = [math.hypot(*row) for row in tiny]
    assert np.allclose(euclidean_norm(tiny), expected, rtol=4e-16, atol=0.0)
    assert euclidean_norm(tiny)[2] == 0.0 and type(euclidean_norm(tiny[0])) is np.float64
    # In the normal range it is np.linalg.norm bit for bit, for every d up to 7.
    for d in range(1, 8):
        normal = rng.standard_normal((3, 500, d)) * 10.0 ** rng.uniform(-140.0, 140.0, (3, 500, 1))
        assert np.array_equal(euclidean_norm(normal), np.linalg.norm(normal, axis=-1))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.data())
def test_euclidean_norm_keeps_its_bits_and_fits_huge_vectors(d, data):
    # Squared, (1e200, 0) and (3e154, 4e154) overflow: np.linalg.norm gives inf for both.
    assert euclidean_norm(planar(1e200, 0)) == 1e200 and euclidean_norm(planar(3e154, 4e154)) == 5e154
    rows = np.array(data.draw(st.lists(st.lists(_EDGE_FLOATS | st.floats(), min_size=d, max_size=d),
                                       min_size=1, max_size=6)), dtype=float)
    got = euclidean_norm(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = np.linalg.norm(rows, axis=-1)
    finite = np.all(np.isfinite(rows), axis=-1)
    # Where the plain norm is finite and not tiny, and on rows with an infinite or NaN
    # coordinate, the bits are np.linalg.norm's.
    same = (np.isfinite(plain) & (plain >= 1e-150)) | ~finite
    assert np.array_equal(got[same], plain[same], equal_nan=True)
    # A finite row whose squares overflow gets its norm, or inf only when that norm overflows.
    for row, norm in zip(rows[finite], got[finite]):
        exact = math.hypot(*row)
        assert norm == exact if math.isinf(exact) else abs(norm - exact) <= 4e-16 * d * exact


def test_polar_warp_against_direct_formula():
    # Independent evaluation of the defining formula h(r) = r + r^2.
    p = planar(0, 2)
    r = math.hypot(*p)
    assert distance(MetricKind.POLAR_WARP, p, planar(0, 0)) == pytest.approx(r + r * r, abs=0)
    assert distance(MetricKind.POLAR_WARP, p, planar(0, 0)) == 6.0


def test_polar_warp_norm_matches_two_norm_polynomial(rng):
    pts = rng.uniform(-50, 50, size=(500, 2))
    r = np.linalg.norm(pts, axis=-1)
    got = metric_norm(MetricKind.POLAR_WARP, pts)
    assert np.allclose(got, r + r * r, rtol=1e-12, atol=0)


@pytest.mark.parametrize("metric", [MetricKind.SUP, MetricKind.EUCLIDEAN, MetricKind.POLAR_WARP])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(px=coords, py=coords, qx=coords, qy=coords, rx=coords, ry=coords)
def test_metric_axioms(metric, px, py, qx, qy, rx, ry):
    p, q, r = planar(px, py), planar(qx, qy), planar(rx, ry)
    dpq = float(distance(metric, p, q))
    assert dpq >= 0.0
    assert distance(metric, p, p) == 0.0
    assert dpq == float(distance(metric, q, p))
    lhs = dpq
    rhs = float(distance(metric, p, r)) + float(distance(metric, r, q))
    scale = max(lhs, rhs, 1.0)
    assert lhs <= rhs + 4 * np.finfo(float).eps * scale


def test_radial_warp_strictly_monotone(rng):
    # The warp and the Euclidean metric induce the same topology because the
    # radial remap is strictly increasing; sample and check.
    radii = np.sort(rng.uniform(0.0, 100.0, size=300))
    h = radii + radii * radii
    distinct = np.diff(radii) > 0
    assert np.all(np.diff(h)[distinct] > 0)


def test_radial_rescale_fixes_origin():
    assert np.all(radial_rescale(planar(0, 0)) == 0.0)


def test_point_validation():
    with pytest.raises(ContractViolation):
        as_point([np.nan, 0.0])
    with pytest.raises(ContractViolation):
        as_point([np.inf, 0.0])
    with pytest.raises(ContractViolation):
        as_point([])
    with pytest.raises(ContractViolation):
        as_point([[1.0, 2.0]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance(MetricKind.SUP, planar(1, 2), np.array([1.0, 2.0, 3.0]))


def test_polar_warp_planar_only():
    with pytest.raises(ContractViolation):
        distance(MetricKind.POLAR_WARP, np.ones(3), np.zeros(3))


def test_sample_directions_unit_norm():
    for metric in (MetricKind.SUP, MetricKind.EUCLIDEAN):
        u = sample_directions(metric, 2, 32)
        assert np.allclose(metric_norm(metric, u), 1.0, rtol=1e-12)


def test_sample_directions_refuses_the_polar_warp():
    # The warped metric has no unit sphere of directions: Euclidean unit vectors have warped length 2.
    with pytest.raises(ContractViolation, match="polar-warped"):
        sample_directions(MetricKind.POLAR_WARP, 2, 32)


def test_uniform_ball_inside(rng):
    for metric in (MetricKind.SUP, MetricKind.EUCLIDEAN):
        pts = uniform_ball(metric, 2, rng, 1000)
        assert np.all(metric_norm(metric, pts) <= 1.0 + 1e-12)
