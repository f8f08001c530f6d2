import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowlab.errors import ContractViolation, IterationRangeError, UnsupportedMapError
from shadowlab.maps import (
    AffineChange,
    ComposedChange,
    Conjugated,
    DiagonalAffine,
    IdentityChange,
    RadialRescale,
    affine_fixed_point,
    conjugate_map,
    diffeo_from_dict,
    diffeo_to_dict,
    homothety,
    is_diagonal_affine,
    map_from_dict,
    map_to_dict,
    power_map,
    reverse_homothety,
    saddle,
    translation_map,
)
from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule, realize

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def catalog():
    return [
        saddle(),
        homothety(2.0),
        homothety(-3.0),
        translation_map(2),
        reverse_homothety(0.5),
        conjugate_map(homothety(2.0), RadialRescale(1.0, 1.0)),
        conjugate_map(saddle(), AffineChange([[1.0, 0.5], [0.0, 1.0]], [0.1, -0.3])),
    ]


def test_apply_examples():
    assert np.allclose(saddle().apply([1.0, 4.0]), [2.0, 2.0])
    assert np.allclose(translation_map(2).apply([0.0, 0.0]), [1.0, 0.0])
    assert np.all(homothety(2.0).apply([0.0, 0.0]) == 0.0)


def test_apply_inverse_examples():
    assert np.allclose(saddle().apply_inverse([2.0, 2.0]), [1.0, 4.0])
    assert np.allclose(translation_map(2).apply_inverse([1.0, 0.0]), [0.0, 0.0])


def test_conjugated_fixed_point_via_change_of_coordinates():
    # The fixed point of change o f o change^{-1} is the image of f's fixed
    # point under the change; compute both routes independently.
    change = RadialRescale(1.0, 1.0)
    g = conjugate_map(homothety(2.0), change)
    inner_fixed = affine_fixed_point(homothety(2.0))
    expected = change.apply(inner_fixed)
    assert np.allclose(g.apply(expected), expected, atol=1e-9)
    # 0 / (1 - 2) is -0.0; the fixed point is written as a plain zero.
    assert not np.any(np.signbit(inner_fixed))
    # A translation moves every point: no fixed point at all.
    assert affine_fixed_point(translation_map(2)) is None
    assert affine_fixed_point(DiagonalAffine([2.0, 1.0], [1.0, 0.5])) is None
    # A unit scale without translation fixes a whole line: no unique answer.
    with pytest.raises(ContractViolation):
        affine_fixed_point(DiagonalAffine([2.0, 1.0], [1.0, 0.0]))


def test_iterate_examples():
    assert np.allclose(homothety(2.0).iterate([1.0, 0.0], 10), [1024.0, 0.0])
    assert np.allclose(translation_map(2).iterate([0.0, 0.0], -3), [-3.0, 0.0])


def test_iterate_closed_form_vs_repeated_application():
    m = saddle()
    p = np.array([1.0, 1.0])
    stepped = p.copy()
    for _ in range(20):
        stepped = m.apply(stepped)
    closed = m.iterate(p, 20)
    assert np.allclose(closed, stepped, rtol=1e-12)
    assert np.allclose(closed, [2.0 ** 20, 2.0 ** -20])


@pytest.mark.parametrize("n", [-30, -7, 0, 7, 30])
def test_closed_form_matches_repeated(n, rng):
    for m in (saddle(), homothety(2.0), translation_map(2), reverse_homothety(0.5),
              DiagonalAffine([2.0, 0.5], [1.0, -0.25])):
        p = rng.uniform(-2, 2, size=2)
        stepped = p.copy()
        step = m.apply if n >= 0 else m.apply_inverse
        for _ in range(abs(n)):
            stepped = step(stepped)
        assert np.allclose(m.iterate(p, n), stepped, rtol=1e-6)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(x=coords, y=coords)
def test_round_trip_all_catalog_maps(x, y):
    p = np.array([x, y])
    for m in catalog():
        assert np.allclose(m.apply_inverse(m.apply(p)), p, atol=1e-9 * max(1.0, abs(x), abs(y)))


def test_round_trip_bulk(rng):
    pts = rng.uniform(-100, 100, size=(1000, 2))
    for m in catalog():
        back = m.apply_inverse(m.apply(pts))
        assert np.allclose(back, pts, atol=1e-9 * np.maximum(1.0, np.abs(pts)).max())


def test_conjugate_by_identity_is_same_map(rng):
    g = conjugate_map(homothety(2.0), IdentityChange())
    pts = rng.uniform(-10, 10, size=(100, 2))
    assert np.allclose(g.apply(pts), homothety(2.0).apply(pts))


def test_conjugacy_moves_fixed_point_to_image_of_origin():
    shift = AffineChange(np.eye(2), [3.0, -1.0])
    g = conjugate_map(homothety(2.0), shift)
    target = shift.apply(np.zeros(2))
    assert np.allclose(g.apply(target), target, atol=1e-9)


def test_conjugated_iterates_match_both_composition_orders(rng):
    change = RadialRescale(1.0, 1.0)
    g = conjugate_map(saddle(), change)
    p = rng.uniform(-2, 2, size=2)
    for n in range(1, 11):
        via_inner = change.apply(saddle().iterate(change.apply_inverse(p), n))
        assert np.allclose(g.iterate(p, n), via_inner, rtol=1e-9)


def test_power_map_examples(rng):
    pts = rng.uniform(-5, 5, size=(50, 2))
    sq = power_map(homothety(2.0), 2)
    assert np.allclose(sq.apply(pts), homothety(4.0).apply(pts))
    back = power_map(translation_map(2), -1)
    assert np.allclose(back.apply(pts), pts + np.array([-1.0, 0.0]))


def test_power_saddle_cubed_matches_composition(rng):
    cubed = power_map(saddle(), 3)
    assert np.allclose(cubed.scales, [8.0, 0.125])
    p = rng.uniform(-3, 3, size=2)
    composed = saddle().apply(saddle().apply(saddle().apply(p)))
    assert np.allclose(cubed.apply(p), composed, rtol=1e-12)


def test_powers_do_not_depend_on_how_many_indices_are_asked_for():
    m = DiagonalAffine([5.575547516111294, 0.9, -1.7], [0.0, 1.0, -0.5])
    ns = np.arange(-40, 41)
    pow_, drift = m.power_coefficients(ns)
    for i, n in enumerate(ns):
        p, d = m.power_coefficients(int(n))
        assert np.array_equal(pow_[i], p) and np.array_equal(drift[i], d)
    assert np.array_equal(m.orbit([0.3, -0.2, 1.1], ns)[40:43], m.orbit([0.3, -0.2, 1.1], [0, 1, 2]))


def _marched_orbit(m, y: np.ndarray, start: int, count: int) -> np.ndarray:
    """Reference: f^n(y) for n = start..start+count-1 by repeated ``apply`` and
    ``apply_inverse``, marching outward from index 0 so inverses are only
    composed with inverses."""
    points = np.empty((count, y.size))
    if start <= 0 <= start + count - 1:
        points[-start] = y
    p = y
    for n in range(1, start + count):
        p = m.apply(p)
        if n >= start:
            points[n - start] = p
    p = y
    for n in range(-1, start - 1, -1):
        p = m.apply_inverse(p)
        if n <= start + count - 1:
            points[n - start] = p
    return points


@st.composite
def _changes(draw):
    if draw(st.booleans()):
        return RadialRescale(draw(st.floats(0.25, 3.0)), draw(st.floats(0.0, 2.0)))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    matrix = np.array([[draw(entries), draw(entries)], [draw(entries), draw(entries)]])
    assume(abs(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]) >= 0.25)
    return AffineChange(matrix, [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])


_INNER = st.sampled_from([saddle(), homothety(2.0), translation_map(2)])
_POINT = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(np.array)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(inner=_INNER, change=_changes(), p=_POINT, start=st.integers(-12, 12), count=st.integers(1, 13))
def test_conjugated_orbit_matches_the_outward_march(inner, change, p, start, count):
    g = Conjugated(inner, change)
    closed = g.orbit(p, np.arange(start, start + count))
    marched = _marched_orbit(g, p, start, count)
    scale = max(1.0, float(np.max(np.abs(marched))), float(np.max(np.abs(p))))
    assert np.allclose(closed, marched, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(inner=_INNER, change=st.none() | _changes(), p=_POINT,
       ns=st.lists(st.integers(-40, 40), min_size=1, max_size=20))
def test_orbit_rows_are_single_iterates(inner, change, p, ns):
    m = inner if change is None else Conjugated(inner, change)
    orbit = m.orbit(p, np.array(ns))
    for i, n in enumerate(ns):
        assert np.array_equal(orbit[i], m.iterate(p, n))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(inner=_INNER, change=_changes(), fwd=_POINT, bwd=_POINT, splice=st.integers(-5, 5),
       n_min=st.integers(-15, 0), n_max=st.integers(1, 15))
def test_conjugated_spliced_realize_matches_the_per_index_construction(inner, change, fwd, bwd, splice,
                                                                      n_min, n_max):
    m = Conjugated(inner, change)
    spec = PseudoOrbitSpec(SplicedRule(fwd, bwd, splice), (n_min, n_max), m)
    per_index = np.stack([m.iterate(fwd if n >= splice else bwd, n) for n in range(n_min, n_max + 1)])
    assert np.array_equal(realize(spec).points, per_index)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(inner=_INNER, change=_changes(), p=_POINT, ns=st.lists(st.integers(-12, 12), min_size=1, max_size=8))
def test_affine_coefficients_give_the_iterates_and_bound_their_size(inner, change, p, ns):
    g = Conjugated(inner, change)
    if isinstance(change, RadialRescale):
        with pytest.raises(UnsupportedMapError):
            g.affine_coefficients(ns, np.abs(p))
        return
    a, c, size = g.affine_coefficients(np.array(ns), np.abs(p))
    images = g.orbit(p, np.array(ns))
    # Both sides round by a few ulps of the magnitudes that ``size`` bounds.
    assert np.all(np.abs(images) <= size)
    assert np.all(np.abs(a @ p + c - images) <= 2.0 ** -45 * size)


_DIFFERENCE_CHANGES = _changes() | st.tuples(_changes(), _changes()).map(lambda pair: ComposedChange(*pair))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(change=_DIFFERENCE_CHANGES, p=st.tuples(coords, coords).map(np.array),
       t=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(np.array), seed=st.integers(0, 2**32 - 1))
def test_difference_is_the_difference_of_images_without_their_rounding(change, p, t, seed):
    # Where float64 resolves apply(p + t) - apply(p), the two agree.
    assume(np.linalg.norm(t) >= 1e-6 * max(1.0, np.linalg.norm(p)))
    images = np.stack([change.apply(p), change.apply(p + t)])
    assert np.allclose(change.difference(p, t), images[1] - images[0], rtol=1e-9,
                       atol=64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(images)))))
    # Below the ulp of p the images are equal; the difference is not 0.
    far, tiny = np.array([56.0, 0.0]), np.array([1e-17, 0.0])
    assert np.array_equal(change.apply(far + tiny), change.apply(far))
    assert np.any(change.difference(far, tiny) != 0.0)
    # A row has the same bits in batches of any size.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-100.0, 100.0, (9, 2))
    steps = 10.0 ** rng.uniform(-20.0, 1.0, (9, 1)) * rng.normal(size=(9, 2))
    whole = change.difference(points, steps)
    for size in (1, 4):
        assert np.array_equal(change.difference(points[:size], steps[:size]), whole[:size])
    assert np.array_equal(change.difference(points[5], steps[5]), whole[5])


@pytest.mark.parametrize("b", [0.0, 5e-324, 1e-300, 1e-10, 1e-3, 1.0])
def test_radial_inverse_round_trips_at_small_b_and_tiny_radii(b):
    change = RadialRescale(1.0, b)
    p = np.array([[0.0, 1.0], [3.0, -4.0], [1e-200, 0.0]])
    assert np.allclose(change.apply(change.apply_inverse(p)), p, rtol=1e-15, atol=0.0)


def test_power_zero_rejected():
    with pytest.raises(ContractViolation):
        power_map(homothety(2.0), 0)


def test_is_diagonal_affine_tagging():
    assert is_diagonal_affine(saddle())
    assert is_diagonal_affine(power_map(saddle(), 5))
    assert not is_diagonal_affine(conjugate_map(saddle(), RadialRescale()))


def test_iterate_overflow_carries_index():
    with pytest.raises(IterationRangeError) as err:
        homothety(2.0).iterate([1.0, 1.0], 2000)
    assert err.value.n == 2000


def test_fixed_point_transport_for_conjugated(rng):
    for change in (RadialRescale(1.0, 0.5), AffineChange([[2.0, 1.0], [0.0, 1.0]], [0.4, 0.2])):
        g = conjugate_map(saddle(), change)
        fixed = change.apply(affine_fixed_point(saddle()))
        assert np.allclose(g.apply(fixed), fixed, atol=1e-9)


def test_reverse_homothety_realizes_conjugate_scaling():
    # z -> c * conj(z) in coordinates is (x, y) -> (c x, -c y).
    m = reverse_homothety(0.5)
    assert np.allclose(m.apply([2.0, 4.0]), [1.0, -2.0])
    assert is_diagonal_affine(m)


def test_serialization_round_trip(rng):
    pts = rng.uniform(-4, 4, size=(20, 2))
    for m in catalog():
        rebuilt = map_from_dict(map_to_dict(m))
        assert np.allclose(rebuilt.apply(pts), m.apply(pts))
    for change in (IdentityChange(), RadialRescale(2.0, 0.25),
                   AffineChange([[0.0, 1.0], [-1.0, 0.0]], [1.0, 2.0]),
                   ComposedChange(RadialRescale(), AffineChange(np.eye(2), [1.0, 0.0]))):
        rebuilt = diffeo_from_dict(diffeo_to_dict(change))
        assert np.allclose(rebuilt.apply(pts), change.apply(pts))


def test_map_from_dict_shorthand_kinds():
    assert np.allclose(map_from_dict({"kind": "saddle"}).scales, [2.0, 0.5])
    assert np.allclose(map_from_dict({"kind": "homothety", "factor": 3.0}).scales, [3.0, 3.0])
    assert np.allclose(map_from_dict({"kind": "translation"}).translation, [1.0, 0.0])
    powered = map_from_dict({"kind": "power", "inner": {"kind": "homothety", "factor": 2.0}, "k": 2})
    assert np.allclose(powered.scales, [4.0, 4.0])


def test_invalid_constructions_rejected():
    with pytest.raises(ContractViolation):
        DiagonalAffine([1.0, 0.0])
    with pytest.raises(ContractViolation):
        homothety(1.0)
    with pytest.raises(ContractViolation):
        reverse_homothety(1.0)
    with pytest.raises(ContractViolation):
        AffineChange([[1.0, 2.0], [2.0, 4.0]], [0.0, 0.0])
