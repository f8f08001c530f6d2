import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.errors import ContractViolation, IterationRangeError
from shadowlab.maps import (
    AffineChange,
    ComposedChange,
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


@settings(max_examples=150, deadline=None)
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
