"""A stack of orbits, points ``(N, L, d)``, gives each orbit's row the bits of its one-orbit call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.cplus import Const, Norm, Sub, decaying_epsilon, delta_reference_levels, synthesize_delta_homothety
from shadowlab.errors import PositivityError
from shadowlab.geometry import MetricKind
from shadowlab.maps import DiagonalAffine, homothety, power_map
from shadowlab.pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    realize,
    validate,
)
from shadowlab.scenarios import _classify_and_shadow
from shadowlab.shadowing import (forward_to_full_shadow, homothety_shadow_point, homothety_shadow_report,
                                 is_shadowed_by, shadow_tail_bound)

SUP, EUCLIDEAN = MetricKind.SUP, MetricKind.EUCLIDEAN
WINDOWS = [(-1, 1), (-20, 0), (0, 40), (-20, 40)]


def _ensemble(m, epsilon, metric, window, count, seed, anchored_fraction=0.5):
    """(delta, r0, one spec per orbit, the stacked spec) of a random ensemble."""
    delta = synthesize_delta_homothety(epsilon, m, metric)
    r0, _ = delta_reference_levels(epsilon, m, metric)
    specs = generate_orbit_ensemble(m, delta, metric, window, count, seed, r0,
                                    anchored_fraction=anchored_fraction, start_range=(1e-2 * r0, 4.0 * r0))
    return delta, r0, specs, _stack([spec.rule.points for spec in specs], window, m)


def _stack(points, window, m):
    return PseudoOrbitSpec(ExplicitRule(np.stack(points), window[0]), window, m)


def _unclassified_points(r0, window, dim=2):
    """A window that leaves the ball at once, doubles its norm for three steps and then stalls."""
    steps = np.minimum(np.arange(window[1] - window[0] + 1), 3)
    return np.repeat((2.0 * r0 * 2.0 ** steps)[:, None], dim, axis=1)


@pytest.mark.parametrize("metric", [SUP, EUCLIDEAN])
@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(count=st.sampled_from([1, 2, 17]), which=st.sampled_from(["homothety", "power", "flip"]),
       dim=st.sampled_from([1, 2, 3]), k=st.floats(1.2, 4.0), decaying=st.booleans(), seed=st.integers(0, 2**20))
def test_stacked_rows_match_one_orbit_calls_bit_for_bit(metric, window, count, which, dim, k, decaying, seed):
    # The power form inverts diag(1/2, -1/2, 1/2, ...), the planar reverse homothety at d = 2.
    signs = np.resize([1.0, -1.0], dim)
    m = {"homothety": homothety(2.0, dim), "power": power_map(DiagonalAffine(0.5 * signs), -1),
         "flip": DiagonalAffine(-k * signs if dim == 1 else k * signs)}[which]
    epsilon = decaying_epsilon(0.5) if decaying else Const(1.0)
    delta, r0, specs, stacked = _ensemble(m, epsilon, metric, window, count, seed)

    windows = realize(stacked)
    assert windows.points.shape == (count, window[1] - window[0] + 1, dim) and len(windows) == windows.points.shape[1]
    checks = validate(stacked, delta, metric)
    classes = classify_pseudo_orbit(windows, r0, m, metric)
    origin = is_shadowed_by(windows, np.zeros(dim), m, epsilon, metric)
    series = homothety_shadow_report(windows, epsilon, m, metric)
    bounds = shadow_tail_bound(windows, m, delta)
    point = homothety_shadow_point(windows, m)
    depth = min(-window[0], 7)
    shifted = forward_to_full_shadow(windows, epsilon, m, depth, metric) if depth else None
    for i, spec in enumerate(specs):
        one = realize(spec)
        assert np.array_equal(windows.points[i], one.points)
        check = validate(spec, delta, metric)
        assert np.array_equal(checks.gaps[i], check.gaps) and np.array_equal(checks.bounds[i], check.bounds)
        assert checks.passed[i] == check.passed
        cls = classify_pseudo_orbit(one, r0, m, metric)
        assert classes.kind[i] == cls.kind and classes.escape_index[i] == cls.escape_index
        for stacked_report, report in ((origin, is_shadowed_by(one, np.zeros(dim), m, epsilon, metric)),
                                       (series, homothety_shadow_report(one, epsilon, m, metric))):
            assert np.array_equal(stacked_report.distances[i], report.distances)
            assert np.array_equal(stacked_report.tolerances[i], report.tolerances)
            assert stacked_report.passed[i] == report.passed
            assert stacked_report.worst_index[i] == report.worst_index
        assert np.array_equal(bounds[i], shadow_tail_bound(one, m, delta))
        one_point = homothety_shadow_point(one, m)
        assert point[i].dtype == one_point.dtype == np.longdouble and np.array_equal(point[i], one_point)
        if shifted is not None:
            one_shifted = forward_to_full_shadow(one, epsilon, m, depth, metric)
            for name in ("iterates", "direct", "residual", "eps0", "rounding", "contained"):
                assert np.array_equal(getattr(shifted, name)[i], getattr(one_shifted, name))


def test_a_mixed_ensemble_tallies_every_class_in_one_pass():
    m, epsilon, window = homothety(2.0), Const(1.0), (-20, 40)
    delta, r0, specs, stacked = _ensemble(m, epsilon, SUP, window, 12, 5)
    odd = _unclassified_points(r0, window)
    mixed = _stack([spec.rule.points for spec in specs] + [odd], window, m)
    one_orbit = [classify_pseudo_orbit(realize(spec), r0, m, SUP) for spec in specs]
    one_orbit.append(classify_pseudo_orbit(OrbitWindow(window[0], odd), r0, m, SUP))
    expected = {kind: sum(cls.kind == kind for cls in one_orbit) for kind in ("bounded", "escaping", "unclassified")}
    assert expected["bounded"] and expected["escaping"] and expected["unclassified"] == 1

    tallies, all_shadowed, bound_respected, example = _classify_and_shadow(m, epsilon, SUP, delta, r0, mixed)
    assert tallies == expected
    assert not all_shadowed and bound_respected
    first = next(spec for spec, cls in zip(specs, one_orbit) if cls.escaping)
    shown, report, bound = example
    assert np.array_equal(shown.points, realize(first).points)
    assert np.array_equal(report.distances, homothety_shadow_report(realize(first), epsilon, m, SUP).distances)
    assert np.array_equal(bound, shadow_tail_bound(realize(first), m, delta))
    # Without the unclassified window the same orbits are all shadowed.
    assert _classify_and_shadow(m, epsilon, SUP, delta, r0, stacked)[1]


def test_a_refusal_inside_a_stack_names_its_window_index():
    # 2 - |x| turns non-positive at |x| >= 2: only orbit 2's point at index 2 is there.
    m, epsilon = homothety(2.0), Sub(Const(2.0), Norm())
    points = np.zeros((3, 6, 2))
    points[2, 4] = (5.0, 0.0)
    windows, halved = OrbitWindow(-2, points), OrbitWindow(-2, points / 2.0)
    # Reports read 6 points per orbit, so the flattened row is 2 * 6 + 4.  The slack
    # reads f(x_n) at the 5 steps per orbit: the halved point at index 2 maps to (5, 0).
    for row, call in ((16, lambda: is_shadowed_by(windows, np.zeros(2), m, epsilon)),
                      (16, lambda: homothety_shadow_report(windows, epsilon, m)),
                      (14, lambda: shadow_tail_bound(halved, m, epsilon)),
                      (14, lambda: validate(_stack(halved.points, (-2, 3), m), epsilon))):
        with pytest.raises(PositivityError) as info:
            call()
        assert info.value.row == row and info.value.n == 2


def test_unclassified_windows_are_not_evaluated():
    # The tolerance is positive wherever the generated orbits go and refuses the
    # far unclassified window, which no report reads.
    m, window = homothety(2.0), (-20, 40)
    delta, r0, specs, _ = _ensemble(m, Const(1.0), SUP, window, 12, 5)
    epsilon = Sub(Const(1e20), Norm())
    far = np.full((window[1] - window[0] + 1, 2), 1e30)
    assert classify_pseudo_orbit(OrbitWindow(window[0], far), r0, m, SUP).kind == "unclassified"
    mixed = _stack([spec.rule.points for spec in specs] + [far], window, m)

    tallies, all_shadowed, _, _ = _classify_and_shadow(m, epsilon, SUP, delta, r0, mixed)
    assert tallies["unclassified"] == 1 and not all_shadowed
    with pytest.raises(PositivityError) as info:
        homothety_shadow_report(realize(mixed), epsilon, m)
    assert info.value.n == window[0]
