import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shadowlab.cplus import (Add, Const, Coord, Norm, Sub, decaying_epsilon, delta_reference_levels,
                             saddle_adversarial_epsilon, synthesize_delta_homothety)
from shadowlab.errors import (
    ContractViolation,
    DegenerateMarginError,
    IterationRangeError,
    PositivityError,
    SearchSpaceError,
    UnsupportedMapError,
)
from shadowlab.geometry import MetricKind, distance, metric_norm
from shadowlab import shadowing
from shadowlab.maps import (AffineChange, DiagonalAffine, RadialRescale, conjugate_map, homothety,
                            linear_scales, power_map, reverse_homothety, saddle, translation_map)
from shadowlab.pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    realize,
)
from shadowlab.shadowing import (
    FeasibilityCertificate,
    box_feasibility,
    forward_to_full_shadow,
    homothety_shadow_point,
    homothety_shadow_report,
    is_shadowed_by,
    sampled_search,
    shadow_tail_bound,
    transported_epsilon_values,
)

SUP = MetricKind.SUP


def true_orbit_spec(m, seed, window):
    seed = np.asarray(seed, dtype=float)
    return PseudoOrbitSpec(SplicedRule(seed, seed, 0), window, m)


def saddle_splice(q, window=(-32, 32)):
    return PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, q]), 0), window, saddle())


# ---------------------------------------------------------------------------
# Shadow reports
# ---------------------------------------------------------------------------


def test_true_orbit_shadowed_by_its_seed():
    spec = true_orbit_spec(homothety(2.0), [0.3, -0.1], (-8, 8))
    window = realize(spec)
    report = is_shadowed_by(window, [0.3, -0.1], spec.map, Const(1.0), SUP)
    assert report.passed
    assert np.all(report.distances == 0.0)
    assert np.all(report.slacks == 1.0)


def test_forward_seed_fails_backward_for_saddle_splice():
    eps = saddle_adversarial_epsilon()
    spec = saddle_splice(0.1, (-8, 8))
    window = realize(spec)
    report = is_shadowed_by(window, [1.0, 0.0], spec.map, eps, SUP)
    offsets = window.indices
    forward = offsets >= 0
    assert np.all(report.slacks[forward] > 0.0)
    assert not report.passed
    assert report.worst_index < 0


# ---------------------------------------------------------------------------
# Exact box feasibility
# ---------------------------------------------------------------------------


def test_true_orbit_box_contains_seed():
    spec = true_orbit_spec(homothety(2.0), [0.3, 0.2], (-8, 8))
    cert = box_feasibility(spec, Const(1.0), 8, 0.0)
    assert not cert.empty
    assert np.all(cert.lo <= [0.3, 0.2]) and np.all([0.3, 0.2] <= cert.hi)
    report = is_shadowed_by(realize(spec), cert.witness, spec.map, Const(1.0), SUP)
    assert report.passed and np.all(report.slacks > 0.0)


def test_saddle_splice_certified_empty_and_oracle_agrees():
    eps = saddle_adversarial_epsilon()
    spec = saddle_splice(0.1)
    cert = box_feasibility(spec, eps, 32, 0.0)
    assert cert.empty and cert.emptiness_window <= 32
    result = sampled_search(spec, eps, SUP, [(0.0, 2.0), (-1.0, 1.0)], 1e-2)
    assert result.absent


def test_translation_splice_certified_empty_and_oracle_agrees():
    from shadowlab.cplus import decaying_epsilon

    eps = decaying_epsilon(1.0)
    spec = PseudoOrbitSpec(
        SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-64, 64), translation_map(2))
    cert = box_feasibility(spec, eps, 64, 1e-12)
    assert cert.empty and cert.emptiness_window <= 64
    result = sampled_search(spec, eps, SUP, [(-1.0, 1.0), (-1.0, 1.0)], 1e-2)
    assert result.absent
    # The two-sided pinch: forward constraints squeeze the second coordinate
    # toward 0 while backward constraints squeeze it toward the jump 0.5.
    widths = [hi - lo for _, lo, hi in cert.trace]
    assert np.all(np.diff([w[1] for w in widths]) <= 1e-12)


def test_box_monotone_under_window_growth():
    spec = true_orbit_spec(homothety(2.0), [0.25, -0.5], (-16, 16))
    small = box_feasibility(spec, Const(1.0), 4, 0.0)
    large = box_feasibility(spec, Const(1.0), 8, 0.0)
    assert np.all(large.lo >= small.lo - 1e-15)
    assert np.all(large.hi <= small.hi + 1e-15)


def test_window_limit_zero_decides_on_index_zero_alone():
    eps = saddle_adversarial_epsilon()
    cert = box_feasibility(saddle_splice(0.1), eps, 0)
    assert [n for n, _, _ in cert.trace] == [0] and not cert.empty
    with pytest.raises(ContractViolation, match="window_limit must be nonnegative"):
        box_feasibility(saddle_splice(0.1), eps, -1)


def test_nonempty_witness_passes_with_margin():
    spec = true_orbit_spec(saddle(), [0.5, 0.25], (-6, 6))
    cert = box_feasibility(spec, Const(0.75), 6, 1e-9)
    assert not cert.empty
    report = is_shadowed_by(realize(spec), cert.witness, spec.map, Const(0.75), SUP)
    assert np.all(report.slacks > 0)


def test_degenerate_margin_raises_with_index():
    eps = saddle_adversarial_epsilon()
    spec = true_orbit_spec(saddle(), [1.0, 0.0], (-32, 32))
    with pytest.raises(DegenerateMarginError) as err:
        box_feasibility(spec, eps, 32, 1e-6)
    assert abs(err.value.n) <= 32


def test_non_positive_tolerance_names_its_window_index():
    # 1 + x0 along the translation splice x_n = (n, .) is least at the left end, n = -5.
    eps = Add(Const(1.0), Coord(0))
    spec = PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-5, 5), translation_map(2))
    for decide in (lambda: box_feasibility(spec, eps, 5),
                   lambda: sampled_search(spec, eps, SUP, [(-1.0, 1.0), (-1.0, 1.0)], 0.5),
                   lambda: is_shadowed_by(realize(spec), np.zeros(2), spec.map, eps)):
        with pytest.raises(PositivityError) as err:
            decide()
        assert (err.value.value, err.value.n) == (-4.0, -5)


def test_non_diagonal_map_directed_to_oracle():
    g = conjugate_map(homothety(2.0), RadialRescale(1.0, 1.0))
    spec = true_orbit_spec(g, [0.5, 0.0], (-4, 4))
    with pytest.raises(UnsupportedMapError):
        box_feasibility(spec, Const(1.0), 4, 0.0)


# ---------------------------------------------------------------------------
# Shadow point series
# ---------------------------------------------------------------------------


def test_shadow_point_of_true_orbit_is_its_point_at_zero():
    spec = true_orbit_spec(homothety(2.0), [0.7, -0.4], (-5, 10))
    window = realize(spec)
    w = homothety_shadow_point(window, spec.map)
    assert np.allclose(w, window.point_at(0), atol=0)


def test_shadow_point_is_anchored_at_index_0():
    m = homothety(2.0)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 2))
    # A window that ends at 0: its forward half is the one point x_0.
    assert np.array_equal(homothety_shadow_point(OrbitWindow(-5, points), m), points[-1])
    for start in (1, -6):
        with pytest.raises(ContractViolation):
            homothety_shadow_point(OrbitWindow(start, points), m)


def test_shadow_point_single_perturbation_geometric_sum():
    # x0 = (1, 0) with one perturbation r1 = (0.1, 0): exact from step 1 on.
    m = homothety(2.0)
    pts = [np.array([1.0, 0.0])]
    pts.append(m.apply(pts[-1]) + np.array([0.1, 0.0]))
    for _ in range(6):
        pts.append(m.apply(pts[-1]))
    window = OrbitWindow(0, np.stack(pts))
    w = homothety_shadow_point(window, m)
    assert np.allclose(w, [1.05, 0.0], atol=0)
    orbit = np.stack([m.iterate(w, n) for n in range(len(pts))])
    assert np.allclose(orbit[1:], window.points[1:], atol=1e-14)
    assert not np.allclose(orbit[0], window.points[0])


def test_residual_report_agrees_with_direct_evaluation_on_short_windows():
    eps, m = Const(1.0), homothety(2.0)
    delta = synthesize_delta_homothety(eps, m)
    r0, _ = delta_reference_levels(eps, m)
    specs = generate_orbit_ensemble(m, delta, SUP, (-6, 8), 20, 5150, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    for spec in specs:
        window = realize(spec)
        stable = homothety_shadow_report(window, eps, m, SUP)
        direct = is_shadowed_by(window, homothety_shadow_point(window, m), spec.map, eps, SUP)
        assert np.allclose(stable.distances, direct.distances, atol=1e-9)


def test_measured_distance_within_tail_bound():
    eps, m = Const(1.0), homothety(2.0)
    delta = synthesize_delta_homothety(eps, m)
    r0, _ = delta_reference_levels(eps, m)
    specs = generate_orbit_ensemble(m, delta, SUP, (-10, 30), 50, 777, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    for spec in specs:
        window = realize(spec)
        report = homothety_shadow_report(window, eps, m, SUP)
        bounds = shadow_tail_bound(window, m, delta)
        assert report.passed
        assert np.all(report.distances <= bounds)


def test_shadow_series_supports_sign_flipped_scales():
    window = realize(true_orbit_spec(homothety(2.0), [0.4, 0.3], (-4, 8)))
    expected_bounds = shadow_tail_bound(window, homothety(2.0), Const(0.1))
    for flip in (DiagonalAffine([2.0, -2.0]), DiagonalAffine([-2.0, 2.0])):
        flipped = realize(true_orbit_spec(flip, [0.4, 0.3], (-4, 8)))
        assert np.allclose(homothety_shadow_point(flipped, flip), flipped.point_at(0))
        # k = 2 whatever the signs: the tail bound's ratio and the classifier's (1 + k)/2.
        assert np.array_equal(shadow_tail_bound(window, flip, Const(0.1)), expected_bounds)
        cls = classify_pseudo_orbit(flipped, 0.5, flip, SUP)
        assert cls.escaping and cls.growth_ratio == 1.5
    # The gate admits only diagonal linear maps whose scales share one modulus |k| > 1.
    for refused in (DiagonalAffine([2.0, 2.0], [1.0, 0.0]), DiagonalAffine([2.0, -3.0]), homothety(0.5),
                    conjugate_map(homothety(2.0), RadialRescale(1.0, 0.5))):
        with pytest.raises(ContractViolation):
            linear_scales(refused)
        with pytest.raises(ContractViolation):
            homothety_shadow_point(window, refused)


# ---------------------------------------------------------------------------
# Forward-to-full
# ---------------------------------------------------------------------------


def reference_series_point(window, m):
    """The series point of one orbit, one coordinate and one index at a time in
    ``np.longdouble``: T = (r_i + T) / a for i = stop, ..., 1, then x_0 + T."""
    x = window.points[-window.start:]
    point = []
    for j, a in enumerate(linear_scales(m)):
        a, tail = np.longdouble(a), np.longdouble(0.0)
        for i in range(len(x) - 1, 0, -1):
            residual = np.longdouble(x[i, j]) - np.longdouble(x[i - 1, j]) * a
            tail = (residual + tail) / a
        point.append(np.longdouble(x[0, j]) + tail)
    return np.array(point, dtype=np.longdouble)


def reference_forward_to_full(spec, forward_shadower, depth):
    """The iterates f^k(y_{-k}), k = 0..depth, one orbit and one shift at a time, for any
    ``forward_shadower`` (a callable from a window starting at 0 to a point whose forward
    orbit shadows it)."""
    iterates = []
    for k in range(depth + 1):
        y = np.asarray(forward_shadower(OrbitWindow(0, realize(spec, (-k, spec.window[1])).points)), dtype=float)
        iterates.append(spec.map.iterate(y, k))
    return np.stack(iterates)


def _escaping_window(m, epsilon, metric, window, count, seed):
    """A stack of ``count`` escaping pseudo-orbits of the slack synthesized for ``epsilon``."""
    delta = synthesize_delta_homothety(epsilon, m, metric)
    r0, _ = delta_reference_levels(epsilon, m, metric)
    specs = generate_orbit_ensemble(m, delta, metric, window, count, seed, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    return OrbitWindow(window[0], np.stack([realize(spec).points for spec in specs]))


_FORWARD_MAPS = {"homothety": lambda k: homothety(k), "flip": lambda k: DiagonalAffine([k, -k]),
                 "power": lambda k: power_map(reverse_homothety(1.0 / abs(k)), -1)}
_FORWARD_TOLERANCES = {"const:0.01": Const(0.01), "const:1.0": Const(1.0),
                       "saddle_adversarial": saddle_adversarial_epsilon(), "decaying": decaying_epsilon(1.0)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_FORWARD_MAPS)), st.floats(1.1, 6.0), st.sampled_from([1.0, -1.0]),
       st.sampled_from([SUP, MetricKind.EUCLIDEAN]), st.sampled_from(sorted(_FORWARD_TOLERANCES)),
       st.integers(1, 44), st.integers(0, 40), st.sampled_from([0, 1, 7, 40]), st.integers(0, 2**20))
# The iterated route once refuted here: the iterates from shift 27 on stray past
# epsilon(x_0), some by hundreds, and stay within their rounding budget.
@example("homothety", 5.53, 1.0, SUP, "const:1.0", 31, 44, 7, 3)
@example("flip", 3.0, 1.0, MetricKind.EUCLIDEAN, "decaying", 1, 0, 0, 5)
def test_forward_to_full_matches_the_reference_loop(form, k, sign, metric, tolerance, depth, back, n_max, seed):
    m, epsilon = _FORWARD_MAPS[form](sign * k), _FORWARD_TOLERANCES[tolerance]
    window = _escaping_window(m, epsilon, metric, (-depth - back, n_max), 3, seed)
    shifted = forward_to_full_shadow(window, epsilon, m, depth, metric)
    assert np.all(shifted.contained) and np.all(shifted.rounding <= 1.0)
    for i, points in enumerate(window.points):
        spec = PseudoOrbitSpec(ExplicitRule(points, window.start), (window.start, window.stop), m)
        iterates = reference_forward_to_full(spec, lambda zw: reference_series_point(zw, m), depth)
        direct = reference_series_point(realize(spec), m)
        assert np.array_equal(shifted.iterates[i], iterates)
        assert shifted.direct[i].dtype == direct.dtype and np.array_equal(shifted.direct[i], direct)
        # |T_0| against |direct - x_0|: the longdouble sum x_0 + T_0 and the float64 norm round.
        x0 = points[-window.start]
        residual = float(metric_norm(metric, np.asarray(direct - x0, dtype=float)))
        assert abs(shifted.residual[i] - residual) <= 2.0 ** -50 * (residual + float(metric_norm(metric, x0)))
        assert shifted.eps0[i] == epsilon.eval(x0)


def test_forward_to_full_raises_at_the_shift_whose_power_overflows():
    # 1e6^52 leaves double range: the shift-52 power is taken for every orbit.
    m = homothety(1e6)
    window = _escaping_window(m, Const(1.0), SUP, (-60, 2), 3, 37)
    spec = PseudoOrbitSpec(ExplicitRule(window.points[1], -60), (-60, 2), m)
    with pytest.raises(IterationRangeError) as ref:
        reference_forward_to_full(spec, lambda zw: reference_series_point(zw, m), 60)
    with pytest.raises(IterationRangeError) as new:
        forward_to_full_shadow(window, Const(1.0), m, 60)
    assert new.value.n == ref.value.n == 52 and str(new.value) == str(ref.value)


def test_forward_to_full_true_orbit_returns_anchor():
    spec = true_orbit_spec(homothety(2.0), [0.6, -0.2], (-12, 12))
    shifted = forward_to_full_shadow(realize(spec), Const(1.0), homothety(2.0), 10)
    assert shifted.contained and shifted.residual <= 1e-12 and np.all(shifted.rounding <= 1.0)
    assert shifted.iterates.shape == (11, 2) and np.allclose(shifted.iterates[-1], [0.6, -0.2], atol=1e-12)
    assert shifted.direct.dtype == np.longdouble and np.allclose(np.asarray(shifted.direct, dtype=float),
                                                                 [0.6, -0.2], atol=1e-12)


def test_forward_to_full_reports_containment_breaches():
    # At |k| = 5.53 the iterates from shift 27 on leave the ball around x_0, by their
    # rounding of 5.53^k ulps of x_{-k}, while every series point stays in it.
    m = homothety(5.53)
    window = _escaping_window(m, Const(1.0), SUP, (-75, 7), 20, 3)
    shifted = forward_to_full_shadow(window, Const(1.0), m, 31)
    strays = np.max(np.abs(shifted.iterates - window.points[:, 75, None, :]), axis=-1) > 1.0
    assert not np.any(strays[:, :27]) and np.all(strays[:, 29:])
    assert np.all(shifted.contained) and np.all(shifted.rounding <= 1.0)
    # A jump of 4 just after index 0 puts the series point 4/2 away from x_0.
    points = np.zeros((9, 2))
    points[5:] = 4.0 * 2.0 ** np.arange(4)[:, None]
    shifted = forward_to_full_shadow(OrbitWindow(-4, points), Const(1.0), homothety(2.0), 4)
    assert not shifted.contained and shifted.residual == 2.0 and shifted.eps0 == 1.0


def test_forward_to_full_decides_what_the_iterated_route_left_unsettled():
    # At k = 3.64 and depth 32 the last eight iterates of every orbit spread wider than
    # 1e-9, which the iterated route's Cauchy test reported as non-convergence.
    m = homothety(3.64)
    shifted = forward_to_full_shadow(_escaping_window(m, Const(1.0), SUP, (-32, 64), 20, 3), Const(1.0), m, 32)
    tail = shifted.iterates[:, -8:]
    assert np.all(np.max(np.abs(tail[:, :, None] - tail[:, None, :]), axis=(1, 2, 3)) > 1e-9)
    assert np.all(shifted.contained) and np.all(shifted.rounding <= 1.0)


def test_forward_to_full_refuses_shifts_outside_the_window():
    window = realize(true_orbit_spec(homothety(2.0), [0.5, 0.5], (-8, 8)))
    for depth in (0, 9):
        with pytest.raises(ContractViolation):
            forward_to_full_shadow(window, Const(1.0), homothety(2.0), depth)
    # A tolerance that is not positive at x_0 names index 0.
    with pytest.raises(PositivityError) as err:
        forward_to_full_shadow(window, Sub(Const(0.5), Norm()), homothety(2.0), 4)
    assert err.value.n == 0


# (depth, n_min, n_max): the window reaches past the deepest shift, which the shifts
# do not read.
_SHIFTED_WINDOWS = st.integers(4, 16).flatmap(
    lambda depth: st.tuples(st.just(depth), st.integers(-depth - 200, -depth), st.integers(0, 2 * depth)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(2.0, 2.0), (2.0, -2.0), (-2.0, 2.0), (3.0, 3.0), (-3.0, -3.0), (1.2, 1.2)]),
       st.sampled_from([SUP, MetricKind.EUCLIDEAN]),
       st.sampled_from(["const", "saddle_adversarial", "decaying"]),
       _SHIFTED_WINDOWS, st.integers(0, 2**32 - 1))
def test_forward_to_full_limit_matches_the_series_point(scales, metric, tolerance, shifted, seed):
    m = DiagonalAffine(scales)
    depth, n_min, n_max = shifted
    eps = {"const": Const(1.0), "saddle_adversarial": saddle_adversarial_epsilon(),
           "decaying": decaying_epsilon(1.0)}[tolerance]
    window = _escaping_window(m, eps, metric, (n_min, n_max), 2, seed)
    shifted = forward_to_full_shadow(window, eps, m, depth, metric)
    assert np.all(shifted.contained) and np.all(shifted.rounding <= 1.0)
    # T_0 reads only the forward half, so the whole window's series point has its bits.
    assert np.array_equal(shifted.direct, homothety_shadow_point(window, m))


# ---------------------------------------------------------------------------
# Sampled search
# ---------------------------------------------------------------------------


def test_search_finds_seed_of_true_orbit():
    spec = true_orbit_spec(homothety(2.0), [0.5, -0.5], (-4, 4))
    result = sampled_search(spec, Const(1.0), SUP, [(-2.0, 2.0), (-2.0, 2.0)], 0.5)
    assert result.found is not None
    assert np.allclose(result.found, [0.5, -0.5])


def test_search_absence_matches_empty_certificate():
    from shadowlab.cplus import decaying_epsilon

    spec = PseudoOrbitSpec(
        SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-32, 32), translation_map(2))
    cert = box_feasibility(spec, decaying_epsilon(1.0), 32, 0.0)
    result = sampled_search(spec, decaying_epsilon(1.0), SUP, [(-1.0, 1.0), (-1.0, 1.0)], 1e-2)
    assert cert.empty and result.absent


def test_search_on_conjugated_map_finds_transported_shadow():
    change = RadialRescale(1.0, 0.5)
    g = conjugate_map(homothety(2.0), change)
    base = true_orbit_spec(homothety(2.0), [0.75, 0.5], (-6, 10))
    window = realize(base)
    target = change.apply(homothety_shadow_point(window, base.map))
    spec = PseudoOrbitSpec(ExplicitRule(change.apply(window.points), window.start), base.window, g)
    box = [(target[0] - 0.5, target[0] + 0.5), (target[1] - 0.5, target[1] + 0.5)]
    result = sampled_search(spec, Const(1.0), SUP, box, 0.125)
    assert result.found is not None
    assert np.allclose(result.found, target, atol=1e-12)


def test_search_counts_the_grid_points_it_scanned():
    # Nine rows of nine points.  Only the seed of the true orbit passes, at row 3 and
    # column 5: row-major position 3 * 9 + 5, so 33 points are counted.
    spec = true_orbit_spec(homothety(2.0), [-0.5, 0.5], (-4, 4))
    found = sampled_search(spec, Const(1.0), SUP, [(-2.0, 2.0), (-2.0, 2.0)], 0.5)
    assert np.array_equal(found.found, [-0.5, 0.5]) and found.checked == 3 * 9 + 5 + 1
    # In 9 x 9 x 9 points the seed sits at (3, 5, 6).
    spec3 = true_orbit_spec(homothety(2.0, 3), [-0.5, 0.5, 1.0], (-4, 4))
    found3 = sampled_search(spec3, Const(1.0), SUP, [(-2.0, 2.0)] * 3, 0.5)
    assert np.array_equal(found3.found, [-0.5, 0.5, 1.0]) and found3.checked == (3 * 9 + 5) * 9 + 6 + 1
    # An absent search scans the whole grid, plus the 5 x 5 refinement grid.
    absent = sampled_search(spec, Const(1.0), SUP, [(1.0, 5.0), (1.0, 5.0)], 0.5)
    assert absent.absent and absent.refined and absent.checked == 81 + 25


def test_search_grid_size_limit():
    spec = true_orbit_spec(homothety(2.0), [0.0, 0.0], (-1, 1))
    with pytest.raises(SearchSpaceError):
        sampled_search(spec, Const(1.0), SUP, [(-1.0, 1.0), (-1.0, 1.0)], 1e-5)
    # NaN escaped as "cannot convert float NaN to integer"; inf scanned one NaN grid point.
    for step in (np.nan, np.inf):
        with pytest.raises(ContractViolation, match="grid_step"):
            sampled_search(spec, Const(1.0), SUP, [(-1.0, 1.0), (-1.0, 1.0)], step)


SEARCH_MAPS = {
    "saddle": saddle(),
    "homothety": homothety(2.0),
    "affine-saddle": conjugate_map(saddle(), AffineChange([[0.96, -0.72], [0.72, 0.96]], [0.3, -0.2])),
    "radial-homothety": conjugate_map(homothety(2.0), RadialRescale(1.0, 0.5)),
}


def first_passing_grid_point(spec, epsilon, box, step):
    """Brute force: the first row-major grid point whose whole report passes."""
    window = realize(spec)
    axes = [lo + step * np.arange(int(np.floor((hi - lo) / step + 0.5)) + 1) for lo, hi in box]
    for x in axes[0]:
        for y in axes[1]:
            if is_shadowed_by(window, [x, y], spec.map, epsilon, SUP).passed:
                return np.array([x, y])
    return None


@pytest.mark.parametrize("name", sorted(SEARCH_MAPS))
def test_search_first_point_is_independent_of_slab_table_size(name, monkeypatch):
    # Slab tables of 7 and 31 entries cover none or a few constraints of the grids
    # below; 10**6 covers every one.  Five short windows come first, then three that
    # reach up to 11 indices from 0.  The refinement runs only when the first pass
    # finds nothing.
    m = SEARCH_MAPS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    outcomes = set()
    for reach in [4] * 5 + [12] * 3:
        seed = rng.uniform(-0.8, 0.8, 2)
        jump = rng.uniform(-1.2, 1.2, 2)
        back, ahead = (int(k) for k in rng.integers(0, reach, 2))
        spec = PseudoOrbitSpec(SplicedRule(seed, seed + jump, 0), (-back, max(ahead, 1 - back)), m)
        epsilon = Const(float(rng.uniform(0.2, 0.6)))
        half = rng.uniform(0.3, 1.0, 2)
        box = [(seed[j] - half[j], seed[j] + half[j]) for j in range(2)]
        step = float(rng.choice([0.05, 0.1]))
        expected = first_passing_grid_point(spec, epsilon, box, step)
        outcomes.add(expected is None)
        for entries in (7, 31, 10**6):
            monkeypatch.setattr(shadowing, "_SLAB_TABLE_ENTRIES", entries)
            result = sampled_search(spec, epsilon, SUP, box, step)
            if expected is None:
                assert result.refined
            else:
                assert not result.refined and np.array_equal(result.found, expected)
    assert outcomes == {True, False}  # both found and absent cases are exercised


def reference_scan(m, window, eps_vals, metric, axes, order):
    """The scan that builds the whole grid and runs every constraint on its points."""
    live = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    for k, n in enumerate(order):
        img = live if n == 0 else m.iterate(live, n)
        dist = distance(metric, img, window.point_at(n)) - float(eps_vals[n - window.start])
        ok = dist < 0.0
        if not np.any(ok):
            j = int(np.argmin(dist))
            return live[j].copy(), float(dist[j]), k
        live = live[ok]
    return live[0].copy(), None, len(order)


@pytest.mark.parametrize("entries", [10**6, 200, 41])
def test_near_miss_is_independent_of_slab_table_size(entries, monkeypatch):
    # Over the 41 first-axis values the axis bound keeps, slab tables of these sizes
    # cover the whole order of this conjugated splice, its first four indices, and only
    # index 0, which has no slabs; its points die at different indices of the order.  The near miss is taken at
    # the latest of them, so every table gives the same point.
    m = SEARCH_MAPS["affine-saddle"]
    spec = PseudoOrbitSpec(SplicedRule(m.change.apply(np.array([1.0, 0.0])),
                                       m.change.apply(np.array([1.0, 0.8 / 0.96])), 0), (-6, 6), m)
    monkeypatch.setattr(shadowing, "_SLAB_TABLE_ENTRIES", entries)
    result = sampled_search(spec, Const(0.4), SUP, [(-1.0, 3.0), (-1.0, 3.0)], 2e-2)
    assert result.absent and np.array_equal(result.near_miss, [-1.0 + 2e-2 * 98, -1.0 + 2e-2 * 96])  # (0.96, 0.92)


_PLANAR_SCALES = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]) | st.floats(-3.0, 3.0).filter(
    lambda v: abs(v) >= 0.1)


def _diagonal(d):
    """Diagonal-affine maps of dimension ``d`` with negative, unit and fractional scales and
    with translations."""
    return st.builds(DiagonalAffine, st.lists(_PLANAR_SCALES, min_size=d, max_size=d),
                     st.lists(st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0), min_size=d, max_size=d))


_PLANAR_DIAGONAL = _diagonal(2)


@st.composite
def _affine_conjugate(draw, d=2):
    """A diagonal-affine map of dimension ``d`` conjugated by a random invertible affine
    change: a general matrix, or in the plane also an orientation-reversing or an
    ill-conditioned one, then maybe a power."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["general", "reflection", "ill-conditioned"] if d == 2 else ["general"]))
    if kind == "general":
        matrix = rng.uniform(-2.0, 2.0, (d, d))
        assume(abs(np.linalg.det(matrix)) > 0.05)
    elif kind == "reflection":
        turn = rng.uniform(0.0, 2.0 * np.pi)
        matrix = rng.uniform(0.3, 2.0) * np.array([[np.cos(turn), np.sin(turn)], [np.sin(turn), -np.cos(turn)]])
    else:  # condition number about 4 / 10^-k
        matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 10.0 ** -rng.integers(3, 8)]]) * rng.choice([-1.0, 1.0], 2)
    m = conjugate_map(draw(_diagonal(d)), AffineChange(matrix, rng.uniform(-1.0, 1.0, d)))
    power = draw(st.sampled_from([1, 1, -1, 2, 3]))
    return m if power == 1 else power_map(m, power)


_PLANAR_MAPS = (st.sampled_from([SEARCH_MAPS[name] for name in sorted(SEARCH_MAPS)]) | _PLANAR_DIAGONAL
                | _affine_conjugate())


@st.composite
def _search_case(draw, maps=_PLANAR_MAPS):
    """A search on one of ``maps``; 3-D grids take twice the step."""
    m = draw(maps)
    d = m.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Integer seeds, jumps, box ends and tolerance on a half or unit step:
        # many grid points share the least gap, so near-miss ties occur.
        seed, jump = rng.integers(-2, 3, (2, d)).astype(float)
        epsilon = Const(float(rng.integers(1, 3)))
        box = [(float(c - h), float(c + h)) for c, h in zip(rng.integers(-2, 3, d), rng.integers(1, 4, d))]
        step = float(rng.choice([0.5, 1.0]))
    else:
        seed, jump = rng.uniform(-0.8, 0.8, d), rng.uniform(-1.2, 1.2, d)
        epsilon = Const(float(rng.uniform(0.2, 0.6)))
        box = [(c - h, c + h) for c, h in zip(seed, rng.uniform(0.3, 1.0, d))]
        step = float(rng.choice([0.05, 0.1])) * (2.0 if d == 3 else 1.0)
    back, ahead = (int(k) for k in rng.integers(0, 6, 2))
    return PseudoOrbitSpec(SplicedRule(seed, seed + jump, 0), (-back, max(ahead, 1 - back)), m), epsilon, box, step


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_search_case(), st.sampled_from([SUP, MetricKind.EUCLIDEAN, MetricKind.POLAR_WARP]),
       st.sampled_from([7, 31, 10**6]))
# Grid points exactly at the tolerance of index 0, which comes first for a conjugated map.
@example((true_orbit_spec(SEARCH_MAPS["affine-saddle"], [0.0, 0.0], (0, 1)), Const(1.0),
          [(-1.0, 1.0), (-1.0, 1.0)], 1.0), SUP, 7)
# Under EUCLIDEAN and POLAR_WARP: grid points whose gap along one axis is exactly the
# tolerance, at both indices of the saddle's window.
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(1.0),
          [(-2.0, 2.0), (-2.0, 2.0)], 1.0), MetricKind.EUCLIDEAN, 7)
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(1.0),
          [(-2.0, 2.0), (-2.0, 2.0)], 1.0), MetricKind.POLAR_WARP, 7)
# H rounds a one-ulp step of the small coordinate away: the first grid point is at
# computed warped distance 0, below its axis gap of 4.2e-22 and the tolerance.
@example((true_orbit_spec(DiagonalAffine([1.0, 1.0]), [2.611868474358969e-06, -5.328914708747884], (0, 1)),
          Const(2e-22), [(2.6118684743589685e-06, 2.611868474358969e-06),
                         (-5.328914708747884, -5.328914708747884)], 4.235164736271502e-22),
         MetricKind.POLAR_WARP, 10**6)
# metric-warp's search: first constraint at index -24, where |x_n| is about 2^24 * 0.005.
@example((saddle_splice(0.00500003, (-24, 24)), Const(1.0), [(0.0, 4.0), (-2.0, 2.0)], 5e-3),
         MetricKind.EUCLIDEAN, 10**6)
@example((saddle_splice(0.00500003, (-24, 24)), Const(1.0), [(0.0, 4.0), (-2.0, 2.0)], 5e-3),
         MetricKind.POLAR_WARP, 10**6)
# Around x_0 = (2, 0) the warp stretches outward more than inward: the nearest axis
# values (3, 0) give warped distance 6, while (0.8, 0), with an axis gap of 1.2, gives 4.56.
@example((true_orbit_spec(DiagonalAffine([1.0, 1.0]), [2.0, 0.0], (0, 1)), Const(0.5),
          [(0.8, 3.0), (-2.2, 2.2)], 2.2), MetricKind.POLAR_WARP, 10**6)
# Around x_0 = (2, 0) the warped distance of (3, 0), whose axis gap is 1, is 12 - 6 and
# ties with that of (0, 0), whose gap is 2: the second product holds the earlier tie.
@example((true_orbit_spec(DiagonalAffine([1.0, 1.0]), [2.0, 0.0], (0, 1)), Const(0.5),
          [(0.0, 3.0), (0.0, 0.0)], 3.0), MetricKind.POLAR_WARP, 10**6)
# The near miss ties between (1, -1) and (1, 1).
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 3.0), (-1.0, 1.0)], 2.0), MetricKind.EUCLIDEAN, 10**6)
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 3.0), (-1.0, 1.0)], 2.0), MetricKind.POLAR_WARP, 10**6)
# The first constraint empties each of the four one-row blocks.
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 4.0), (-3.0, 3.0)], 1.0), MetricKind.EUCLIDEAN, 7)
# The first passing point lies on the edge of a slab, and its computed sup distance rounds
# below the tolerance: slabs without the rounding allowance drop it.
@example((PseudoOrbitSpec(SplicedRule(np.array([-2.0, 0.0]), np.array([-1.0, -1.0]), 0), (-3, 0),
                          conjugate_map(DiagonalAffine([1.0, -2.0], [1.0, -0.5]),
                                        AffineChange([[-0.6, 1.0], [-0.6, -2.0]], [0.5, 0.3]))),
          Const(2.0), [(-5.0, 1.0), (-3.0, 3.0)], 0.5), SUP, 10**6)
# The sup-norm slabs of the whole window keep two points whose Euclidean distance fails,
# so the conjugated scan steps down to the slabs of a shorter prefix.
@example((PseudoOrbitSpec(SplicedRule(np.array([-1.0, 2.0]), np.array([0.0, 1.0]), 0), (-1, 1),
                          SEARCH_MAPS["affine-saddle"]), Const(1.0), [(-1.0, 3.0), (-4.0, 2.0)], 0.5),
         MetricKind.EUCLIDEAN, 10**6)
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 4.0), (-3.0, 3.0)], 1.0), MetricKind.POLAR_WARP, 7)
def test_scan_is_bit_identical_to_the_reference_scan(case, metric, entries):
    spec, epsilon, box, step = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadowing, "_SLAB_TABLE_ENTRIES", entries)
        new = sampled_search(spec, epsilon, metric, box, step).to_obj()
        mp.setattr(shadowing, "_scan", reference_scan)
        ref = sampled_search(spec, epsilon, metric, box, step).to_obj()
    assert json.dumps(new) == json.dumps(ref)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_search_case(), st.sampled_from([SUP, MetricKind.EUCLIDEAN, MetricKind.POLAR_WARP]),
       st.sampled_from([1, 5, 40]))
# Chunks of one point die at different constraints; the near miss ties between
# (1, -1) and (1, 1), which lie in different chunks.
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 3.0), (-1.0, 1.0)], 2.0), MetricKind.EUCLIDEAN, 1)
@example((true_orbit_spec(SEARCH_MAPS["saddle"], [0.0, 0.0], (0, 1)), Const(0.5),
          [(1.0, 3.0), (-1.0, 1.0)], 2.0), SUP, 1)
# The warp's second product, itself built one point at a time.
@example((true_orbit_spec(DiagonalAffine([1.0, 1.0]), [2.0, 0.0], (0, 1)), Const(0.5),
          [(0.8, 3.0), (-2.2, 2.2)], 2.2), MetricKind.POLAR_WARP, 1)
# Around x_0 = (2, 0) the warped distance of (3, 0), whose axis gap is 1, is 12 - 6 and
# ties with that of (0, 0), whose gap is 2: the second product holds the earlier tie.
@example((true_orbit_spec(DiagonalAffine([1.0, 1.0]), [2.0, 0.0], (0, 1)), Const(0.5),
          [(0.0, 3.0), (0.0, 0.0)], 3.0), MetricKind.POLAR_WARP, 1)
# The slab descent of the reference property, one point per chunk.
@example((PseudoOrbitSpec(SplicedRule(np.array([-1.0, 2.0]), np.array([0.0, 1.0]), 0), (-1, 1),
                          SEARCH_MAPS["affine-saddle"]), Const(1.0), [(-1.0, 3.0), (-4.0, 2.0)], 0.5),
         MetricKind.EUCLIDEAN, 1)
# A conjugated splice, whose chunks die at several indices of its window.
@example((PseudoOrbitSpec(SplicedRule(SEARCH_MAPS["affine-saddle"].change.apply(np.array([1.0, 0.0])),
                                      SEARCH_MAPS["affine-saddle"].change.apply(np.array([1.0, 0.5])), 0),
                          (-4, 4), SEARCH_MAPS["affine-saddle"]),
          Const(0.4), [(-1.0, 3.0), (-1.0, 3.0)], 0.1), SUP, 5)
def test_chunked_scan_is_bit_identical_to_the_reference_scan(case, metric, chunk):
    spec, epsilon, box, step = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadowing, "_CHUNK_POINTS", chunk)
        new = sampled_search(spec, epsilon, metric, box, step).to_obj()
        mp.setattr(shadowing, "_scan", reference_scan)
        ref = sampled_search(spec, epsilon, metric, box, step).to_obj()
    assert json.dumps(new) == json.dumps(ref)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_search_case(_diagonal(1) | _diagonal(3) | _affine_conjugate(3)), st.sampled_from([SUP, MetricKind.EUCLIDEAN]),
       st.sampled_from([5, 40, 1 << 14]))
# Shadowed orbits: the fixed point b of a 3-D affine conjugate of x -> 2x, a grid point,
# and on the line the fixed point -1 of x -> 2x + 1, which only the refinement grid around
# the near miss -0.5 holds.
@example((true_orbit_spec(conjugate_map(homothety(2.0, 3), AffineChange([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25],
                                                                          [0.5, 0.0, 1.0]], [0.0, 0.5, -0.5])),
                          [0.0, 0.5, -0.5], (-3, 3)), Const(0.4), [(-1.0, 1.0), (-0.5, 1.5), (-1.5, 0.5)], 0.25),
         MetricKind.EUCLIDEAN, 5)
@example((true_orbit_spec(DiagonalAffine([2.0], [1.0]), [-1.0], (-3, 3)), Const(0.6), [(-0.5, 2.0)], 0.5), SUP, 5)
def test_off_plane_scan_is_bit_identical_to_the_reference_scan(case, metric, chunk):
    # Grids of dimension 1 and 3, where a chunk's points take their rows of the
    # product of the other axes apart; chunks of 5 and 40 points cut those rows.
    spec, epsilon, box, step = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadowing, "_CHUNK_POINTS", chunk)
        new = sampled_search(spec, epsilon, metric, box, step).to_obj()
        mp.setattr(shadowing, "_scan", reference_scan)
        ref = sampled_search(spec, epsilon, metric, box, step).to_obj()
    assert json.dumps(new) == json.dumps(ref)


@pytest.mark.parametrize("metric", [SUP, MetricKind.EUCLIDEAN, MetricKind.POLAR_WARP])
def test_conjugated_scan_overflows_where_the_unslabbed_scan_does(metric):
    # The fixed point b of an affine conjugate of x -> 2x lies on the grid of the box
    # from b - 0.5 and passes every index up to 1023; 2^1024 leaves double range.  The
    # grid from b - 0.3 misses b by 0.05 or more, so each of its points dies by n = 5.
    b = np.array([0.25, -0.5])
    m = conjugate_map(homothety(2.0), AffineChange([[0.96, -0.72], [0.72, 0.96]], b))
    slabbed, span_table = [], shadowing._span_table

    def recorded(*args):
        slabbed.append(span_table(*args))
        return slabbed[-1]

    def unslabbed(g, *args):  # the table of a map without slabs: one row of every point
        return span_table(g.inner, *args)

    def search(stop, corner, slabs):
        spec = PseudoOrbitSpec(ExplicitRule(np.tile(b, (stop + 1, 1)), 0), (0, stop), m)
        box = [(v, v + 1.0) for v in b + corner]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shadowing, "_span_table", recorded if slabs else unslabbed)
            try:
                return sampled_search(spec, Const(0.5), metric, box, 0.125).to_obj()
            except IterationRangeError as exc:
                return exc.n, str(exc)

    assert search(1030, -0.5, True) == search(1030, -0.5, False) == (
        1024, "iterate overflow at n=1024: scale power left double range")
    absent = search(1030, -0.3, True)
    assert absent == search(1030, -0.3, False) and absent["found"] is None
    assert slabbed and all(len(counts) == 1 for _, _, counts in slabbed)  # no slab past double range
    slabbed.clear()
    found = search(400, -0.5, True)
    assert found == search(400, -0.5, False) and found["found"] == b.tolist()
    assert slabbed and all(len(counts) > 1 for _, _, counts in slabbed)


def _slab_counts(spec, eps, box, step, rows):
    """Brute force, per block of ``rows`` first-axis values: the grid points of a conjugated
    SUP search within its widened slabs.  Those are the points that pass index 0 and whose
    excess over each later constraint of the order 1..stop, -1..start is below 1e-9.  No
    point's excess lies between 1e-12 and 1e-8, so the slabs, whose allowance here is below
    1e-9, keep the same points.  Returns, per block, the count for each prefix of that order."""
    m, window = spec.map, realize(spec)
    axes = shadowing._grid_axes(box, step)
    counts = []
    for i in range(0, len(axes[0]), rows):
        grid = np.stack(np.meshgrid(axes[0][i:i + rows], axes[1], indexing="ij"), axis=-1).reshape(-1, 2)
        live = grid[distance(SUP, grid, window.point_at(0)) < eps]
        excess = np.array([distance(SUP, m.iterate(live, n), window.point_at(n)) - eps
                           for n in [*range(1, window.stop + 1), *range(-1, window.start - 1, -1)]])
        assert not np.any((np.abs(excess) > 1e-12) & (np.abs(excess) < 1e-8))
        counts.append(np.cumprod(excess < 1e-9, axis=0).sum(axis=1))
    return counts


def _longest_kept(counts) -> int:
    """The count of the longest prefix whose slabs keep a point."""
    return int(counts[counts > 0][-1])


def _count_built(monkeypatch) -> list[list[int]]:
    """Per ``_scan`` call, the sizes of the chunks ``_chunks`` builds: the first pass's,
    then the refinement's."""
    scans, scan, chunks = [], shadowing._scan, shadowing._chunks

    def counting_scan(*args):
        scans.append([])
        return scan(*args)

    def counting_chunks(*args):
        for points in chunks(*args):
            scans[-1].append(len(points))
            yield points

    monkeypatch.setattr(shadowing, "_scan", counting_scan)
    monkeypatch.setattr(shadowing, "_chunks", counting_chunks)
    return scans


def test_scan_builds_its_product_in_chunks(monkeypatch):
    # The conjugated search of the test below keeps 1,640 points at index 0 and 31 within
    # the slabs of the longest prefix of its order whose slabs keep any, n = 1..6; chunks
    # of at most 8 of them build the same points and find the same result.
    m = SEARCH_MAPS["affine-saddle"]
    spec = PseudoOrbitSpec(SplicedRule(m.change.apply(np.array([1.0, 0.0])),
                                       m.change.apply(np.array([1.0, 0.8 / 0.96])), 0), (-6, 6), m)
    box = [(-1.0, 3.0), (-1.0, 3.0)]
    whole = sampled_search(spec, Const(0.4), SUP, box, 2e-2).to_obj()
    scans = _count_built(monkeypatch)
    monkeypatch.setattr(shadowing, "_CHUNK_POINTS", 8)
    assert sampled_search(spec, Const(0.4), SUP, box, 2e-2).to_obj() == whole
    built = scans[0]
    grid = np.stack(np.meshgrid(*shadowing._grid_axes(box, 2e-2), indexing="ij"), axis=-1).reshape(-1, 2)
    survivors = int(np.sum(distance(SUP, grid, realize(spec).point_at(0)) - 0.4 < 0.0))
    [counts] = _slab_counts(spec, 0.4, box, 2e-2, len(grid))
    assert survivors == 1_640 and counts[5] == 31 and counts[6] == 0
    assert len(built) > 2 and max(built) <= 8 and sum(built) == _longest_kept(counts) == 31


def test_scan_builds_only_the_points_its_axis_bound_and_slab_table_keep(monkeypatch):
    scans = _count_built(monkeypatch)
    saddle_case = (saddle_splice(0.1), saddle_adversarial_epsilon(), [(0.0, 2.0), (-1.0, 1.0)], 1e-2)
    # Every metric bounds a point's distance below by each gap |img_j - x_j| of the first
    # constraint, index -32, where the image's second coordinate is 2^32 y.  No point
    # passes, and only the value of y nearest 0.1 reaches the least distance, while every
    # first-axis value does: the one pass builds those 201 points once.  The refinement's
    # 5 x 5 grid then builds its five points on that row.
    for metric in (SUP, MetricKind.EUCLIDEAN, MetricKind.POLAR_WARP):
        scans.clear()
        result = sampled_search(*saddle_case[:2], metric, *saddle_case[2:])
        assert result.absent and result.checked == 201 * 201 + 25 and scans == [[201], [5]]
    # A conjugated map builds only the points within the slabs of the longest prefix of
    # its order whose slabs keep any: 31 of the 1,640 that pass its index 0.
    m = SEARCH_MAPS["affine-saddle"]
    spec = PseudoOrbitSpec(SplicedRule(m.change.apply(np.array([1.0, 0.0])),
                                       m.change.apply(np.array([1.0, 0.8 / 0.96])), 0), (-6, 6), m)
    box, step = [(-1.0, 3.0), (-1.0, 3.0)], 2e-2
    scans.clear()
    whole = sampled_search(spec, Const(0.4), SUP, box, step)
    [counts] = _slab_counts(spec, 0.4, box, step, 201)
    assert whole.absent and sum(scans[0]) == _longest_kept(counts) == 31
    # The axis bound keeps the 41 x 41 values whose gap, less its allowance, is at most
    # 0.4, so a table of 100 entries covers the slabs of the order's first two indices, 0
    # and 1, only: the scan builds the points of that square within the slabs of index 1,
    # and the rest of the order finds the same result.
    window, axes = realize(spec), shadowing._grid_axes(box, step)
    square = np.stack(np.meshgrid(*[a[np.abs(a - x) * (1.0 - 2.0 ** -48) <= 0.4]
                                    for a, x in zip(axes, window.point_at(0))], indexing="ij"), axis=-1).reshape(-1, 2)
    assert len(square) == 41 * 41
    monkeypatch.setattr(shadowing, "_SLAB_TABLE_ENTRIES", 100)
    scans.clear()
    assert sampled_search(spec, Const(0.4), SUP, box, step).to_obj() == whole.to_obj()
    excess = distance(SUP, m.iterate(square, 1), window.point_at(1)) - 0.4
    assert not np.any((np.abs(excess) > 1e-12) & (np.abs(excess) < 1e-8))
    assert sum(scans[0]) == int(np.sum(excess < 1e-9)) == 1_073


def test_conjugated_scan_memory_does_not_grow_with_the_window():
    # metric-warp's splice on an affine-conjugated saddle, on a 200,001 x 2 grid: a point
    # passes the window +-5, and none passes +-40.  A slab table with a row per window
    # index would take 2 x 82 x 200,001 x 8 bytes = 262 MB at +-40; the table of
    # _SLAB_TABLE_ENTRIES entries keeps the peak the same at both windows.
    m = conjugate_map(saddle(), AffineChange([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]))
    peaks = []
    for reach in (5, 40):
        spec = PseudoOrbitSpec(SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.00500003]), 0), (-reach, reach), m)
        tracemalloc.start()
        try:
            sampled_search(spec, Const(1.0), MetricKind.POLAR_WARP, [(0.0, 2.0), (0.0, 1e-5)], 1e-5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 48_000_000 and abs(peaks[1] - peaks[0]) < 1_000_000, peaks


# ---------------------------------------------------------------------------
# The block walk against the per-constraint reference loop
# ---------------------------------------------------------------------------


def _reference_order(spec, window_limit):
    """The window indices 0, 1, -1, 2, -2, ... that the certificate of ``spec`` may process."""
    if isinstance(spec.rule, ExplicitRule):
        n_min = max(spec.window[0], spec.rule.start)
        n_max = min(spec.window[1], spec.rule.start + len(spec.rule.points) - 1)
    else:
        n_min, n_max = -window_limit, window_limit
    order = [0]
    for k in range(1, window_limit + 1):
        if k <= n_max:
            order.append(k)
        if -k >= n_min:
            order.append(-k)
        if k > n_max and -k < n_min:
            break
    return order


def _first_overflow(spec, order):
    """The first index of ``order`` whose scale power or spliced point leaves double range,
    one index at a time, or None."""
    rule = spec.rule
    for n in order:
        try:
            if isinstance(rule, ExplicitRule):
                spec.map.power_coefficients(n)
            elif not np.all(np.isfinite(spec.map.iterate(rule.forward_seed if n >= rule.splice
                                                         else rule.backward_seed, n))):
                return n
        except IterationRangeError:
            return n
    return None


def reference_box_feasibility(spec, epsilon, window_limit, margin=0.0):
    """The certificate one constraint at a time, after realizing the whole window."""
    m = spec.map
    if not isinstance(m, DiagonalAffine):
        raise UnsupportedMapError(f"{type(m).__name__} is not diagonal-affine")
    order = _reference_order(spec, window_limit)
    lo = np.full(m.dimension, -np.inf)
    hi = np.full(m.dimension, np.inf)
    trace = []
    window = realize(spec, (min(order), max(order)))
    eps_all = np.atleast_1d(epsilon.eval(window.points))
    for n in order:
        x_n = window.point_at(n)
        eps_n = float(eps_all[n - window.start])
        radius = eps_n - margin
        if radius <= 0.0:
            raise DegenerateMarginError(n, eps_n, margin)
        pow_, drift = m.power_coefficients(n)
        center = x_n - drift
        end_a = (center - radius) / pow_
        end_b = (center + radius) / pow_
        lo = np.maximum(lo, np.minimum(end_a, end_b))
        hi = np.minimum(hi, np.maximum(end_a, end_b))
        trace.append((n, lo.copy(), hi.copy()))
        if np.any(lo > hi):
            gap = float(np.max(lo - hi))
            return FeasibilityCertificate("empty", window_limit, margin, lo, hi, emptiness_window=abs(n),
                                          near_degenerate=margin > 0.0 and gap <= 4.0 * margin,
                                          blocks=_one_block(trace))
    return FeasibilityCertificate("nonempty", window_limit, margin, lo, hi, witness=0.5 * (lo + hi),
                                  near_degenerate=margin > 0.0 and float(np.min(hi - lo)) <= 4.0 * margin,
                                  blocks=_one_block(trace))


def _one_block(trace):
    """The reference's (n, lo, hi) per constraint as the certificate's one block of arrays."""
    ns, los, his = zip(*trace)
    return [(np.array(ns, dtype=int), np.array(los), np.array(his))]


def _outcome(decide, *args):
    """(json, csv) of the certificate ``decide(*args)``, or (error type, message)."""
    try:
        cert = decide(*args)
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc), exc
    return cert.to_json(), cert.trace_to_csv(), cert


_SCALES = st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.25, 4.0, 3.0, 0.9, 5.0]) | st.floats(0.1, 6.0)
_TOLERANCES = [Const(1.0), Const(0.05), Const(1e-3), decaying_epsilon(1.0), saddle_adversarial_epsilon()]


@st.composite
def _certificate_case(draw):
    dim = draw(st.integers(1, 2))
    m = DiagonalAffine(draw(st.lists(_SCALES, min_size=dim, max_size=dim)),
                       draw(st.lists(st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0),
                                     min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window_limit = draw(st.integers(0, 512))
    if draw(st.booleans()):
        # Coordinates up to about 1e300 leave double range before their powers do.
        exponents = draw(st.lists(st.sampled_from([0, 300]) | st.integers(0, 300), min_size=dim, max_size=dim))
        magnitudes = 10.0 ** np.array(exponents)
        forward = rng.uniform(-3.0, 3.0, dim) * magnitudes
        backward = forward + 10.0 ** rng.uniform(-6.0, 0.0) * rng.standard_normal(dim)
        spec = PseudoOrbitSpec(SplicedRule(forward, backward, draw(st.integers(-3, 3))),
                               (-max(window_limit, 1), max(window_limit, 1)), m)
    else:
        count = draw(st.integers(1, 200))
        start = -draw(st.integers(0, count - 1))
        window = (draw(st.integers(-600, 0)), draw(st.integers(1, 600)))
        spec = PseudoOrbitSpec(ExplicitRule(rng.uniform(-5.0, 5.0, (count, dim)), start), window, m)
    margin = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    return spec, draw(st.sampled_from(_TOLERANCES)), window_limit, margin


def _depth(outcome) -> int:
    """The window depth at which a walk that stopped early decided."""
    if isinstance(outcome[2], DegenerateMarginError):
        return abs(outcome[2].n)
    return outcome[2].emptiness_window


def _far_splice(seed, jump):
    """A saddle splice whose first coordinate, at ``seed``, leaves double range at n = 28 when
    ``seed`` is 1e300; the second jumps from 0 to ``jump`` across the splice."""
    return PseudoOrbitSpec(SplicedRule((seed, 0.0), (seed, jump), 0), (-64, 64), saddle())


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_certificate_case())
@example((_far_splice(1e300, 1.0 + 2.0 ** -25), Const(1.0), 64, 0.0))
@example((_far_splice(1e300, 1.0 + 2.0 ** -40), Const(1.0), 64, 0.0))
def test_block_walk_matches_the_reference_loop(case):
    spec, epsilon, window_limit, margin = case
    with np.errstate(all="ignore"):
        ref = _outcome(reference_box_feasibility, spec, epsilon, window_limit, margin)
        new = _outcome(box_feasibility, spec, epsilon, window_limit, margin)
        # The reference realizes and evaluates the whole window before its
        # first constraint, so iterates past double range refuse it up
        # front; the walk decides on the constraints before the first index
        # of its order whose power or point leaves double range, or refuses
        # there.
        up_front = (IterationRangeError, PositivityError)
        if ref[0] in up_front and new[:2] != ref[:2]:
            order = _reference_order(spec, window_limit)
            if new[0] in up_front:
                if new[0] is IterationRangeError:
                    assert new[2].n == _first_overflow(spec, order)
                if new[0] is ref[0] is IterationRangeError:
                    assert abs(new[2].n) <= abs(ref[2].n)
                return
            depth = _depth(new)
            if ref[0] is IterationRangeError:
                assert depth < abs(ref[2].n)
                decided = new[2].n if new[0] is DegenerateMarginError else new[2].trace[-1][0]
                overflow = _first_overflow(spec, order)
                assert overflow is None or order.index(decided) < order.index(overflow)
            # The reference cut to that depth decides alike, unless the cut
            # still reaches an iterate past double range.
            ref = _outcome(reference_box_feasibility, spec, epsilon, depth, margin)
            if ref[0] in up_front:
                return
            if new[0] is not DegenerateMarginError:
                new = (new[0].replace(f'"window_limit": {window_limit}', f'"window_limit": {depth}'),
                       *new[1:])
    assert new[:2] == ref[:2]


@pytest.mark.parametrize("first_block", [1, 7, 64])
def test_certificate_is_independent_of_the_first_block(first_block, monkeypatch):
    cases = [
        (saddle_splice(0.1, (-200, 200)), saddle_adversarial_epsilon(), 200, 0.0),
        (PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-300, 300), translation_map(2)),
         decaying_epsilon(1.0), 300, 1e-12),
        (true_orbit_spec(saddle(), [0.5, 0.25], (-100, 100)), Const(0.75), 100, 1e-9),
        (PseudoOrbitSpec(ExplicitRule(np.random.default_rng(3).uniform(-1, 1, (90, 2)), -40), (-40, 49),
                         translation_map(2)), Const(5.0), 64, 0.0),
        (true_orbit_spec(saddle(), [1.0, 0.0], (-32, 32)), saddle_adversarial_epsilon(), 32, 1e-6),
    ]
    expected = [_outcome(box_feasibility, *case)[:2] for case in cases]
    monkeypatch.setattr(shadowing, "_FIRST_BLOCK", first_block)
    assert [_outcome(box_feasibility, *case)[:2] for case in cases] == expected
    assert expected == [_outcome(reference_box_feasibility, *case)[:2] for case in cases]


def test_saddle_certificate_decides_without_realizing_the_far_window():
    spec = saddle_splice(0.05, (-2000, 2000))
    eps = saddle_adversarial_epsilon()
    with pytest.raises(IterationRangeError):
        reference_box_feasibility(spec, eps, 2000)
    deep = box_feasibility(spec, eps, 2000).to_obj()
    shallow = box_feasibility(spec, eps, 32).to_obj()
    assert deep.pop("window_limit") == 2000 and shallow.pop("window_limit") == 32
    assert deep == shallow and deep["outcome"] == "empty"


@pytest.mark.parametrize("seed, jump_bits, depth", [(1e300, 25, 26), (1e300, 26, 27), (1e300, 40, None),
                                                     (1.0, 25, 26), (1.0, 26, 27)])
def test_a_point_past_double_range_lets_the_constraints_before_it_decide(seed, jump_bits, depth):
    # With seed 1e300 the first coordinate leaves double range at n = 28, inside the third
    # block (n = -55..56): the constraints before it in the order decide as they do for
    # seed 1, and a walk still undecided there refuses at that index.
    spec = _far_splice(seed, 1.0 + 2.0 ** -jump_bits)
    if depth is None:
        with pytest.raises(IterationRangeError, match="n=28: a spliced point left double range"):
            box_feasibility(spec, Const(1.0), 64)
        return
    cert = box_feasibility(spec, Const(1.0), 64).to_obj()
    cut = reference_box_feasibility(spec, Const(1.0), depth).to_obj()
    assert cert.pop("window_limit") == 64 and cut.pop("window_limit") == depth
    assert cert == cut and cert["outcome"] == "empty" and cert["emptiness_window"] == depth


def test_a_block_computes_one_power_table_and_realizes_nothing(monkeypatch):
    # A nonempty window-512 translation walk processes its 1,025 constraints in 7 blocks of
    # 16, 32, ..., 512 and 17 constraints, with one power table each and no realized window.
    spec = PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, 0.001]), 0), (-512, 512), translation_map(2))
    calls = {"power_coefficients": 0, "realize": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(DiagonalAffine, "power_coefficients",
                        counting("power_coefficients", DiagonalAffine.power_coefficients))
    monkeypatch.setattr(shadowing, "realize", counting("realize", shadowing.realize))
    cert = box_feasibility(spec, decaying_epsilon(1.0), 512)
    assert calls == {"power_coefficients": 7, "realize": 0} and not cert.empty
    assert [len(ns) for ns, _, _ in cert.blocks] == [16, 32, 64, 128, 256, 512, 17]
    trace = cert.trace
    assert len(trace) == 1_025
    assert [n for n, _, _ in trace] == [0] + [s * k for k in range(1, 513) for s in (1, -1)]
    for n, lo, hi in trace:
        assert type(n) is int and isinstance(lo, np.ndarray) and isinstance(hi, np.ndarray)
        assert (hi - lo).shape == (2,) and np.all(hi - lo >= 0.0)
    monkeypatch.undo()
    ref = reference_box_feasibility(spec, decaying_epsilon(1.0), 512)
    assert (cert.to_json(), cert.trace_to_csv()) == (ref.to_json(), ref.trace_to_csv())


def test_certificate_json_schema():
    import json

    eps = saddle_adversarial_epsilon()
    cert = box_feasibility(saddle_splice(0.1), eps, 16, 0.0)
    payload = json.loads(cert.to_json())
    assert payload["outcome"] == "empty"
    assert payload["window_limit"] == 16 and payload["margin"] == 0.0
    assert payload["emptiness_window"] == cert.emptiness_window
    assert len(payload["trace"]) == 2  # one trace per coordinate
    for coord_trace in payload["trace"]:
        for n, lo, hi in coord_trace:
            assert isinstance(n, int)
    spec = true_orbit_spec(homothety(2.0), [0.25, 0.5], (-4, 4))
    payload = json.loads(box_feasibility(spec, Const(1.0), 4, 0.0).to_json())
    assert payload["outcome"] == "nonempty" and len(payload["witness"]) == 2


def test_exact_and_oracle_agree_on_nonempty_case():
    spec = true_orbit_spec(saddle(), [0.5, 0.25], (-6, 6))
    cert = box_feasibility(spec, Const(1.0), 6, 0.0)
    result = sampled_search(spec, Const(1.0), SUP, [(-2.0, 2.0), (-2.0, 2.0)], 0.25)
    assert not cert.empty and result.found is not None
    assert np.all(result.found >= cert.lo - 1e-12) and np.all(result.found <= cert.hi + 1e-12)


@st.composite
def _diagonal_splice(draw):
    m = draw(_PLANAR_DIAGONAL)
    limit = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forward = rng.uniform(-1.0, 1.0, 2)
    backward = forward + draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])) * rng.standard_normal(2)
    spec = PseudoOrbitSpec(SplicedRule(forward, backward, 0), (-limit, limit), m)
    epsilon = draw(st.sampled_from([Const(0.5), Const(0.2), decaying_epsilon(1.0), decaying_epsilon(0.4)]))
    box = [(c - h, c + h) for c, h in zip(forward, rng.uniform(0.5, 1.5, 2))]
    return spec, epsilon, limit, box, float(draw(st.sampled_from([0.02, 0.05, 0.1])))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_diagonal_splice())
def test_exact_certificate_and_oracle_agree(case):
    # One-sided: the oracle's grid may miss a thin box, but a point it finds
    # lies in the certificate, and a box wider than two grid steps inside the
    # search box holds a grid point the oracle finds.
    spec, epsilon, limit, box, step = case
    cert = box_feasibility(spec, epsilon, limit)
    result = sampled_search(spec, epsilon, SUP, box, step)
    if result.found is not None:
        assert not cert.empty
        assert np.all(cert.lo - 1e-9 <= result.found) and np.all(result.found <= cert.hi + 1e-9)
    inside = all(lo <= a and b <= hi for (lo, hi), a, b in zip(box, cert.lo, cert.hi))
    if not cert.empty and inside and np.all(cert.hi - cert.lo > 2 * step + 1e-9):
        assert result.found is not None


# ---------------------------------------------------------------------------
# Transported tolerances
# ---------------------------------------------------------------------------


def test_transported_tolerances_cover_the_image_of_the_sup_ball():
    # An affine change moves the corner of the e-box signed like its widest row by |M|_inf e,
    # a corner that directions sampled on the 3-dimensional sphere miss.
    rng = np.random.default_rng(5)
    window = OrbitWindow(-2, rng.uniform(-5.0, 5.0, (5, 3)))
    eps_values = 10.0 ** rng.uniform(-3.0, 0.0, 5)
    for _ in range(200):
        change = AffineChange(rng.uniform(-2.0, 2.0, (3, 3)), rng.uniform(-1.0, 1.0, 3))
        widest_row = np.max(np.sum(np.abs(change.matrix), axis=1))
        assert np.all(transported_epsilon_values(window, eps_values, change, SUP) >= widest_row * eps_values)
    with pytest.raises(ContractViolation, match="polar-warped"):
        transported_epsilon_values(window, eps_values, change, MetricKind.POLAR_WARP)
    with pytest.raises(ContractViolation, match="one tolerance per window index"):
        transported_epsilon_values(window, eps_values[1:], change, SUP)
