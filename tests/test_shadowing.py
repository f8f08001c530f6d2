import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowlab.cplus import (Const, decaying_epsilon, delta_reference_levels, saddle_adversarial_epsilon,
                             synthesize_delta_homothety)
from shadowlab.errors import (
    ContractViolation,
    DegenerateMarginError,
    IterationRangeError,
    NonConvergenceError,
    PositivityError,
    SearchSpaceError,
    UnsupportedMapError,
)
from shadowlab.geometry import MetricKind, distance, sample_directions
from shadowlab import shadowing
from shadowlab.maps import (AffineChange, ComposedChange, DiagonalAffine, RadialRescale, conjugate_map, homothety,
                            linear_scales, saddle, translation_map)
from shadowlab.pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    realize,
    transport_pseudo_orbit,
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


def test_non_diagonal_map_directed_to_oracle():
    g = conjugate_map(homothety(2.0), RadialRescale(1.0, 1.0))
    spec = true_orbit_spec(g, [0.5, 0.0], (-4, 4))
    with pytest.raises(UnsupportedMapError):
        box_feasibility(spec, Const(1.0), 4, 0.0)


# ---------------------------------------------------------------------------
# Shadow point series
# ---------------------------------------------------------------------------


def test_shadow_point_of_true_orbit_is_the_start():
    spec = true_orbit_spec(homothety(2.0), [0.7, -0.4], (-5, 10))
    window = realize(spec)
    w = homothety_shadow_point(window, spec.map)
    assert np.allclose(w, window.points[0], atol=0)


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
        w, stable = homothety_shadow_report(window, eps, m, SUP)
        w0 = spec.map.iterate(w, -window.start)
        direct = is_shadowed_by(window, w0, spec.map, eps, SUP)
        assert np.allclose(stable.distances, direct.distances, atol=1e-9)


def test_measured_distance_within_tail_bound():
    eps, m = Const(1.0), homothety(2.0)
    delta = synthesize_delta_homothety(eps, m)
    r0, _ = delta_reference_levels(eps, m)
    specs = generate_orbit_ensemble(m, delta, SUP, (-10, 30), 50, 777, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    for spec in specs:
        window = realize(spec)
        w, report = homothety_shadow_report(window, eps, m, SUP)
        bounds = shadow_tail_bound(window, m, delta)
        assert report.passed
        assert np.all(report.distances <= bounds)


def test_shadow_series_supports_sign_flipped_scales():
    window = realize(true_orbit_spec(homothety(2.0), [0.4, 0.3], (-4, 8)))
    expected_bounds = shadow_tail_bound(window, homothety(2.0), Const(0.1))
    for flip in (DiagonalAffine([2.0, -2.0]), DiagonalAffine([-2.0, 2.0])):
        flipped = realize(true_orbit_spec(flip, [0.4, 0.3], (-4, 8)))
        assert np.allclose(homothety_shadow_point(flipped, flip), flipped.points[0])
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


def _series_shadower(z_window):
    return homothety_shadow_point(z_window, homothety(2.0))


def test_forward_to_full_true_orbit_returns_anchor():
    spec = true_orbit_spec(homothety(2.0), [0.6, -0.2], (-12, 12))
    out = forward_to_full_shadow(spec, Const(1.0), _series_shadower, 10, 1e-9, SUP)
    assert np.allclose(np.asarray(out, dtype=float), [0.6, -0.2], atol=1e-12)


def test_forward_to_full_constant_origin_shadower():
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    rng = np.random.default_rng(4)
    from shadowlab.pseudo_orbit import random_pseudo_orbit

    spec = random_pseudo_orbit(homothety(2.0), delta, SUP, (-10, 10), np.zeros(2), rng,
                               keep_within=0.2)
    out = forward_to_full_shadow(spec, eps, lambda zw: np.zeros(2), 8, 1e-9, SUP)
    assert np.all(out == 0.0)


def test_forward_to_full_matches_direct_series():
    eps, m = saddle_adversarial_epsilon(), homothety(2.0)
    delta = synthesize_delta_homothety(eps, m)
    r0, _ = delta_reference_levels(eps, m)
    specs = generate_orbit_ensemble(m, delta, SUP, (-20, 30), 10, 2024, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    for spec in specs:
        limit = forward_to_full_shadow(spec, eps, _series_shadower, 20, 1e-9, SUP)
        window = realize(spec)
        direct = m.iterate(homothety_shadow_point(window, m), -window.start)
        assert float(np.max(np.abs(np.asarray(limit - direct, dtype=float)))) <= 1e-8


def test_forward_to_full_reports_contract_breach():
    spec = true_orbit_spec(homothety(2.0), [0.5, 0.5], (-8, 8))
    with pytest.raises(ContractViolation):
        forward_to_full_shadow(spec, Const(1.0), lambda zw: zw.points[0] + 50.0, 5, 1e-9, SUP)


def test_forward_to_full_reports_non_convergence():
    spec = true_orbit_spec(homothety(2.0), [0.5, 0.5], (-8, 8))

    def wobbly(z_window):
        # Stays inside the containment ball at every shift, but the iterates
        # alternate by 0.6 and never settle.
        x = z_window.points[0]
        k = round(float(np.log2(0.5 / x[0])))
        return x + (0.3 * (-1.0) ** k) * (2.0 ** -k)

    with pytest.raises(NonConvergenceError) as err:
        forward_to_full_shadow(spec, Const(1.0), wobbly, 8, 1e-9, SUP)
    assert len(err.value.diameters) > 0


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
    w0 = homothety(2.0).iterate(homothety_shadow_point(window, base.map), -window.start)
    target = change.apply(w0)
    moved = transport_pseudo_orbit(window, change)
    spec = PseudoOrbitSpec(ExplicitRule(moved.points, moved.start), base.window, g)
    box = [(target[0] - 0.5, target[0] + 0.5), (target[1] - 0.5, target[1] + 0.5)]
    result = sampled_search(spec, Const(1.0), SUP, box, 0.125)
    assert result.found is not None
    assert np.allclose(result.found, target, atol=1e-12)


def test_search_grid_size_limit():
    spec = true_orbit_spec(homothety(2.0), [0.0, 0.0], (-1, 1))
    with pytest.raises(SearchSpaceError):
        sampled_search(spec, Const(1.0), SUP, [(-1.0, 1.0), (-1.0, 1.0)], 1e-5)


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
def test_search_first_point_is_independent_of_block_size(name, monkeypatch):
    # Blocks of 7 and 31 points cut the grids below into one or several
    # rows per block; 10**6 scans each grid as a single block.  Five short
    # windows come first, then three that reach up to 11 indices from 0.
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
        for block in (7, 31, 10**6):
            monkeypatch.setattr(shadowing, "_BLOCK_POINTS", block)
            found = sampled_search(spec, epsilon, SUP, box, step, refine=False).found
            if expected is None:
                assert found is None
            else:
                assert found is not None and np.array_equal(found, expected)
    assert outcomes == {True, False}  # both found and absent cases are exercised


# ---------------------------------------------------------------------------
# The block walk against the per-constraint reference loop
# ---------------------------------------------------------------------------


def reference_box_feasibility(spec, epsilon, window_limit, margin=0.0):
    """The certificate one constraint at a time, after realizing the whole window."""
    m = spec.map
    if not isinstance(m, DiagonalAffine):
        raise UnsupportedMapError(f"{type(m).__name__} is not diagonal-affine")
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
                                          near_degenerate=margin > 0.0 and gap <= 4.0 * margin, trace=trace)
    return FeasibilityCertificate("nonempty", window_limit, margin, lo, hi, witness=0.5 * (lo + hi),
                                  near_degenerate=margin > 0.0 and float(np.min(hi - lo)) <= 4.0 * margin,
                                  trace=trace)


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
        forward = rng.uniform(-3.0, 3.0, dim)
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


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_certificate_case())
def test_block_walk_matches_the_reference_loop(case):
    spec, epsilon, window_limit, margin = case
    with np.errstate(all="ignore"):
        ref = _outcome(reference_box_feasibility, spec, epsilon, window_limit, margin)
        new = _outcome(box_feasibility, spec, epsilon, window_limit, margin)
        # The reference realizes and evaluates the whole window before its
        # first constraint, so iterates past double range refuse it up
        # front; the walk may decide before it reaches them.
        up_front = (IterationRangeError, PositivityError)
        if ref[0] in up_front and new[:2] != ref[:2]:
            if new[0] in up_front:
                if new[0] is ref[0] is IterationRangeError:
                    assert abs(new[2].n) <= abs(ref[2].n)
                return
            depth = _depth(new)
            if ref[0] is IterationRangeError:
                assert depth < abs(ref[2].n)
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


# ---------------------------------------------------------------------------
# The per-point transport loop the batched transport must reproduce
# ---------------------------------------------------------------------------


def reference_transported_epsilon_values(window, eps_values, change, metric):
    """One change.apply per window point: 64 directions on the spheres of radius e/2 and
    e, polar-warp directions normalized in the Euclidean norm, times 1.05."""
    dirs = sample_directions(metric if metric is not MetricKind.POLAR_WARP else MetricKind.EUCLIDEAN,
                             window.dimension, 64)
    images = change.apply(window.points)
    out = np.empty(len(window))
    shells = np.array([0.5, 1.0])
    for i in range(len(window)):
        offsets = (shells[:, None, None] * eps_values[i] * dirs[None, :, :]).reshape(-1, window.dimension)
        sampled = change.apply(window.points[i] + offsets)
        out[i] = 1.05 * float(np.max(distance(metric, sampled, images[i])))
    return out


@st.composite
def _planar_change(draw, depth=0):
    kind = draw(st.sampled_from(["affine", "radial", "composed"] if depth == 0 else ["affine", "radial"]))
    if kind == "radial":
        return RadialRescale(draw(st.floats(0.25, 3.0)), draw(st.floats(0.0, 2.0)))
    if kind == "composed":
        return ComposedChange(draw(_planar_change(1)), draw(_planar_change(1)))
    coords = st.floats(-2.0, 2.0)
    matrix = np.array([[draw(coords), draw(coords)], [draw(coords), draw(coords)]])
    assume(abs(np.linalg.det(matrix)) >= 0.25)
    return AffineChange(matrix, [draw(coords), draw(coords)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), _planar_change(), st.sampled_from(list(MetricKind)))
def test_batched_transport_is_bit_identical_to_the_per_point_loop(seed, length, change, metric):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 2.0)
    window = OrbitWindow(int(rng.integers(-20, 1)), scale * rng.uniform(-10.0, 10.0, (length, 2)))
    eps_values = 10.0 ** rng.uniform(-4.0, 1.0, length)
    expected = reference_transported_epsilon_values(window, eps_values, change, metric)
    assert np.array_equal(transported_epsilon_values(window, eps_values, change, metric), expected)
