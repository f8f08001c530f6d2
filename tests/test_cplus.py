import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowlab.cplus import (
    Add,
    Const,
    Coord,
    Envelope,
    Exp2Neg,
    Max,
    Min,
    Mul,
    Norm,
    RadialTable,
    Recip,
    Sub,
    decaying_epsilon,
    delta_reference_levels,
    epsilon_from_neighborhood,
    fn_from_json,
    fn_from_obj,
    random_positive_fn,
    saddle_adversarial_epsilon,
    synthesize_delta_homothety,
    verify_delta_conditions,
)
from shadowlab.errors import ContractViolation, DimensionMismatch, PositivityError
from shadowlab.geometry import MetricKind, distance, metric_norm, sample_directions
from shadowlab.maps import homothety


def pt(x, y):
    return np.array([x, y], dtype=float)


def test_eval_examples():
    assert Const(1.0).eval(pt(7, -3)) == 1.0
    assert saddle_adversarial_epsilon().eval(pt(3, 0)) == 0.125
    table = RadialTable([[0.0, 1.0], [10.0, 0.1]])
    assert table.eval(pt(5, 0)) == pytest.approx(0.55)


def test_adversarial_epsilon_along_expanding_orbit():
    eps = saddle_adversarial_epsilon()
    assert eps.eval(pt(0, 0)) == 1.0
    assert eps.eval(pt(1, 0)) == 0.5
    # Along the forward orbit of (1, 0) under the saddle, the value at the
    # n-th point is 2^(-2^n).
    for n in range(0, 6):
        assert eps.eval(pt(2.0 ** n, 0)) == 2.0 ** -(2.0 ** n)


def test_decaying_epsilon_values():
    eps = decaying_epsilon(1.0)
    assert eps.eval(pt(0, 0)) == 1.0
    assert eps.eval(pt(9, 0)) == pytest.approx(0.1)
    # Along the translated points l*e1 the tolerance forces any shadowing
    # candidate into a ball of radius 1/(1+l), which vanishes as l grows.
    for l in range(1, 21):
        assert eps.eval(pt(l, 0)) == pytest.approx(1.0 / (1.0 + l))
    with pytest.raises(ContractViolation):
        decaying_epsilon(0.0)


def test_guarded_nodes_raise_with_node_name():
    bad = Sub(Const(1.0), Const(2.0))
    with pytest.raises(PositivityError) as err:
        bad.eval(pt(0, 0))
    assert err.value.node == "sub"
    recip = Recip(Sub(Const(2.0), Const(1.0)))
    assert recip.eval(pt(0, 0)) == 1.0


def test_exp2neg_saturates_instead_of_underflowing():
    eps = saddle_adversarial_epsilon()
    value = eps.eval(pt(1e12, 0))
    assert value > 0.0


def test_eval_batches_match_scalars(rng):
    fns = [
        saddle_adversarial_epsilon(),
        decaying_epsilon(0.5),
        Max(Const(0.1), Mul(Const(2.0), Exp2Neg(Norm(MetricKind.EUCLIDEAN)))),
        Min(Const(1.0), Add(Const(0.2), Exp2Neg(Coord(0)))),
    ]
    pts = rng.uniform(-20, 20, size=(64, 2))
    for fn in fns:
        batch = fn.eval(pts)
        singles = np.array([fn.eval(p) for p in pts])
        assert np.allclose(batch, singles, rtol=0, atol=0)


def test_json_round_trip(rng):
    fns = [
        Const(2.5),
        saddle_adversarial_epsilon(),
        decaying_epsilon(1.0),
        RadialTable([[0.0, 2.0], [1.0, 1.5], [5.0, 0.5]], tail="harmonic"),
        Min(Const(1.0), Add(Const(0.25), Norm(MetricKind.SUP))),
        Envelope([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.75]),
    ]
    pts = rng.uniform(-8, 8, size=(32, 2))
    for fn in fns:
        rebuilt = fn_from_json(fn.to_json())
        assert np.allclose(rebuilt.eval(pts), fn.eval(pts), rtol=0, atol=0)
    with pytest.raises(ContractViolation):
        fn_from_obj({"op": "nonsense", "args": []})


def _dense_grid(half, n):
    axis = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


def test_envelope_refuses_a_query_of_another_dimension():
    env = Envelope(np.zeros((1, 3)), np.ones(1))
    assert env.eval(np.zeros(3)) == 1.0
    with pytest.raises(DimensionMismatch):
        env.eval(np.zeros(2))


def test_envelope_constant_radius_is_exact():
    grid = _dense_grid(5.0, 41)
    env = epsilon_from_neighborhood(Const(0.7), grid)
    assert np.all(env.values_at_nodes() == 0.7)


def test_envelope_well_matches_brute_force_and_closed_form():
    # Radius 0.1 at the origin ramping up to 1: the envelope must agree with
    # the brute-force minimum over the grid and with min(1, 0.1 + |x|).
    grid = _dense_grid(4.0, 81)
    rho = RadialTable([[0.0, 0.1], [0.5, 1.0]])
    env = epsilon_from_neighborhood(rho, grid)
    values = env.values_at_nodes()

    rho_vals = rho.eval(grid)
    sample = np.arange(0, grid.shape[0], 97)
    for idx in sample:
        dists = np.max(np.abs(grid - grid[idx]), axis=-1)
        brute = float(np.min(rho_vals + dists))
        assert values[idx] == pytest.approx(brute, abs=0)
    closed = np.minimum(1.0, 0.1 + np.max(np.abs(grid), axis=-1))
    assert np.allclose(values, closed, atol=1e-12)


def test_envelope_identity_when_radius_already_one_lipschitz(rng):
    grid = _dense_grid(6.0, 61)
    rho = Add(Const(1.0), Norm(MetricKind.SUP))
    env = epsilon_from_neighborhood(rho, grid)
    idx = rng.integers(0, grid.shape[0], size=200)
    assert np.allclose(env.values_at_nodes()[idx], rho.eval(grid[idx]), atol=1e-12)


def test_envelope_lipschitz_and_contained(rng):
    grid = _dense_grid(3.0, 41)
    rho = Max(Const(0.2), Mul(Const(1.5), Exp2Neg(Norm(MetricKind.SUP))))
    env = epsilon_from_neighborhood(rho, grid)
    values = env.values_at_nodes()
    rho_vals = rho.eval(grid)
    assert np.all(values <= rho_vals + 1e-12)
    idx = rng.integers(0, grid.shape[0], size=(500, 2))
    d = np.max(np.abs(grid[idx[:, 0]] - grid[idx[:, 1]]), axis=-1)
    assert np.all(np.abs(values[idx[:, 0]] - values[idx[:, 1]]) <= d + 1e-9)
    # Tolerance balls sit inside the neighborhood slices.
    inside_eps = d < values[idx[:, 0]]
    inside_rho = d < rho_vals[idx[:, 0]]
    assert np.all(~inside_eps | inside_rho)


def test_empty_grid_rejected():
    with pytest.raises(ContractViolation):
        epsilon_from_neighborhood(Const(1.0), np.zeros((0, 2)))


@pytest.mark.parametrize("points, values", [
    ([[0.0, np.nan], [1.0, 1.0]], [0.5, 0.5]),
    ([[0.0, np.inf], [1.0, 1.0]], [0.5, 0.5]),
    ([[0.0, 0.0], [-np.inf, 1.0]], [0.5, 0.5]),
    ([[0.0, 0.0], [1.0, 1.0]], [0.5, np.nan]),
    (np.zeros((2, 0)), [0.5, 0.5]),
])
def test_envelope_refuses_malformed_samples(points, values):
    with pytest.raises(ContractViolation):
        Envelope(points, values)


def reference_envelope(env, q):
    """The defining minimum over every (query, node) pair, in query chunks."""
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape[0])
    chunk = max(1, int(4_000_000 // max(1, env.points.shape[0])))
    for lo in range(0, q.shape[0], chunk):
        dist = distance(env.metric, q[lo : lo + chunk, None, :], env.points[None, :, :])
        out[lo : lo + chunk] = np.min(env.values[None, :] + dist, axis=1)
    return out


# One node, fewer nodes than one cell holds, and several cells.
_NODE_COUNTS = st.just(1) | st.integers(2, 63) | st.integers(65, 700)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(metric=st.sampled_from([MetricKind.SUP, MetricKind.EUCLIDEAN]), dim=st.integers(1, 3),
       nodes=_NODE_COUNTS, rounded=st.booleans(), duplicated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pruned_envelope_is_bit_identical_to_the_full_scan(metric, dim, nodes, rounded, duplicated, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-4.0, 4.0, size=(nodes, dim))
    values = rng.uniform(0.1, 3.0, size=nodes)
    if rounded:  # integer coordinates and half-integer values tie many terms
        points, values = np.round(points), np.round(2.0 * values) / 2.0 + 0.5
    if duplicated:  # repeated nodes, carrying other values
        again = rng.integers(0, nodes, size=nodes // 2 + 1)
        points = np.concatenate([points, points[again]])
        values = np.concatenate([values, values[again[::-1]]])
    env = Envelope(points, values, metric)
    queries = np.concatenate([
        points,
        rng.uniform(-6.0, 6.0, size=(60, dim)),
        np.round(rng.uniform(-6.0, 6.0, size=(20, dim))),
        rng.uniform(-1e6, 1e6, size=(10, dim)),
    ])
    got = env.eval(queries)
    assert np.array_equal(got, reference_envelope(env, queries))
    rows = rng.integers(0, queries.shape[0], size=8)
    assert [env.eval(queries[i]) for i in rows] == got[rows].tolist()


def test_a_cell_bound_equal_to_its_least_term_is_not_pruned():
    # Two cells on a line, either side of the query 0.  The lower cell's bound
    # 1 + 10 ties the upper one's, so it seeds, but its least term is one ulp
    # above 11.  The upper cell's bound is exactly its least term 1 + 10, and
    # that term is the minimum.
    from shadowlab.cplus import _CELL_NODES

    offsets = 10.0 + np.arange(_CELL_NODES)
    points = np.concatenate([-offsets[::-1], offsets])[:, None]
    values = np.full(points.shape[0], 100.0)
    values[0], values[_CELL_NODES - 1] = 1.0, np.nextafter(11.0, 12.0) - 10.0
    values[_CELL_NODES] = 1.0
    env = Envelope(points, values)
    assert env.eval(np.zeros(1)) == 11.0 == reference_envelope(env, np.zeros((1, 1)))[0]


_POSITIVE_FLOATS = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(table=st.integers(1, 12).flatmap(lambda n: arrays(np.float64, (n, n), elements=_POSITIVE_FLOATS)),
       step=_POSITIVE_FLOATS)
def test_chessboard_sweep_never_exceeds_its_table(table, step):
    # The neighbourhood audit decides containment by this domination, with no slack.
    from shadowlab.scenarios import _chessboard_infconv_table

    assert np.all(_chessboard_infconv_table(table, step) <= table)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(points=st.integers(2, 21), half=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_audit_containment_is_its_domination(points, half, seed):
    from shadowlab.scenarios import neighborhood_equivalence_checks

    checks = neighborhood_equivalence_checks(random_positive_fn(np.random.default_rng(seed)), half, points)
    assert checks["tolerance_ball_inside_neighborhood"] is checks["dominated_by_radius"] is True


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(2, 25), half=st.floats(0.01, 100.0), scale=st.floats(0.01, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_chessboard_sweep_agrees_with_the_pruned_envelope(n, half, scale, seed):
    from shadowlab.scenarios import _chessboard_infconv_table

    axis = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    values = scale * np.random.default_rng(seed).uniform(1e-3, 1.0, size=n * n)
    sweep = _chessboard_infconv_table(values.reshape(n, n), axis[1] - axis[0])
    nodes = Envelope(grid, values).values_at_nodes()
    assert np.allclose(sweep.ravel(), nodes, rtol=1e-12, atol=1e-12)


def test_synthesis_worked_example_constant_tolerance():
    # For a constant tolerance of 1: reference radius 1, ball minimum 0.9,
    # slack 0.45 at the origin and 0.225 at unit radius, strictly decreasing.
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    r0, m = delta_reference_levels(Const(1.0), homothety(2.0))
    assert (r0, m) == (1.0, 0.9)
    assert delta.eval(np.zeros(2)) == pytest.approx(0.45, abs=1e-12)
    assert delta.eval(pt(1, 0)) == pytest.approx(0.225, abs=1e-12)
    assert delta.eval(pt(1, 0)) > delta.eval(pt(2, 0))


def _well(center):
    """min(1, 0.01 + 100 * |x - center|_1): not radial, least at ``center``, 1 at the origin."""
    gaps = [Max(Add(Coord(j), Const(-c)), Add(Mul(Const(-1.0), Coord(j)), Const(c))) for j, c in enumerate(center)]
    return Min(Const(1.0), Add(Const(0.01), Mul(Const(100.0), Add(*gaps))))


@pytest.mark.parametrize("metric", [MetricKind.SUP, MetricKind.EUCLIDEAN])
@pytest.mark.parametrize("count", [7, 64])
def test_reference_ball_minimum_is_taken_on_sample_directions_rays(metric, count):
    # A well centred on each ray point in turn: the minimum has the bits of the
    # rays s*u through geometry.sample_directions, the one unit-sphere sampler.
    dirs = sample_directions(metric, 2, count)
    radii = np.linspace(0.0, 1.0, 33)
    rays = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    for u in dirs:
        eps = _well(0.5 * u)
        r0, ball_min = delta_reference_levels(eps, homothety(2.0), metric, count)
        assert r0 == 1.0
        assert ball_min == 0.9 * float(np.min(eps.eval(rays)))


def test_synthesis_refuses_the_polar_warped_metric():
    # Rays s*u trace the spheres of a norm only; the warped length is not one.
    for build in (delta_reference_levels, synthesize_delta_homothety):
        with pytest.raises(ContractViolation):
            build(Const(1.0), homothety(2.0), MetricKind.POLAR_WARP)


def test_synthesis_dominated_by_half_scaled_tolerance_at_knots():
    eps = saddle_adversarial_epsilon()
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    radii = delta.radii[1:-1]  # skip the origin knot and the subnormal edge
    pts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    d_vals = delta.eval(pts)
    cap = 0.5 * eps.eval(pts) / (1.0 + radii)
    assert np.all(d_vals <= cap * (1 + 1e-12))
    # Between knots only the strict domination by the tolerance itself holds.
    mids = 0.5 * (delta.radii[1:-1] + delta.radii[2:])
    mid_pts = np.stack([mids, np.zeros_like(mids)], axis=-1)
    assert np.all(delta.eval(mid_pts) < eps.eval(mid_pts))


@pytest.mark.parametrize("eps_builder", [
    lambda: Const(1.0),
    saddle_adversarial_epsilon,
    lambda: RadialTable([[0.0, 2.0], [1.0, 1.5], [5.0, 0.5], [20.0, 0.25]]),
])
def test_delta_conditions_strict_at_random_points(eps_builder):
    eps = eps_builder()
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    report = verify_delta_conditions(delta, eps, homothety(2.0), n_points=20_000, rng=np.random.default_rng(3))
    assert report.ok, report.failures


@settings(max_examples=60, derandomize=True, deadline=None)
@given(k=st.floats(1.05, 4.0), flip=st.booleans(), level=st.one_of(st.none(), st.floats(1e-3, 2.0)),
       seed=st.integers(0, 2**32 - 1), metric=st.sampled_from([MetricKind.SUP, MetricKind.EUCLIDEAN]))
def test_synthesized_slack_stays_below_the_escape_bound_outside_r0(k, flip, level, seed, metric):
    # The interpolant just outside r0 starts at the knot at r0, so that knot
    # must respect the escape bound too: a constant below 0.8 under x -> 2x
    # broke it on (r0, r0 + r0/16) when only knots beyond r0 were capped.
    eps = random_positive_fn(np.random.default_rng(seed)) if level is None else Const(level)
    m = homothety(-k if flip else k)
    delta = synthesize_delta_homothety(eps, m, metric)
    r0, _ = delta_reference_levels(eps, m, metric)
    radii = np.linspace(r0, 2.0 * r0, 1025)[1:]
    pts = (radii[:, None, None] * sample_directions(metric, 2, 64)[None, :, :]).reshape(-1, 2)
    norms = metric_norm(metric, pts)
    outside = norms > r0
    assert np.all(delta.eval(pts)[outside] < norms[outside] * (k - 1.0) / (2.0 * k))
    report = verify_delta_conditions(delta, eps, m, metric, n_points=4_000, rng=np.random.default_rng(seed))
    assert report.ok, report.failures


def test_delta_condition_report_names_its_levels():
    eps, m, metric = saddle_adversarial_epsilon(), homothety(2.0), MetricKind.SUP
    delta = synthesize_delta_homothety(eps, m, metric)
    report = verify_delta_conditions(delta, eps, m, metric, n_points=1_000)
    r0, ball_min = delta_reference_levels(eps, m, metric, 256)
    assert (report.r0, report.ball_min, report.factor, report.checked) == (r0, ball_min, 2.0, 1_000)


def test_synthesis_rejects_too_few_directions():
    with pytest.raises(ContractViolation):
        synthesize_delta_homothety(Const(1.0), homothety(2.0), sphere_samples=3)


def test_all_tolerances_strictly_positive_at_a_million_points(rng):
    radii = np.exp(rng.uniform(np.log(1e-6), np.log(1e8), size=1_000_000))
    theta = rng.uniform(0, 2 * np.pi, size=radii.size)
    pts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=-1)
    for fn in (saddle_adversarial_epsilon(), decaying_epsilon(1.0),
               synthesize_delta_homothety(Const(1.0), homothety(2.0)),
               synthesize_delta_homothety(saddle_adversarial_epsilon(), homothety(2.0))):
        values = fn.eval(pts)
        assert np.all(values > 0.0)


def test_random_positive_fn_is_positive_and_decreasing(rng):
    fn = random_positive_fn(rng)
    radii = np.linspace(0, 50, 100)
    pts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    vals = fn.eval(pts)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_radial_table_between_knot_bounds(r):
    table = RadialTable([[0.0, 2.0], [1.0, 1.5], [5.0, 0.5], [20.0, 0.25]])
    value = table.eval(np.array([r, 0.0]))
    assert 0.25 <= value <= 2.0


def test_radial_table_validation():
    with pytest.raises(ContractViolation):
        RadialTable([[1.0, 1.0], [0.5, 2.0]])
    with pytest.raises(PositivityError):
        RadialTable([[0.0, 0.0]])
    with pytest.raises(ContractViolation):
        RadialTable([[0.0, 1.0]], tail="bogus")


def test_harmonic_tail_decreases_and_stays_positive():
    table = RadialTable([[0.0, 1.0], [2.0, 0.5]], tail="harmonic")
    radii = np.array([2.0, 10.0, 1e3, 1e9])
    pts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    vals = table.eval(pts)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert vals[1] == pytest.approx(0.5 * 3.0 / 11.0)
