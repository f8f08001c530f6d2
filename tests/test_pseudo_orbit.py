from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.cplus import (
    CPlusFn,
    Const,
    Exp2Neg,
    Mul,
    Norm,
    delta_reference_levels,
    random_positive_fn,
    saddle_adversarial_epsilon,
    synthesize_delta_homothety,
)
from shadowlab import pseudo_orbit
from shadowlab.errors import ContractViolation, IterationRangeError, UnboundedSlackError
from shadowlab.geometry import MetricKind, as_point, distance, euclidean_norm, metric_norm, uniform_ball
from shadowlab.maps import (
    AffineChange,
    DiagonalAffine,
    conjugate_map,
    homothety,
    power_map,
    reverse_homothety,
    saddle,
    translation_map,
)
from shadowlab.pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    max_splice_jump,
    orbit_to_csv,
    random_pseudo_orbit,
    realize,
    spec_meta,
    validate,
)

SUP = MetricKind.SUP


def saddle_splice(q, window=(-32, 32)):
    return PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, q]), 0), window, saddle())


def test_realize_saddle_splice_window():
    q = 0.25
    window = realize(saddle_splice(q), (-2, 2))
    expected = np.array([
        [0.25, 4 * q],
        [0.5, 2 * q],
        [1.0, 0.0],
        [2.0, 0.0],
        [4.0, 0.0],
    ])
    assert np.allclose(window.points, expected)
    assert window.start == -2 and window.stop == 2


def test_realize_explicit_is_identity():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
    spec = PseudoOrbitSpec(ExplicitRule(pts, -1), (-1, 1), homothety(2.0))
    assert np.array_equal(realize(spec).points, pts)
    with pytest.raises(ContractViolation):
        realize(spec, (-2, 1))


def test_realize_translation_splice():
    q = 0.4
    spec = PseudoOrbitSpec(
        SplicedRule(np.zeros(2), np.array([0.0, q]), 0), (-1, 1), translation_map(2))
    window = realize(spec)
    assert np.allclose(window.points, [[-1.0, q], [0.0, 0.0], [1.0, 0.0]])


def test_validate_true_orbit_has_vanishing_gaps():
    # The step defect of a closed-form true orbit is zero up to the rounding
    # of re-applying the map to the realized points.
    for m in (saddle(), homothety(2.0), translation_map(2), reverse_homothety(0.5)):
        spec = PseudoOrbitSpec(
            SplicedRule(np.array([0.3, -0.2]), np.array([0.3, -0.2]), 0), (-6, 6), m)
        for delta in (Const(1e-9), Const(1.0)):
            report = validate(spec, delta, SUP)
            assert report.passed
            scale = np.max(np.abs(realize(spec).points))
            assert np.all(report.gaps <= 4 * np.finfo(float).eps * max(scale, 1.0))


def test_validate_splice_jump_against_slack():
    delta = Const(0.2)
    good = validate(saddle_splice(0.1), delta, SUP, window=(-4, 4))
    assert good.passed
    # Doubling the slack value at the splice image breaks exactly one step.
    bad = validate(saddle_splice(0.4), delta, SUP, window=(-4, 4))
    assert not bad.passed
    assert bad.failing_steps() == [-1]


def test_max_splice_jump_constant_slack():
    q = max_splice_jump(saddle_splice(1.0), Const(0.5), SUP)
    # The jump is measured at the backward seed, so the admissible supremum
    # equals the constant slack; 0.99 of it comes back.
    assert q == pytest.approx(0.495, rel=1e-3)
    assert 0.49 < q < 0.5


def test_max_splice_jump_with_synthesized_slack():
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    _, m_level = delta_reference_levels(eps, homothety(2.0))
    q = max_splice_jump(saddle_splice(1.0), delta, SUP)
    assert 0.0 < q < m_level / 2
    report = validate(PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, q]), 0), (-4, 4), saddle()),
        delta, SUP)
    assert report.passed


def test_max_splice_jump_requires_spliced_rule():
    spec = PseudoOrbitSpec(ExplicitRule(np.zeros((3, 2)), -1), (-1, 1), saddle())
    with pytest.raises(ContractViolation):
        max_splice_jump(spec, Const(1.0), SUP)


def reference_max_splice_jump(spec, delta, metric=SUP, direction=None, levels=80):
    """The one-point search: doubling, then ``levels`` bisection levels, one map and slack call each."""
    rule = spec.rule
    if direction is None:
        direction = rule.backward_seed - rule.forward_seed
    direction = as_point(direction)
    if metric is MetricKind.POLAR_WARP:
        scale = float(euclidean_norm(direction))
    else:
        scale = float(metric_norm(metric, direction))
    u = direction / scale
    right = spec.map.iterate(rule.forward_seed, rule.splice)

    def admissible(q: float) -> bool:
        left = spec.map.iterate(rule.forward_seed + q * u, rule.splice)
        gap = float(distance(metric, left, right))
        bound = float(delta.eval(left))
        return gap < bound

    hi = float(delta.eval(rule.forward_seed))
    for _ in range(200):
        if not admissible(hi):
            break
        hi *= 2.0
    else:
        raise UnboundedSlackError(hi)
    lo = 0.0
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    q = 0.99 * lo
    while q > 0.0 and not admissible(q):
        q *= 0.5
    return q


_SYNTHESIZED = synthesize_delta_homothety(Const(1.0), homothety(2.0))


def _slacks():
    return st.one_of(
        st.floats(1e-3, 10.0).map(Const),
        st.integers(0, 2**32 - 1).map(lambda seed: random_positive_fn(np.random.default_rng(seed))),
        st.just(_SYNTHESIZED),
    )


def _maps():
    scales = st.floats(0.25, 4.0).flatmap(lambda a: st.sampled_from([a, -a]))
    return st.one_of(
        st.just(saddle()), st.sampled_from([2.0, -3.0, 0.5]).map(homothety), st.just(translation_map(2)),
        st.builds(lambda a, b, t, s: DiagonalAffine([a, b], [t, s]), scales, scales,
                  st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )


def _points(lo=-4.0, hi=4.0):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(np.array)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(delta=_slacks(), metric=st.sampled_from(list(MetricKind)), m=_maps(), splice=st.integers(0, 3),
       seed=_points(), direction=_points(-1.0, 1.0).filter(lambda u: np.any(u != 0.0)),
       levels=st.sampled_from([80, 1, 5, 6, 7, 13, 20]))
def test_blocked_splice_jump_matches_the_one_point_search(delta, metric, m, splice, seed, direction, levels):
    # After 80 levels the bracket has shrunk to adjacent doubles, whatever midpoints led
    # there; fewer levels stop on a midpoint, so they check each one's bits and the walk.
    spec = PseudoOrbitSpec(SplicedRule(seed, seed, splice), (-4, 4), m)
    with mock.patch.object(pseudo_orbit, "_BISECT_LEVELS", levels):
        q = max_splice_jump(spec, delta, metric, direction)
    assert q == reference_max_splice_jump(spec, delta, metric, direction, levels)


class _CountingSlack(CPlusFn):
    """A slack that counts its ``eval`` calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def eval(self, p):
        self.calls += 1
        return self.inner.eval(p)


def test_splice_jump_search_makes_few_slack_calls():
    # The five slacks saddle-not-tsp draws at its seed, 83 calls each one point at a time.
    rng = np.random.default_rng(11)
    for _ in range(5):
        delta = _CountingSlack(random_positive_fn(rng))
        q = max_splice_jump(saddle_splice(1.0), delta, SUP, direction=np.array([0.0, 1.0]))
        assert q > 0.0 and delta.calls <= 20


def test_splice_jump_refuses_a_seed_where_every_jump_rounds_away():
    spec = PseudoOrbitSpec(SplicedRule(np.array([0.0, 1e300]), np.array([0.0, 1e300]), 0), (-4, 4), saddle())
    with pytest.raises(UnboundedSlackError):
        max_splice_jump(spec, Const(1.0), SUP, direction=np.array([0.0, 1.0]))


def test_classify_bounded_escaping_unclassified():
    at_origin = OrbitWindow(-2, np.zeros((5, 2)))
    assert classify_pseudo_orbit(at_origin, 1.0, homothety(2.0), SUP).bounded

    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    r0, _ = delta_reference_levels(eps, homothety(2.0))
    rng = np.random.default_rng(8)
    spec = random_pseudo_orbit(homothety(2.0), delta, SUP, (-5, 20), np.array([2 * r0, 0.0]), rng)
    window = realize(spec)
    cls = classify_pseudo_orbit(window, r0, homothety(2.0), SUP)
    assert cls.escaping
    norms = np.max(np.abs(window.points), axis=-1)
    tail = norms[cls.escape_index - window.start:]
    assert np.all(tail[1:] > 1.5 * tail[:-1])

    # A sequence that leaves the ball and then jumps back in fits neither
    # class: the classifier must refuse it rather than force a label.
    zigzag = OrbitWindow(0, np.array([[0.5, 0], [3.0, 0], [0.2, 0], [4.0, 0]]))
    assert classify_pseudo_orbit(zigzag, 1.0, homothety(2.0), SUP).kind == "unclassified"


def test_escaping_growth_compounds():
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    r0, _ = delta_reference_levels(eps, homothety(2.0))
    specs = generate_orbit_ensemble(homothety(2.0), delta, SUP, (-10, 30), 50, 4242, r0,
                                    anchored_fraction=0.0, start_range=(1.05 * r0, 4 * r0))
    for spec in specs:
        window = realize(spec)
        cls = classify_pseudo_orbit(window, r0, homothety(2.0), SUP)
        assert cls.escaping
        norms = np.max(np.abs(window.points), axis=-1)
        i0 = cls.escape_index - window.start
        steps = np.arange(len(window) - i0)
        assert np.all(norms[i0:] >= (1.5 ** steps) * norms[i0] * (1 - 1e-12))


def test_dichotomy_over_fully_random_ensemble():
    # Unrestricted random starts, including deep inside the ball: under a
    # synthesized slack the classifier must never need the third label.
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    r0, _ = delta_reference_levels(eps, homothety(2.0))
    specs = generate_orbit_ensemble(homothety(2.0), delta, SUP, (-20, 40), 1000, 97, r0,
                                    anchored_fraction=0.2, start_range=(1e-2 * r0, 4 * r0))
    kinds = {"bounded": 0, "escaping": 0, "unclassified": 0}
    for spec in specs:
        kinds[classify_pseudo_orbit(realize(spec), r0, homothety(2.0), SUP).kind] += 1
    assert kinds["unclassified"] == 0
    assert kinds["escaping"] > 0 and kinds["bounded"] > 0


def test_random_orbits_always_validate():
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    r0, _ = delta_reference_levels(eps, homothety(2.0))
    specs = generate_orbit_ensemble(homothety(2.0), delta, SUP, (-15, 25), 60, 31337, r0)
    for spec in specs:
        assert validate(spec, delta, SUP).passed


def test_ensemble_deterministic_per_seed():
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, homothety(2.0))
    r0, _ = delta_reference_levels(eps, homothety(2.0))
    a = generate_orbit_ensemble(homothety(2.0), delta, SUP, (-5, 10), 7, 123, r0)
    b = generate_orbit_ensemble(homothety(2.0), delta, SUP, (-5, 10), 7, 123, r0)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.rule.points, sb.rule.points)


def test_orbit_csv_format():
    spec = saddle_splice(0.125)
    window = realize(spec, (-2, 2))
    text = orbit_to_csv(window, spec_meta(spec))
    lines = text.split("\r\n")
    meta = [l for l in lines if l.startswith("#")]
    assert any("map=" in l for l in meta) and any("window=" in l for l in meta)
    rows = [l for l in lines if l and not l.startswith("#")]
    assert rows[0] == "n,x1,x2"
    assert rows[1].startswith("-2,")
    assert len(rows) == 6


def test_window_must_contain_zero():
    with pytest.raises(ContractViolation):
        PseudoOrbitSpec(SplicedRule(np.zeros(2), np.ones(2), 0), (1, 5), saddle())


# ---------------------------------------------------------------------------
# The one-orbit, one-draw loop the lockstep generator must reproduce
# ---------------------------------------------------------------------------


def _draw_in_ball(metric, dim, radius, rng):
    return uniform_ball(metric, dim, rng, 1)[0] * radius


def _ball_stream(metric, dim, rng, block):
    """The unit-ball draws of one orbit: ``uniform_ball`` blocks, concatenated."""
    while True:
        yield from uniform_ball(metric, dim, rng, block)


def reference_random_pseudo_orbit(m, delta, metric, window, seed_point, rng, keep_within=None):
    """Scalar reference: one orbit, one point and one ball draw at a time.

    The draws are read one by one from the orbit's stream of blocks of one
    window's step count; under SUP that is the sequence of single draws.
    """
    n_min, n_max = window
    x0 = as_point(seed_point)
    dim = x0.size
    draws = _ball_stream(metric, dim, rng, n_max - n_min)
    forward = [x0]
    x = x0
    for _ in range(n_max):
        fx = m.apply(x)
        rad = 0.99 * float(delta.eval(fx))
        for _ in range(10_000):
            r = next(draws) * rad
            nxt = fx + r
            for _ in range(200):
                if float(distance(metric, nxt, fx)) < rad:
                    break
                r = r * 0.5
                nxt = fx + r
            else:
                nxt = fx
            if keep_within is None or float(metric_norm(metric, nxt)) <= keep_within:
                break
        else:
            nxt = fx
        forward.append(nxt)
        x = nxt
    backward = []
    x = x0
    for _ in range(-n_min):
        rad = 0.99 * float(delta.eval(x))
        exact = m.apply_inverse(x)
        for _ in range(10_000):
            r = next(draws) * rad
            target = x - r
            for _ in range(200):
                if float(metric_norm(metric, r)) < 0.99 * float(delta.eval(target)):
                    prev = m.apply_inverse(target)
                    break
                r = r * 0.5
                target = x - r
            else:
                prev = exact
            if keep_within is None or float(metric_norm(metric, prev)) <= keep_within:
                break
        else:
            prev = exact
        backward.append(prev)
        x = prev
    return np.stack(backward[::-1] + forward)


def reference_ensemble(m, delta, metric, window, count, seed, r0, anchored_fraction, start_range):
    """Scalar reference for ``generate_orbit_ensemble``: the orbits one after another."""
    dim = m.dimension
    delta0 = float(delta.eval(np.zeros(dim)))
    k = float(np.max(np.abs(m.scales)))
    keep = 0.45 * min(delta0, r0) / max(1.0, k - 1.0)
    n_anchored = int(round(anchored_fraction * count))
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        if i < n_anchored:
            x0 = _draw_in_ball(metric, dim, 0.25 * keep, rng)
            out.append(reference_random_pseudo_orbit(m, delta, metric, window, x0, rng,
                                                     keep_within=keep))
        else:
            lo, hi = start_range
            radius = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            u = rng.standard_normal(dim)
            u /= max(float(metric_norm(metric, u)), 1e-300)
            out.append(reference_random_pseudo_orbit(m, delta, metric, window, radius * u, rng))
    return out


_SHADOWED_MAPS = {
    "homothety": homothety(2.0),
    "squared-homothety": power_map(homothety(2.0), 2),
    "inverted-reverse-homothety": power_map(reverse_homothety(0.5), -1),
}


@pytest.mark.parametrize("name", sorted(_SHADOWED_MAPS))
@pytest.mark.parametrize("anchored_fraction", [0.0, 0.2])
def test_lockstep_ensemble_matches_scalar_reference(name, anchored_fraction):
    m = _SHADOWED_MAPS[name]
    assert isinstance(m, DiagonalAffine)
    eps = saddle_adversarial_epsilon()
    delta = synthesize_delta_homothety(eps, m, SUP)
    r0, _ = delta_reference_levels(eps, m, SUP)
    for seed in (1, 17, 23):
        args = (m, delta, SUP, (-12, 24), 25, seed, r0)
        kwargs = dict(anchored_fraction=anchored_fraction, start_range=(0.3 * r0, 4.0 * r0))
        got = generate_orbit_ensemble(*args, **kwargs)
        want = reference_ensemble(*args, **kwargs)
        assert len(got) == len(want)
        for spec, points in zip(got, want):
            assert spec.window == (-12, 24) and spec.rule.start == -12
            assert np.array_equal(spec.rule.points, points)


_SINGLE_ORBIT_CASES = [
    (4, [0.0, 0.0], None), (8, [2.5, 0.0], None), (4, [0.0, 0.0], 0.2), (9, [0.05, -0.1], 0.2),
]


@pytest.mark.parametrize("seed, x0, keep_within", _SINGLE_ORBIT_CASES)
def test_single_orbit_matches_scalar_reference(seed, x0, keep_within):
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    args = (homothety(2.0), delta, SUP, (-10, 10), np.array(x0))
    got = random_pseudo_orbit(*args, np.random.default_rng(seed), keep_within=keep_within)
    want = reference_random_pseudo_orbit(*args, np.random.default_rng(seed), keep_within=keep_within)
    assert got.window == (-10, 10)
    assert np.array_equal(got.rule.points, want)


@pytest.mark.parametrize("width", [1, 2, pseudo_orbit._BATCH])
@pytest.mark.parametrize("metric", [SUP, MetricKind.EUCLIDEAN])
def test_batched_rejection_matches_the_reference_at_any_width(monkeypatch, metric, width):
    # Batches cross block boundaries at every width.  Window (-1, 2) has
    # blocks of 3 draws, fewer than the default width, so one peek pulls several.
    monkeypatch.setattr(pseudo_orbit, "_BATCH", width)
    m = homothety(2.0)
    delta = synthesize_delta_homothety(Const(1.0), m, metric)
    for window in ((-10, 10), (-1, 2)):
        for seed, x0, keep_within in _SINGLE_ORBIT_CASES:
            args = (m, delta, metric, window, np.array(x0))
            got = random_pseudo_orbit(*args, np.random.default_rng(seed), keep_within=keep_within)
            want = reference_random_pseudo_orbit(*args, np.random.default_rng(seed),
                                                 keep_within=keep_within)
            assert np.array_equal(got.rule.points, want), (window, seed)
    eps = saddle_adversarial_epsilon()
    delta = synthesize_delta_homothety(eps, m, metric)
    r0, _ = delta_reference_levels(eps, m, metric)
    for window in ((-12, 24), (-1, 2)):
        args = (m, delta, metric, window, 10, 17, r0)
        kwargs = dict(anchored_fraction=0.5, start_range=(0.3 * r0, 4.0 * r0))
        got = generate_orbit_ensemble(*args, **kwargs)
        for spec, points in zip(got, reference_ensemble(*args, **kwargs)):
            assert np.array_equal(spec.rule.points, points), window


@st.composite
def _expanding_maps(draw):
    """|k| in [1.2, 8] with either sign: a homothety, diag(k, -k), or a power of reverse_homothety."""
    k = draw(st.floats(1.2, 8.0)) * draw(st.sampled_from([1.0, -1.0]))
    form = draw(st.sampled_from(["homothety", "diagonal", "power"]))
    if form == "homothety":
        return homothety(k)
    if form == "diagonal":
        return DiagonalAffine([k, -k])
    p = draw(st.sampled_from([-2, -1, 2]))
    return power_map(reverse_homothety(np.sign(k) * abs(k) ** (1.0 / p)), p)


@st.composite
def _windows(draw):
    n_min = draw(st.integers(-6, 0))
    return n_min, draw(st.integers(0 if n_min else 1, 8))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(m=_expanding_maps(), metric=st.sampled_from([SUP, MetricKind.EUCLIDEAN]),
       eps=st.one_of(st.floats(0.05, 2.0).map(Const), st.just(saddle_adversarial_epsilon()),
                     st.integers(0, 2**32 - 1).map(lambda s: random_positive_fn(np.random.default_rng(s)))),
       window=st.one_of(_windows(), st.just((-1, 2))), count=st.integers(1, 4), seed=st.integers(0, 2**16),
       anchored_fraction=st.sampled_from([0.0, 0.5, 1.0]), width=st.sampled_from([1, 2, 16]))
def test_ensemble_matches_the_reference_over_maps_tolerances_and_widths(m, metric, eps, window, count, seed,
                                                                         anchored_fraction, width):
    # From k = 4 on, anchored steps reject most draws and their rounds reach the widest batch.
    delta = synthesize_delta_homothety(eps, m, metric)
    r0, _ = delta_reference_levels(eps, m, metric)
    args = (m, delta, metric, window, count, seed, r0)
    kwargs = dict(anchored_fraction=anchored_fraction, start_range=(1e-2 * r0, 4.0 * r0))
    with mock.patch.object(pseudo_orbit, "_BATCH", width):
        got = generate_orbit_ensemble(*args, **kwargs)
    for spec, points in zip(got, reference_ensemble(*args, **kwargs), strict=True):
        assert np.array_equal(spec.rule.points, points)


def _spy_peeks(monkeypatch) -> list:
    """Record, for every ``_BallStreams.peek``, its width, the largest row fill after it,
    and the fill bound ``block + max(_BATCH, block)``."""
    seen, peek = [], pseudo_orbit._BallStreams.peek

    def spy(self, rows, b):
        out = peek(self, rows, b)
        seen.append((b, int(self.fill.max()), self.block + max(pseudo_orbit._BATCH, self.block)))
        return out

    monkeypatch.setattr(pseudo_orbit._BallStreams, "peek", spy)
    return seen


@pytest.mark.parametrize("metric", [SUP, MetricKind.EUCLIDEAN])
def test_capped_steps_use_the_reference_draws(monkeypatch, metric):
    # From 1.6 the anchor ball of radius 0.6 is out of reach for the forward
    # step and the first backward step (the slack there is about 0.05): each
    # tests its 10 000 draws and takes the exact step.  From 0.8 every draw is
    # kept, so the second backward step takes the first draw past those the
    # capped steps used, and a cursor one off shows.  Widths that kept
    # doubling would fill a row with about 10 000 draws.
    peeks = _spy_peeks(monkeypatch)
    m = homothety(2.0)
    delta = synthesize_delta_homothety(Const(1.0), m, metric)
    args = (m, delta, metric, (-2, 1), np.array([1.6, 0.0]))
    got = random_pseudo_orbit(*args, np.random.default_rng(3), keep_within=0.6).rule.points
    exact = [np.array_equal(got[i], m.apply_inverse(got[i + 1])) for i in range(2)]
    exact.append(np.array_equal(got[3], m.apply(got[2])))
    assert exact == [False, True, True]
    want = reference_random_pseudo_orbit(*args, np.random.default_rng(3), keep_within=0.6)
    assert np.array_equal(got, want)
    assert len(peeks) > 1000 and all(fill <= bound for _, fill, bound in peeks)


def test_free_orbits_draw_one_block_each(monkeypatch):
    sizes = []

    def counting(metric, dim, rng, n):
        sizes.append(n)
        return uniform_ball(metric, dim, rng, n)

    monkeypatch.setattr(pseudo_orbit, "uniform_ball", counting)
    delta = synthesize_delta_homothety(Const(1.0), homothety(4.0))
    generate_orbit_ensemble(homothety(4.0), delta, SUP, (-6, 12), 9, 2, 1.0, anchored_fraction=0.0)
    assert sizes == [18] * 9


@pytest.mark.parametrize("metric", [SUP, MetricKind.EUCLIDEAN])
def test_anchored_rejection_makes_few_peeks(monkeypatch, metric):
    # 36 steps of 20 anchored orbits at k = 4, where most draws are rejected.
    # One draw, then batches of 16, made 254 peeks under SUP and 260 under EUCLIDEAN.
    peeks = _spy_peeks(monkeypatch)
    m = homothety(4.0)
    eps = saddle_adversarial_epsilon()
    delta = synthesize_delta_homothety(eps, m, metric)
    r0, _ = delta_reference_levels(eps, m, metric)
    generate_orbit_ensemble(m, delta, metric, (-12, 24), 20, 5, r0, anchored_fraction=1.0)
    assert len(peeks) <= 150 and all(fill <= bound for _, fill, bound in peeks)


def test_a_backward_draw_that_never_fits_gives_the_exact_step():
    # Around the origin the slack 2^(-1e70 |x|) falls to the smallest
    # subnormal past |x| ~ 1e-67, so a draw of radius 0.99 fits only after
    # about 230 halvings: each draw stops at 200 and takes the exact step 0.
    delta = Exp2Neg(Mul(Const(1e70), Norm(SUP)))
    args = (homothety(2.0), delta, SUP, (-3, 0), np.zeros(2))
    got = random_pseudo_orbit(*args, np.random.default_rng(0)).rule.points
    assert np.array_equal(got, np.zeros((4, 2)))
    assert np.array_equal(got, reference_random_pseudo_orbit(*args, np.random.default_rng(0)))


@pytest.mark.parametrize("metric", [SUP, MetricKind.EUCLIDEAN])
def test_ball_streams_read_each_orbit_stream_in_order(metric):
    # Peeks of any width, with cursor moves short of and up to the peek, read the
    # concatenated blocks.
    block = 3
    want = []
    for s in (5, 6):
        rng = np.random.default_rng(s)
        want.append(np.concatenate([uniform_ball(metric, 2, rng, block) for _ in range(20)]))
    streams = pseudo_orbit._BallStreams(metric, 2, [np.random.default_rng(s) for s in (5, 6)], block)
    rows, pos = np.arange(2), np.zeros(2, dtype=int)
    steps = [(1, [0, 1]), (3, [3, 2]), (16, [16, 3]), (2, [2, 2]), (5, [0, 5]), (16, [7, 16]), (1, [1, 1])]
    for b, used in steps:
        got = streams.peek(rows, b)
        for i in rows:
            assert np.array_equal(got[i], want[i][pos[i]:pos[i] + b])
        streams.cursor[rows] += used
        pos += used


@pytest.mark.parametrize("kwargs", [
    dict(start_range=(0.0, 1.0)), dict(start_range=(-1.0, 1.0)), dict(start_range=(np.nan, 1.0)),
    dict(anchored_fraction=1.5), dict(anchored_fraction=-0.5), dict(anchored_fraction=np.nan),
    dict(r0=0.0), dict(r0=np.nan),
])
def test_ensemble_refuses_bad_arguments(kwargs):
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    [name] = kwargs
    with pytest.raises(ContractViolation, match=name):
        generate_orbit_ensemble(homothety(2.0), delta, SUP, (-4, 8), 3, 1, **{"r0": 1.0, **kwargs})


@pytest.mark.parametrize("keep_within", [0.0, -1.0, np.nan])
def test_random_orbit_refuses_a_non_positive_anchor(keep_within):
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    with pytest.raises(ContractViolation, match="keep_within"):
        random_pseudo_orbit(homothety(2.0), delta, SUP, (-2, 2), np.zeros(2),
                            np.random.default_rng(0), keep_within=keep_within)


def test_ensemble_prefix_is_order_independent():
    eps, m = Const(1.0), homothety(2.0)
    for metric in (SUP, MetricKind.EUCLIDEAN):
        delta = synthesize_delta_homothety(eps, m, metric)
        r0, _ = delta_reference_levels(eps, m, metric)
        seven = generate_orbit_ensemble(m, delta, metric, (-6, 12), 7, 55, r0, anchored_fraction=0.0)
        three = generate_orbit_ensemble(m, delta, metric, (-6, 12), 3, 55, r0, anchored_fraction=0.0)
        for a, b in zip(seven[:3], three):
            assert np.array_equal(a.rule.points, b.rule.points), metric


def test_euclidean_ensemble_validates_and_repeats():
    eps = Const(1.0)
    metric = MetricKind.EUCLIDEAN
    delta = synthesize_delta_homothety(eps, homothety(2.0), metric)
    r0, _ = delta_reference_levels(eps, homothety(2.0), metric)
    a = generate_orbit_ensemble(homothety(2.0), delta, metric, (-8, 16), 12, 5, r0)
    b = generate_orbit_ensemble(homothety(2.0), delta, metric, (-8, 16), 12, 5, r0)
    for sa, sb in zip(a, b):
        assert validate(sa, delta, metric).passed
        assert np.array_equal(sa.rule.points, sb.rule.points)


@pytest.mark.parametrize("anchored_fraction", [1.0, 0.5])
def test_anchored_radius_comes_from_the_map_not_its_class(anchored_fraction):
    # The anchored radius follows the map's expansion, whatever its class: an
    # identity conjugate of homothety(4) draws homothety(4)'s ensemble.
    h = homothety(4.0)
    delta = synthesize_delta_homothety(Const(1.0), h)
    r0, _ = delta_reference_levels(Const(1.0), h)
    same = conjugate_map(h, AffineChange(np.eye(2), np.zeros(2)))
    want = generate_orbit_ensemble(h, delta, SUP, (-4, 8), 4, 3, r0, anchored_fraction=anchored_fraction)
    got = generate_orbit_ensemble(same, delta, SUP, (-4, 8), 4, 3, r0, anchored_fraction=anchored_fraction)
    for a, b in zip(want, got):
        assert np.array_equal(a.rule.points, b.rule.points)


@pytest.mark.parametrize("count", [0, -3])
def test_empty_ensemble_is_refused(count):
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    with pytest.raises(ContractViolation):
        generate_orbit_ensemble(homothety(2.0), delta, SUP, (-4, 8), count, 1, 1.0)


@pytest.mark.parametrize("factor, n", [(1e300, 2), (1e-300, -2)])
def test_ensemble_leaving_double_range_is_refused(factor, n):
    with pytest.raises(IterationRangeError) as err:
        generate_orbit_ensemble(homothety(factor), Const(0.5), SUP, (-4, 4), 3, 1, 1.0,
                                anchored_fraction=0.0, start_range=(1.0, 2.0))
    assert err.value.n == n


def test_random_orbit_window_must_contain_zero():
    delta = synthesize_delta_homothety(Const(1.0), homothety(2.0))
    for window in ((1, 5), (0, 0)):
        with pytest.raises(ContractViolation):
            random_pseudo_orbit(homothety(2.0), delta, SUP, window, np.zeros(2),
                                np.random.default_rng(0))
