"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import hashlib
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from shadowlab.cplus import (
    Const,
    RadialTable,
    decaying_epsilon,
    delta_reference_levels,
    random_positive_fn,
    saddle_adversarial_epsilon,
    synthesize_delta_homothety,
    verify_delta_conditions,
)
from shadowlab.geometry import MetricKind
from shadowlab.maps import AffineChange, RadialRescale, conjugate_map, homothety, power_map, saddle, translation_map
from shadowlab.pseudo_orbit import (
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    max_splice_jump,
    realize,
    transport_pseudo_orbit,
    validate,
)
from shadowlab.scenarios import SCENARIO_NAMES, builtin_config, neighborhood_equivalence_checks, run_scenario
from shadowlab.shadowing import (
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


# sha256 of every built-in scenario's artifacts, keyed "scenario/file".  A
# change that alters artifact bytes on purpose regenerates it by running this
# module as a script: PYTHONPATH=src python tests/test_acceptance.py, which
# prints the keys whose digest changed (or that none did) before it rewrites.
DIGESTS = Path(__file__).with_name("artifact_digests.json")


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _artifact_digests(root: Path) -> dict:
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.glob("*/*"))}


def _changed_digests(pinned: dict, digests: dict) -> list[str]:
    """Keys whose digest differs between the two tables, or that only one of them has."""
    return sorted(k for k in pinned.keys() | digests.keys() if pinned.get(k) != digests.get(k))


def test_criterion_1_saddle_counterexample():
    eps = saddle_adversarial_epsilon()
    m = saddle()
    fwd = np.array([1.0, 0.0])
    direction = np.array([0.0, 1.0])
    rng = np.random.default_rng(101)

    started = time.perf_counter()
    jumps = []
    windows = []
    for _ in range(5):
        delta = random_positive_fn(rng)
        probe = PseudoOrbitSpec(SplicedRule(fwd, fwd + direction, 0), (-32, 32), m)
        q = max_splice_jump(probe, delta, SUP, direction=direction)
        jumps.append(q)
        spec = PseudoOrbitSpec(SplicedRule(fwd, fwd + q * direction, 0), (-32, 32), m)
        cert = box_feasibility(spec, eps, 32, 0.0)
        assert cert.empty and cert.emptiness_window <= 32
        windows.append(cert.emptiness_window)
    q_max = max(jumps)
    spec = PseudoOrbitSpec(SplicedRule(fwd, fwd + q_max * direction, 0), (-32, 32), m)
    result = sampled_search(spec, eps, SUP, [(0.0, 2.0), (-1.0, 1.0)], 1e-3)
    elapsed = time.perf_counter() - started

    assert result.absent
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _line(1, True, f"5 empty certificates at windows {windows}, oracle absent, {elapsed:.2f}s")


def test_criterion_2_translation_counterexample():
    eps = decaying_epsilon(1.0)
    spec = PseudoOrbitSpec(
        SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-64, 64), translation_map(2))
    started = time.perf_counter()
    cert = box_feasibility(spec, eps, 64, 1e-12)
    result = sampled_search(spec, eps, SUP, [(-1.0, 1.0), (-1.0, 1.0)], 1e-2)
    elapsed = time.perf_counter() - started

    assert cert.empty and cert.emptiness_window <= 64
    assert result.absent
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _line(2, True, f"empty at window {cert.emptiness_window}, oracle absent, {elapsed:.2f}s")


def _tolerance_choices():
    return [
        ("constant", Const(1.0)),
        ("exp2", saddle_adversarial_epsilon()),
        ("table", RadialTable([[0.0, 2.0], [1.0, 1.5], [5.0, 0.5], [20.0, 0.25]])),
    ]


def _shadow_ensemble(m, eps, delta, r0, window, count, seed):
    specs = generate_orbit_ensemble(m, delta, SUP, window, count, seed, r0,
                                    anchored_fraction=0.2,
                                    start_range=(1.05 * r0, 4.0 * r0))
    tallies = {"bounded": 0, "escaping": 0, "unclassified": 0}
    for spec in specs:
        assert validate(spec, delta, SUP).passed
        window_pts = realize(spec)
        cls = classify_pseudo_orbit(window_pts, r0, m, SUP)
        tallies[cls.kind] += 1
        if cls.bounded:
            report = is_shadowed_by(window_pts, np.zeros(2), m, eps, SUP)
        elif cls.escaping:
            _, report = homothety_shadow_report(window_pts, eps, m, SUP)
            bounds = shadow_tail_bound(window_pts, m, delta)
            assert np.all(report.distances <= bounds), "tail bound exceeded"
        else:
            raise AssertionError("unclassified pseudo-orbit")
        assert report.passed, f"negative slack at {report.worst_index}"
    return tallies


def test_criterion_3_homothety_shadowing():
    m = homothety(2.0)
    started = time.perf_counter()
    summary = []
    for i, (name, eps) in enumerate(_tolerance_choices()):
        delta = synthesize_delta_homothety(eps, m, SUP)
        conditions = verify_delta_conditions(delta, eps, m, SUP, n_points=100_000,
                                             rng=np.random.default_rng(500 + i))
        assert conditions.ok, conditions.failures
        r0, _ = delta_reference_levels(eps, m, SUP)
        tallies = _shadow_ensemble(m, eps, delta, r0, (-20, 40), 1000, seed=7000 + 1000 * i)
        assert tallies["unclassified"] == 0
        assert tallies["bounded"] > 0 and tallies["escaping"] > 0
        summary.append(f"{name}:{tallies['bounded']}b/{tallies['escaping']}e")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _line(3, True, f"3 x 1000 orbits shadowed ({', '.join(summary)}), {elapsed:.1f}s")


def test_criterion_4_forward_to_full():
    eps = saddle_adversarial_epsilon()
    m = homothety(2.0)
    delta = synthesize_delta_homothety(eps, m, SUP)
    r0, _ = delta_reference_levels(eps, m, SUP)
    specs = generate_orbit_ensemble(m, delta, SUP, (-30, 40), 100, 331, r0,
                                    anchored_fraction=0.0,
                                    start_range=(1.05 * r0, 4.0 * r0))

    def forward_shadower(z_window):
        return homothety_shadow_point(z_window, m)

    worst = 0.0
    for spec in specs:
        limit = forward_to_full_shadow(spec, eps, forward_shadower, 30, 1e-9, SUP)
        window = realize(spec)
        direct = m.iterate(homothety_shadow_point(window, m), -window.start)
        gap = float(np.max(np.abs(np.asarray(limit - direct, dtype=float))))
        worst = max(worst, gap)
        assert gap <= 1e-8
    _line(4, True, f"100 limits converged at depth 30, worst deviation {worst:.2e}")


def test_criterion_5_neighborhood_equivalence():
    from shadowlab.cplus import Add, Norm, epsilon_from_neighborhood

    radius_fns = {
        "constant": Const(0.7),
        "well": RadialTable([[0.0, 0.1], [0.5, 1.0]]),
        "cone": Add(Const(1.0), Norm(SUP)),
    }
    results = {}
    for name, fn in radius_fns.items():
        checks = neighborhood_equivalence_checks(fn, 10.0, 201, SUP)
        assert checks["one_lipschitz_on_edges"], name
        assert checks["dominated_by_radius"], name
        assert checks["tolerance_ball_inside_neighborhood"], name
        results[name] = checks
    # Constant radius: the output equals the constant exactly, both through
    # the full table and through the defining minimum at sampled nodes.
    assert results["constant"]["envelope_min"] == 0.7
    assert results["constant"]["envelope_max"] == 0.7
    assert results["constant"]["constant_exact"]
    axis = np.linspace(-10.0, 10.0, 201)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    env = epsilon_from_neighborhood(Const(0.7), grid, SUP)
    sampled = np.random.default_rng(5).integers(0, grid.shape[0], size=2000)
    assert np.all(env.eval(grid[sampled]) == 0.7)
    _line(5, True, "3 radius functions on the 201x201 grid: Lipschitz, dominated, contained")


def test_criterion_6_conjugacy_and_power_invariance():
    # Conjugacy transport: affine and radial changes of coordinates.
    m = homothety(2.0)
    eps = Const(1.0)
    delta = synthesize_delta_homothety(eps, m, SUP)
    r0, _ = delta_reference_levels(eps, m, SUP)
    specs = generate_orbit_ensemble(m, delta, SUP, (-10, 20), 50, 404, r0,
                                    anchored_fraction=0.0,
                                    start_range=(1.05 * r0, 4.0 * r0))
    changes = {
        "affine": AffineChange([[0.96, -0.72], [0.72, 0.96]], [0.3, -0.2]),
        "radial": RadialRescale(1.0, 0.5),
    }
    for name, change in changes.items():
        g = conjugate_map(m, change)
        for spec in specs:
            window = realize(spec)
            w, base = homothety_shadow_report(window, eps, m, SUP)
            assert base.passed
            transported = transport_pseudo_orbit(window, change)
            eps_values = np.atleast_1d(eps.eval(window.points))
            eps_prime = transported_epsilon_values(window, eps_values, change, SUP)
            w_zero = m.iterate(w, -window.start)
            report = is_shadowed_by(transported, change.apply(w_zero), g, eps_prime, SUP)
            assert report.passed, f"{name} transport failed at {report.worst_index}"

    # Power invariance: the squared map is the factor-4 homothety and the
    # whole shadowing pipeline goes through with the scaled constants.
    squared = power_map(homothety(2.0), 2)
    assert np.allclose(squared.scales, [4.0, 4.0])
    eps4 = saddle_adversarial_epsilon()
    delta4 = synthesize_delta_homothety(eps4, squared, SUP)
    conditions = verify_delta_conditions(delta4, eps4, squared, SUP,
                                         n_points=50_000, rng=np.random.default_rng(44))
    assert conditions.ok, conditions.failures
    r04, _ = delta_reference_levels(eps4, squared, SUP)
    tallies = _shadow_ensemble(squared, eps4, delta4, r04, (-20, 40), 300, seed=9090)
    assert tallies["unclassified"] == 0
    _line(6, True, f"2 transports x 50 orbits pass; factor-4 pipeline {tallies}")


def test_criterion_7_metric_warp():
    m = saddle()
    q = 0.00500003
    assert q <= 0.01
    spec = PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, q]), 0), (-24, 24), m)
    eps = Const(1.0)
    slack = Const(0.02)
    assert validate(spec, slack, MetricKind.POLAR_WARP).passed
    assert validate(spec, slack, SUP).passed

    box = [(0.0, 4.0), (-2.0, 2.0)]
    warped = sampled_search(spec, eps, MetricKind.POLAR_WARP, box, 5e-3)
    unwarped = sampled_search(spec, eps, SUP, box, 5e-3)
    assert warped.absent, "warped metric unexpectedly admits a grid shadow"
    assert unwarped.found is not None, "sup metric should admit a grid shadow"
    report = is_shadowed_by(realize(spec), unwarped.found, m, eps, SUP)
    assert report.passed
    _line(7, True, f"warped search absent, sup-norm search finds {unwarped.found.tolist()}")


def test_criterion_8_determinism(tmp_path):
    mismatches = []
    slow = []
    for name in SCENARIO_NAMES:
        report_a = run_scenario(builtin_config(name), str(tmp_path / "a"))
        report_b = run_scenario(builtin_config(name), str(tmp_path / "b"))
        assert report_a.verdict == report_b.verdict == "matches-paper", name
        if max(report_a.wall_time, report_b.wall_time) >= 10.0:
            slow.append(name)
        dir_a = tmp_path / "a" / name
        dir_b = tmp_path / "b" / name
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b, name
        for fname in files_a:
            if (dir_a / fname).read_bytes() != (dir_b / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    assert not mismatches, mismatches
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = _artifact_digests(tmp_path / "a")
    changed = _changed_digests(pinned, digests)
    assert not changed, f"artifacts differ from {DIGESTS.name}: {changed}"
    assert not slow, f"over the 10s budget: {slow}"
    _line(8, True, f"{len(SCENARIO_NAMES)} scenarios byte-identical across reruns "
                   f"and to the {len(pinned)} pinned digests")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for name in SCENARIO_NAMES:
            run_scenario(builtin_config(name), out)
        digests = _artifact_digests(Path(out))
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    changed = _changed_digests(pinned, digests)
    print("\n".join(f"changed: {key}" for key in changed) if changed
          else f"no digest changed ({len(digests)} artifacts)")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
