"""Tests of the benchmark harness's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (9.0, 12.0)]) == 5.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("scenarios.run", "0:a", 0.0, 10.0, None),
        Span("cplus.envelope", "0:a", 1.0, 4.0, 0),
        Span("pseudo_orbit.realize", "0:a", 2.0, 3.0, 1),
        Span("plots.emit", "0:a", 6.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_layer_shares_sum_self_times_over_traced_wall():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 8.0])
    rec = Recorder(clock=lambda: next(ticks))
    outer = rec.begin("scenarios.run")          # 0 .. 8
    inner = rec.begin("shadowing.report")       # 1 .. 3
    rec.finish(inner)
    inner = rec.begin("shadowing.report")       # 4 .. 6
    rec.finish(inner)
    rec.finish(outer)
    m = spans.layer_metrics(rec.spans, Counter(), traced_walls=[10.0], untraced_walls=[8.0])
    assert m["shadowing.share"] == pytest.approx(0.4)
    assert m["scenarios.share"] == pytest.approx(0.4)
    assert m["scenarios.run.self_s"] == pytest.approx(4.0)
    assert m["shadowing.report.calls"] == 2
    assert sum(m[f"{layer}.share"] for layer in spans.LAYERS) <= 1.0
    assert m["trace.overhead_ratio"] == pytest.approx(0.25)


def test_layer_metrics_are_means_per_traced_pass_with_zero_rates_for_idle_layers():
    counts = Counter({"cplus.envelope.pairs": 600, "pseudo_orbit.generate.steps": 0})
    tree = [Span("cplus.envelope", "0:a", 0.0, 2.0, None), Span("cplus.envelope", "1:a", 3.0, 5.0, None)]
    m = spans.layer_metrics(tree, counts, traced_walls=[2.0, 2.0], untraced_walls=[2.0])
    assert m["cplus.envelope.s"] == 2.0
    assert m["cplus.envelope.pairs"] == 300
    assert m["cplus.envelope.pairs_per_s"] == 150
    assert m["pseudo_orbit.generate.steps_per_s"] == 0.0
    assert m["pseudo_orbit.draw_acceptance"] == 0.0


def test_tally_counts_every_failure_against_attempts():
    tally = run.Tally()
    tally.record("0:a", [])
    tally.record("0:b", ["verdict contradicts-paper"])
    tally.record("1:a", [])
    tally.record("1:b", [])
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_ratio == 0.25
    assert tally.passed_ratio == 0.75


class _Job:
    def __init__(self, name, result=None, error=None):
        self.name = name
        self.result = result
        self.error = error

    def run(self):
        if self.error is not None:
            raise self.error
        return self.result

    def check(self, result):
        return workloads.Checked([] if result == "ok" else [f"bad {result}"], f"digest-{result}")


def test_a_raising_job_fails_without_stopping_the_pass():
    jobs = [_Job("a", "ok"), _Job("b", error=RuntimeError("boom")), _Job("c", "wrong")]
    marks, outcomes = run.run_pass(jobs, 0, None)
    assert len(marks) == 4 and marks[-1] > marks[0] and len(outcomes) == 3
    tally = run.Tally()
    run.check_pass(outcomes, 0, tally, {}, None)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "RuntimeError: boom" in tally.problems[0][1][0]


def test_digests_must_repeat_across_passes_and_runs(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    reference = store.reference("src/ensemble/1")
    assert run.digest_problem(reference, "job", "aaa") == []
    assert run.digest_problem(reference, "job", "aaa") == []
    assert run.digest_problem(reference, "job", "bbb") != []
    store.save()
    again = run.DigestStore(tmp_path / "digests.json").reference("src/ensemble/1")
    assert run.digest_problem(again, "job", "aaa") == []
    assert run.digest_problem(again, "job", "ccc") != []
    assert run.DigestStore(tmp_path / "digests.json").reference("src/ensemble/2") == {}


@pytest.mark.parametrize("jump", [0.001, 0.0035, 0.03, 0.2, 0.9])
def test_translation_closed_form_matches_the_certificate(jump):
    from shadowlab import box_feasibility, decaying_epsilon, translation_map
    from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule

    window = 64
    spec = PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, jump]), 0),
                           (-window, window), translation_map(2))
    cert = box_feasibility(spec, decaying_epsilon(1.0), window, 0.0)
    depth = workloads.translation_death_depth(jump, 1.0, window)
    assert cert.emptiness_window == depth
    assert [n for n, _, _ in cert.trace] == workloads.constraint_order(window)[:len(cert.trace)]


def test_patches_reach_every_binding_and_are_undone():
    from shadowlab import pseudo_orbit, scenarios, shadowing
    from shadowlab.cplus import CPlusFn, Envelope

    before = (pseudo_orbit.realize, scenarios.realize, shadowing.realize, CPlusFn.eval)
    rec = Recorder()
    with spans.patched(rec):
        assert scenarios.realize is pseudo_orbit.realize is shadowing.realize
        assert scenarios.realize is not before[0]
        env = Envelope(np.zeros((3, 2)), np.ones(3))
        env.eval(np.ones((4, 2)))
    assert (pseudo_orbit.realize, scenarios.realize, shadowing.realize, CPlusFn.eval) == before
    assert "eval" not in Envelope.__dict__
    assert [s.name for s in rec.spans] == ["cplus.envelope"]
    assert rec.counts["cplus.envelope.pairs"] == 12
    assert rec.counts["cplus.eval.calls"] == 1
