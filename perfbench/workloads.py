"""Seeded job sets for the shadowlab benchmark, with the checks on their results.

A workload is a list of jobs built from the workload seed.  A job has a
``run`` step, which is the timed call into shadowlab, and a ``check`` step,
which the harness runs afterwards, outside the timed region and outside the
trace.  ``check`` returns a :class:`Checked`: the problems found (none when
the job passed) and the sha256 of the job's artifact bytes.

Scenario jobs take the path of ``shadowlab run cfg.json``: a JSON config
written at set-up, then ``load_config`` and ``run_scenario``.  Each config
seed is drawn from the workload seed.  Direct jobs call the grid oracle and
the exact certificate on inputs drawn from the same seed.  Every job has an
expected outcome that the check pins.

Module attributes of shadowlab are looked up at call time
(``scenarios.run_scenario``, ``shadowing.sampled_search``), so the traced
run's patches reach the calls made here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shadowlab import scenarios, shadowing
from shadowlab.cplus import Const, decaying_epsilon, random_positive_fn
from shadowlab.geometry import MetricKind
from shadowlab.maps import AffineChange, conjugate_map, saddle, translation_map
from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule, realize

WORKLOADS = ("ensemble", "envelope", "oracle")

ENSEMBLE_SCENARIOS = ("homothety-tsp", "reverse-homothety-tsp", "power-invariance",
                      "conjugacy-invariance", "forward-to-full")
ORACLE_SCENARIOS = ("saddle-not-tsp", "translation-adversarial", "metric-warp",
                    "fixed-point-scan")

# Spans that must record at least one call in a traced run of the workload.
EXPECTED_SPANS = {
    "ensemble": ("pseudo_orbit.generate", "pseudo_orbit.validate", "pseudo_orbit.classify",
                 "pseudo_orbit.realize", "cplus.synthesize", "cplus.verify",
                 "shadowing.report", "shadowing.forward_to_full", "shadowing.transport",
                 "scenarios.run", "plots.emit"),
    "envelope": ("cplus.envelope", "scenarios.audit", "scenarios.run"),
    "oracle": ("shadowing.search.diagonal", "shadowing.search.conjugated",
               "shadowing.box_feasibility", "pseudo_orbit.max_splice_jump",
               "pseudo_orbit.realize", "scenarios.run", "plots.emit"),
}

# Conjugated-saddle splices: g = h o saddle o h^-1 with h(p) = A p + b.  In
# the inner coordinates the window is the saddle splice (a, 0) / (a, q), and
# h(a, q) shadows it exactly when |A (0, q)|_inf = 0.96 q < epsilon.  For
# 0.96 q >= 1.5 epsilon no point shadows it: the backward constraints pin the
# inner second coordinate to q within 0.02 epsilon, and |A v|_inf >= 0.85
# |v|_inf.  Both searches scan the same box with the same step.
CONJ_MATRIX = ((0.96, -0.72), (0.72, 0.96))
CONJ_OFFSET = (0.3, -0.2)
CONJ_WINDOW = (-6, 6)
CONJ_BOX = ((-1.0, 3.0), (-1.0, 3.0))
CONJ_STEP = 2e-3

# Translation certificates: x -> x + e1 under decaying_epsilon(rate).
CERT_WINDOW = 512
CERT_RATE = 1.0
CERT_NONEMPTY = 8
CERT_EMPTY = 8


@dataclass
class Checked:
    problems: list[str]
    digest: str
    artifacts: int = 0
    artifact_bytes: int = 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ScenarioJob:
    """One scenario config run as ``shadowlab run cfg.json`` does."""

    def __init__(self, name: str, config_path: Path, out_dir: Path):
        self.name = name
        self.config_path = config_path
        self.out_dir = out_dir

    def run(self):
        config = scenarios.load_config(str(self.config_path))
        return scenarios.run_scenario(config, str(self.out_dir))

    def check(self, report) -> Checked:
        problems = []
        if report.verdict != "matches-paper":
            problems.append(f"verdict {report.verdict}")
        digest = hashlib.sha256()
        total = 0
        paths = sorted(set(report.artifacts))
        for path in paths:
            data = Path(path).read_bytes()
            total += len(data)
            digest.update(Path(path).relative_to(self.out_dir).as_posix().encode() + b"\0")
            digest.update(data)
        return Checked(problems, digest.hexdigest(), len(paths), total)


class SearchJob:
    """``sampled_search`` on a conjugated saddle splice with a pinned outcome."""

    def __init__(self, name: str, spec: PseudoOrbitSpec, epsilon: float, expect_found: bool):
        self.name = name
        self.spec = spec
        self.epsilon = Const(epsilon)
        self.expect_found = expect_found

    def run(self):
        return shadowing.sampled_search(self.spec, self.epsilon, MetricKind.SUP,
                                        CONJ_BOX, CONJ_STEP)

    def check(self, result) -> Checked:
        problems = []
        found = result.found is not None
        if found != self.expect_found:
            problems.append(f"expected {'found' if self.expect_found else 'absent'}, "
                            f"got {'found' if found else 'absent'}")
        elif found:
            report = shadowing.is_shadowed_by(realize(self.spec), result.found, self.spec.map,
                                              self.epsilon, MetricKind.SUP)
            if not report.passed:
                problems.append(f"found point fails is_shadowed_by at n={report.worst_index}")
        return Checked(problems, _sha256(json.dumps(result.to_obj(), sort_keys=True).encode()))


class CertificateJob:
    """``box_feasibility`` on a translation splice; the depth is pinned by the closed form."""

    def __init__(self, name: str, jump: float):
        self.name = name
        self.jump = jump
        self.epsilon = decaying_epsilon(CERT_RATE)
        self.spec = PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, jump]), 0),
                                    (-CERT_WINDOW, CERT_WINDOW), translation_map(2))
        self.expect_depth = translation_death_depth(jump, CERT_RATE, CERT_WINDOW)

    def run(self):
        return shadowing.box_feasibility(self.spec, self.epsilon, CERT_WINDOW, 0.0)

    def check(self, cert) -> Checked:
        problems = []
        if self.expect_depth is None:
            if cert.empty:
                problems.append(f"expected nonempty, died at depth {cert.emptiness_window}")
            elif len(cert.trace) != 2 * CERT_WINDOW + 1:
                problems.append(f"nonempty after {len(cert.trace)} constraints")
            else:
                report = shadowing.is_shadowed_by(realize(self.spec), cert.witness,
                                                  self.spec.map, self.epsilon)
                if not report.passed:
                    problems.append(f"witness fails is_shadowed_by at n={report.worst_index}")
        elif not cert.empty or cert.emptiness_window != self.expect_depth:
            problems.append(f"expected empty at depth {self.expect_depth}, got {cert.outcome} "
                            f"at {cert.emptiness_window}")
        return Checked(problems, _sha256(cert.to_json().encode()))


def constraint_order(window: int) -> list[int]:
    """Window indices in the order the certificate processes them: 0, 1, -1, 2, -2, ..."""
    order = [0]
    for k in range(1, window + 1):
        order += [k, -k]
    return order


def translation_death_depth(jump: float, rate: float, window: int) -> int | None:
    """Closed-form depth at which the translation splice certificate empties.

    The splice has x_n = (n, 0) for n >= 0 and x_n = (n, jump) for n < 0, and
    the orbit of y is y + n e1, so constraint n reads |y2 - x_n2| <
    eps(x_n) with eps(x) = min(1, rate / (1 + |x|_inf)).  The second
    coordinate keeps a solution while jump < r_plus + r_minus, the smallest
    radius processed so far on each side of the splice.  Returns the first
    processed |n| where that fails, or None when the whole window stays
    feasible.
    """
    r_plus = r_minus = math.inf
    for n in constraint_order(window):
        x2 = 0.0 if n >= 0 else jump
        radius = min(1.0, rate * (1.0 / (1.0 + max(abs(n), abs(x2)))))
        if n >= 0:
            r_plus = min(r_plus, radius)
        else:
            r_minus = min(r_minus, radius)
        if jump > r_plus + r_minus:
            return abs(n)
    return None


def _write_config(config_dir: Path, obj: dict) -> Path:
    path = config_dir / f"{obj['name']}.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _config_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _scenario_jobs(names, rng, config_dir: Path, out_dir: Path, edit=None) -> list[ScenarioJob]:
    jobs = []
    for name in names:
        obj = scenarios.builtin_config(name).to_obj()
        obj["seed"] = _config_seed(rng)
        if edit is not None:
            edit(obj, rng)
        jobs.append(ScenarioJob(name, _write_config(config_dir, obj), out_dir))
    return jobs


def _random_radius_functions(obj: dict, rng) -> None:
    obj["params"]["radius_functions"] = {
        "constant": "const:0.7",
        "tree-1": random_positive_fn(rng).to_obj(),
        "tree-2": random_positive_fn(rng).to_obj(),
    }


def _conjugated_search_jobs(rng) -> list[SearchJob]:
    change = AffineChange(np.array(CONJ_MATRIX), np.array(CONJ_OFFSET))
    g = conjugate_map(saddle(), change)
    jobs = []
    for name, lo, hi, found in (("conj-found", 0.2, 0.6, True), ("conj-absent", 1.5, 3.0, False)):
        epsilon = float(rng.uniform(0.3, 0.6))
        a = float(rng.uniform(0.5, 1.5))
        q = float(rng.uniform(lo, hi)) * epsilon / 0.96
        rule = SplicedRule(change.apply(np.array([a, 0.0])), change.apply(np.array([a, q])), 0)
        jobs.append(SearchJob(name, PseudoOrbitSpec(rule, CONJ_WINDOW, g), epsilon, found))
    return jobs


def _certificate_jobs(rng) -> list[CertificateJob]:
    # Below this jump the whole window stays feasible.
    threshold = 2.0 * CERT_RATE / (1.0 + CERT_WINDOW)
    jumps = [float(u) * threshold for u in rng.uniform(0.05, 0.95, CERT_NONEMPTY)]
    jumps += [float(v) for v in np.exp(rng.uniform(np.log(0.02), np.log(0.5), CERT_EMPTY))]
    return [CertificateJob(f"cert-{i:02d}", q) for i, q in enumerate(jumps)]


def build(workload: str, seed: int, work_dir: Path) -> list:
    """The jobs of one workload, with their configs written under ``work_dir``."""
    config_dir = work_dir / "configs"
    out_dir = work_dir / "out"
    config_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "ensemble":
        return _scenario_jobs(ENSEMBLE_SCENARIOS, rng, config_dir, out_dir)
    if workload == "envelope":
        return _scenario_jobs(("neighborhood-equivalence",), rng, config_dir, out_dir,
                              edit=_random_radius_functions)
    if workload == "oracle":
        return (_scenario_jobs(ORACLE_SCENARIOS, rng, config_dir, out_dir)
                + _conjugated_search_jobs(rng) + _certificate_jobs(rng))
    raise ValueError(f"unknown workload {workload!r}")


def reset_process_state() -> None:
    """Give each pass the state a fresh ``shadowlab`` process starts with.

    ``sampled_search`` keeps candidate grids in a module-level cache; the
    two conjugated searches of one pass share a grid, so the second reuses
    the first one's.  Clearing it between passes stops later passes from
    reusing grids built by earlier ones.
    """
    cache = getattr(shadowing, "_GRID_CACHE", None)
    if cache is not None:
        cache.clear()

