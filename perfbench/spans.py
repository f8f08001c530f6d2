"""Span recorder and per-layer metrics for the traced benchmark run.

``patched(recorder)`` wraps shadowlab's public functions at each layer
boundary for the duration of a ``with`` block.  A wrapped call records one
span (name, job id, start, end, parent span) and, for some functions, work
counts taken from its arguments or result.  Every module attribute that
binds a wrapped function is patched, so ``shadowlab.scenarios.realize`` is
traced as well as ``shadowlab.pseudo_orbit.realize``.  ``geometry`` and
``maps`` are counted leaves: their calls are counted, not timed.

The layers are the package modules ``pseudo_orbit``, ``cplus``,
``shadowing``, ``scenarios`` and ``plots``; a span belongs to the layer
named before the first dot of its name.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LAYERS = ("pseudo_orbit", "cplus", "shadowing", "scenarios", "plots")

_MISSING = object()


@dataclass
class Span:
    name: str
    job: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._open: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.job, self._clock(), math.nan, parent))
        self._open.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = self._clock()
        self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _spanned(rec: Recorder, name, fn, count=None):
    """Record a span around ``fn``; ``name`` may be a function of the call's arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        index = rec.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(index)
        if count is not None:
            count(rec.counts, label, result, *args, **kwargs)
        return result
    return wrapper


def _counted(rec: Recorder, key: str, fn, amount=None):
    """Count calls of a leaf function, without a span; ``amount`` adds a second, named count."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += 1
        if amount is not None:
            name, value = amount(*args, **kwargs)
            rec.counts[name] += value
        return fn(*args, **kwargs)
    return wrapper


def _rows(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def _top_level_eval(rec: Recorder, fn):
    """Count ``CPlusFn.eval`` calls and points, leaving out evals nested in another eval."""
    depth = [0]

    @functools.wraps(fn)
    def wrapper(self, p):
        if depth[0]:
            return fn(self, p)
        rec.counts["cplus.eval.calls"] += 1
        rec.counts["cplus.eval.points"] += _rows(p)
        depth[0] += 1
        try:
            return fn(self, p)
        finally:
            depth[0] -= 1
    return wrapper


def _count_generate(counts, label, specs, *args, **kwargs):
    counts["pseudo_orbit.generate.orbits"] += len(specs)
    counts["pseudo_orbit.generate.steps"] += sum(s.window[1] - s.window[0] for s in specs)


def _count_validate(counts, label, report, *args, **kwargs):
    counts["pseudo_orbit.validate.steps"] += len(report.gaps)


def _count_verify(counts, label, report, *args, **kwargs):
    counts["cplus.verify.points"] += int(report.checked)


def _count_envelope_eval(counts, label, result, envelope, p):
    counts["cplus.envelope.pairs"] += _rows(p) * len(envelope.points)


def _count_envelope_nodes(counts, label, result, envelope):
    counts["cplus.envelope.pairs"] += len(envelope.points) ** 2


def _count_box(counts, label, cert, *args, **kwargs):
    counts["shadowing.box_feasibility.constraints"] += len(cert.trace)


def _count_search(counts, label, result, *args, **kwargs):
    counts[f"{label}.points"] += int(result.checked)


def _ball_draws(metric, dim, rng, size):
    return "pseudo_orbit.ball_draws", int(size)


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _shadowlab_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "shadowlab" or n.startswith("shadowlab."))]


@contextmanager
def patched(rec: Recorder):
    """Trace shadowlab through ``rec`` inside the block; every patch is undone on exit."""
    from shadowlab import cplus, geometry, maps, plots, pseudo_orbit, scenarios, shadowing

    modules = _shadowlab_modules()
    undo = []

    def rebind(module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:  # gone from the package; EXPECTED_SPANS catches the ones that matter
            return
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def method(cls, attr: str, make) -> None:
        undo.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, make(getattr(cls, attr)))

    def span(name, count=None):
        return lambda fn: _spanned(rec, name, fn, count)

    def search_name(spec, *args, **kwargs):
        kind = "diagonal" if maps.is_diagonal_affine(spec.map) else "conjugated"
        return f"shadowing.search.{kind}"

    try:
        for attr, name, count in (
            ("generate_orbit_ensemble", "pseudo_orbit.generate", _count_generate),
            ("random_pseudo_orbit", "pseudo_orbit.random_orbit", None),
            ("validate", "pseudo_orbit.validate", _count_validate),
            ("classify_pseudo_orbit", "pseudo_orbit.classify", None),
            ("realize", "pseudo_orbit.realize", None),
            ("max_splice_jump", "pseudo_orbit.max_splice_jump", None),
            ("transport_pseudo_orbit", "pseudo_orbit.transport", None),
            ("orbit_to_csv", "pseudo_orbit.to_csv", None),
        ):
            rebind(pseudo_orbit, attr, span(name, count))
        for attr, name, count in (
            ("synthesize_delta_homothety", "cplus.synthesize", None),
            ("verify_delta_conditions", "cplus.verify", _count_verify),
            ("delta_reference_levels", "cplus.reference_levels", None),
            ("epsilon_from_neighborhood", "cplus.neighborhood", None),
            ("random_positive_fn", "cplus.random_fn", None),
        ):
            rebind(cplus, attr, span(name, count))
        method(cplus.CPlusFn, "eval", lambda fn: _top_level_eval(rec, fn))
        method(cplus.Envelope, "eval", span("cplus.envelope", _count_envelope_eval))
        method(cplus.Envelope, "values_at_nodes", span("cplus.envelope", _count_envelope_nodes))
        for attr, name, count in (
            ("box_feasibility", "shadowing.box_feasibility", _count_box),
            ("sampled_search", search_name, _count_search),
            ("homothety_shadow_report", "shadowing.report", None),
            ("is_shadowed_by", "shadowing.report", None),
            ("shadow_tail_bound", "shadowing.report", None),
            ("homothety_shadow_point", "shadowing.shadow_point", None),
            ("forward_to_full_shadow", "shadowing.forward_to_full", None),
            ("transported_epsilon_values", "shadowing.transport", None),
        ):
            rebind(shadowing, attr, span(name, count))
        for attr, name in (
            ("run_scenario", "scenarios.run"),
            ("load_config", "scenarios.load_config"),
            ("neighborhood_equivalence_checks", "scenarios.audit"),
        ):
            rebind(scenarios, attr, span(name))
        for attr, name in (
            ("emit_plot", "plots.emit"),
            ("render_plot", "plots.render"),
            ("read_trace_csv", "plots.read"),
        ):
            rebind(plots, attr, span(name))
        for attr in ("as_point", "metric_norm", "distance", "sample_directions"):
            rebind(geometry, attr, lambda fn: _counted(rec, "geometry.calls", fn))
        rebind(geometry, "uniform_ball", lambda fn: _counted(rec, "geometry.calls", fn, _ball_draws))
        for cls in (maps.DiagonalAffine, maps.Conjugated):
            for attr in ("apply", "apply_inverse", "iterate", "orbit", "power_coefficients"):
                if attr in cls.__dict__:
                    method(cls, attr, lambda fn: _counted(rec, "maps.calls", fn))
        yield rec
    finally:
        for target, key, value in reversed(undo):
            if value is _MISSING:
                delattr(target, key)
            else:
                setattr(target, key, value)



# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [(s.end - s.start) - covered(s.start, s.end, [(c.start, c.end) for c in kids])
            for s, kids in zip(spans, children)]


def summarize(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    out: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    return {name: tuple(v) for name, v in out.items()}


def layer_self(summary: dict) -> dict[str, float]:
    """Self seconds per layer, summed over the layer's span names."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in summary.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[Span], counts: Counter, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics, as means per traced pass, plus layer shares and trace overhead."""
    passes = len(traced_walls)
    summary = summarize(spans)

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0] / passes

    def seconds(name):
        return summary.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2] / passes

    def count(key):
        return counts.get(key, 0) / passes

    m = {}
    steps = count("pseudo_orbit.generate.steps")
    m["pseudo_orbit.generate.s"] = seconds("pseudo_orbit.generate")
    m["pseudo_orbit.generate.orbits"] = count("pseudo_orbit.generate.orbits")
    m["pseudo_orbit.generate.steps"] = steps
    m["pseudo_orbit.generate.steps_per_s"] = _rate(steps, seconds("pseudo_orbit.generate"))
    m["pseudo_orbit.ball_draws"] = count("pseudo_orbit.ball_draws")
    m["pseudo_orbit.draw_acceptance"] = _rate(steps, count("pseudo_orbit.ball_draws"))
    m["pseudo_orbit.validate.s"] = seconds("pseudo_orbit.validate")
    m["pseudo_orbit.validate.steps_per_s"] = _rate(count("pseudo_orbit.validate.steps"),
                                                   seconds("pseudo_orbit.validate"))
    m["pseudo_orbit.classify.s"] = seconds("pseudo_orbit.classify")
    m["pseudo_orbit.realize.calls"] = calls("pseudo_orbit.realize")
    m["pseudo_orbit.realize.s"] = seconds("pseudo_orbit.realize")
    m["pseudo_orbit.max_splice_jump.s"] = seconds("pseudo_orbit.max_splice_jump")
    m["cplus.eval.calls"] = count("cplus.eval.calls")
    m["cplus.eval.points"] = count("cplus.eval.points")
    m["cplus.synthesize.s"] = seconds("cplus.synthesize")
    m["cplus.verify.s"] = seconds("cplus.verify")
    m["cplus.verify.points_per_s"] = _rate(count("cplus.verify.points"), seconds("cplus.verify"))
    m["cplus.envelope.s"] = seconds("cplus.envelope")
    m["cplus.envelope.pairs"] = count("cplus.envelope.pairs")
    m["cplus.envelope.pairs_per_s"] = _rate(count("cplus.envelope.pairs"), seconds("cplus.envelope"))
    m["scenarios.audit.self_s"] = own("scenarios.audit")
    for kind in ("diagonal", "conjugated"):
        name = f"shadowing.search.{kind}"
        m[f"{name}.s"] = seconds(name)
        m[f"{name}.points"] = count(f"{name}.points")
        m[f"{name}.points_per_s"] = _rate(count(f"{name}.points"), seconds(name))
    m["shadowing.box_feasibility.s"] = seconds("shadowing.box_feasibility")
    m["shadowing.box_feasibility.constraints"] = count("shadowing.box_feasibility.constraints")
    m["shadowing.box_feasibility.constraints_per_s"] = _rate(
        count("shadowing.box_feasibility.constraints"), seconds("shadowing.box_feasibility"))
    m["shadowing.report.s"] = seconds("shadowing.report")
    m["shadowing.report.calls"] = calls("shadowing.report")
    m["shadowing.forward_to_full.s"] = seconds("shadowing.forward_to_full")
    m["shadowing.transport.s"] = seconds("shadowing.transport")
    m["scenarios.run.self_s"] = own("scenarios.run")
    m["scenarios.artifacts"] = count("scenarios.artifacts")
    m["scenarios.artifact_bytes"] = count("scenarios.artifact_bytes")
    m["plots.emit.s"] = seconds("plots.emit")
    m["plots.emit.calls"] = calls("plots.emit")
    m["geometry.calls"] = count("geometry.calls")
    m["maps.calls"] = count("maps.calls")
    wall = sum(traced_walls)
    for layer, total in layer_self(summary).items():
        m[f"{layer}.share"] = _rate(total, wall)
    m["trace.wall_s"] = statistics.median(traced_walls)
    m["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1.0)
    return m
