"""Named, configured experiments with machine-readable outputs.

Each built-in scenario wires one construction into the standard pipeline
(realize, validate, choose or synthesize tolerances, decide feasibility or
build the shadow, report) and judges the outcome:

* ``matches-paper``: the run reproduced the expected qualitative result
  (an emptiness certificate where no orbit can shadow, successful shadowing
  where one must exist, and so on);
* ``contradicts-paper``: the run produced the opposite, which makes the CLI
  exit with status 2;
* ``inconclusive``: the run could not decide (for example a nonempty
  adversarial certificate, or a warped grid search that finds no point).

Artifacts (JSON certificates and reports, CSV traces, SVG plots) are written
under ``<out>/<scenario>/`` and are byte-deterministic for a fixed config and
seed: no timestamps, sorted keys, fixed float formatting.  Wall time is
reported on the in-memory run report only, never in the files.

A scenario config is one JSON document; ``shadowlab run`` accepts a built-in
name or a path to such a document.  Nothing here reads the environment:
``run_scenario`` writes under ``out`` unless given a directory.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import cplus, plots
from .cplus import (
    Const,
    CPlusFn,
    decaying_epsilon,
    epsilon_from_neighborhood,
    fn_from_obj,
    random_positive_fn,
    saddle_adversarial_epsilon,
    synthesize_delta_homothety,
    verify_delta_conditions,
)
from .errors import (REQUIRED, ConfigError, ContractViolation, PositivityError, SearchSpaceError,
                     UnboundedSlackError, UnsupportedMapError, check, config_path, number, numbers, one_of,
                     read_fields, rows, window_path, within)
from .geometry import MetricKind
from .maps import (
    DiagonalAffine,
    MapSpec,
    affine_fixed_point,
    diffeo_from_dict,
    homothety,
    linear_scales,
    map_from_dict,
    power_map,
    reverse_homothety,
    saddle,
    translation_map,
)
from .pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    max_splice_jump,
    orbit_to_csv,
    realize,
    spec_meta,
    validate,
)
from .shadowing import (
    ShadowReport,
    _grid_counts,
    box_feasibility,
    forward_to_full_shadow,
    homothety_shadow_report,
    is_shadowed_by,
    sampled_search,
    shadow_tail_bound,
    transported_shadow_report,
)

__all__ = ["ScenarioConfig", "RunReport", "SCENARIO_NAMES", "builtin_config", "check_config",
           "list_scenarios", "run_scenario", "load_config"]


@dataclass
class ScenarioConfig:
    """One runnable experiment: a kind, a metric, a seed, and knobs.  Without a metric,
    a known kind runs its first allowed one."""

    name: str
    kind: str
    metric: str | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric is None and self.kind in _KINDS:
            self.metric = _KINDS[self.kind][1][0]

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "ScenarioConfig":
        """The config of a JSON object whose top-level fields pass ``_CONFIG_FIELDS``;
        ``check_config`` checks the whole config again, ``params`` included."""
        with config_path(""):
            return cls(**read_fields(obj, _CONFIG_FIELDS))


@dataclass
class RunReport:
    name: str
    verdict: str  # matches-paper | contradicts-paper | inconclusive
    artifacts: list[str]
    wall_time: float
    details: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {"matches-paper": 0, "contradicts-paper": 2}.get(self.verdict, 1)


class _ArtifactSink:
    """Writes a scenario's artifacts; the directory appears with the first one, so a
    run refused inside its handler leaves nothing behind."""

    def __init__(self, root: Path):
        self.root = root
        self.paths: list[str] = []

    def write(self, name: str, text: str, plot: str | None = None) -> None:
        """Write ``text`` to ``name``; with ``plot``, also render that trace as an SVG of that kind."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        self.paths.append(str(path))
        if plot is not None:
            self.paths.append(str(plots.emit_plot(path, plot)))

    def json(self, name: str, obj) -> None:
        """Write ``obj`` as sorted, 2-space-indented JSON with a final newline."""
        self.write(name, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Adversarial box scenarios (saddle, translation)
# ---------------------------------------------------------------------------

# Slacks drawn when no jump is given, one certificate each.
_DELTA_COUNT = 5


def _run_adversarial_box(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    metric = MetricKind(config.metric)
    m, epsilon = p["map"], p["epsilon"]
    fwd, direction = p["forward_seed"], p["jump_direction"]
    rng = np.random.default_rng(config.seed)
    limit, margin = p["window_limit"], p["margin"]
    window = (-limit, limit)

    # One run at the given jump, or one per drawn slack at its largest admissible jump.
    deltas = [None] if p["jump"] is not None else [random_positive_fn(rng) for _ in range(_DELTA_COUNT)]
    runs = []
    for delta in deltas:
        try:
            q = p["jump"] if delta is None else max_splice_jump(
                PseudoOrbitSpec(SplicedRule(fwd, fwd + direction), window, m), delta, metric,
                direction=direction)
        except UnboundedSlackError as exc:  # a seed so large that every jump rounds away
            raise ConfigError(f"'params.forward_seed': {exc}") from exc
        spec = PseudoOrbitSpec(SplicedRule(fwd, fwd + q * direction), window, m)
        with window_path("params.epsilon"):
            cert = box_feasibility(spec, epsilon, limit, margin)
        entry = {"jump": q, "outcome": cert.outcome,
                 "emptiness_window": cert.emptiness_window,
                 "near_degenerate": cert.near_degenerate}
        if delta is not None:
            entry["delta"] = delta.to_obj()
        runs.append((spec, cert, entry))
    all_empty = all(cert.empty for _, cert, _ in runs)

    # Oracle cross-check at the largest admissible jump over the slack draws;
    # near-degenerate certificates would force this even if disabled.
    oracle = p["oracle"]
    oracle_entry = None
    if oracle or any(c.near_degenerate for _, c, _ in runs):
        if oracle is None:
            raise ConfigError("'params.oracle': a near-degenerate certificate needs the oracle")
        chosen = max(range(len(runs)), key=lambda i: runs[i][2]["jump"])
        spec = runs[chosen][0]
        with window_path("params.epsilon"):
            result = sampled_search(spec, epsilon, metric, *oracle)
        oracle_entry = {"run": chosen, **result.to_obj()}
        all_empty = all_empty and result.absent

    spec0, cert0, _ = runs[0]
    sink.json("certificate.json", cert0.to_obj())
    sink.write("boxwidth.csv", cert0.trace_to_csv(), plot="boxwidth")
    shown = realize(spec0, (-min(8, limit), min(8, limit)))
    sink.write("orbit.csv", orbit_to_csv(shown, spec_meta(spec0)), plot="orbit2d")

    details = {"runs": [e for _, _, e in runs], "oracle": oracle_entry}
    # The negative half is existential: some tolerance defeats every slack.  A box that
    # stays nonempty shows only that this tolerance and splice are no witness.
    open_runs = [i for i, (_, cert, _) in enumerate(runs) if not cert.empty]
    if open_runs:
        details["inconclusive"] = (f"runs {open_runs} keep a nonempty box: their tolerance and splice "
                                   "are no witness against shadowing")
        return "inconclusive", details
    return ("matches-paper" if all_empty else "contradicts-paper"), details


# ---------------------------------------------------------------------------
# Homothety ensembles (homothety_shadow, conjugacy, forward_to_full, and the
# homothety maps of fixed_point_scan)
# ---------------------------------------------------------------------------

# Share of pseudo-orbits anchored near the origin (conjugacy and forward_to_full
# anchor none), unit-sphere directions the slack synthesis samples, and random
# points at which homothety_shadow verifies the slack's conditions.
_ANCHORED_FRACTION = 0.2
_SPHERE_SAMPLES = 64
_VERIFY_POINTS = 20_000


def _homothety_ensemble(m: MapSpec, epsilon: CPlusFn, config: ScenarioConfig,
                        window: tuple[int, int], count: int, anchored_fraction: float):
    """(delta, r0, ball_min, ensemble): the slack of the expanding homothety ``m`` for
    ``epsilon`` and one spec holding its pseudo-orbits as a stack ``(count, L, d)``."""
    metric = MetricKind(config.metric)
    with config_path("params.epsilon"):
        delta = synthesize_delta_homothety(epsilon, m, metric, _SPHERE_SAMPLES)
        r0, ball_min = cplus.delta_reference_levels(epsilon, m, metric, _SPHERE_SAMPLES)
    with config_path("params.map"):
        specs = generate_orbit_ensemble(m, delta, metric, window, count, config.seed, r0,
                                        anchored_fraction=anchored_fraction,
                                        start_range=(1.05 * r0, 4.0 * r0))
    stack = np.stack([spec.rule.points for spec in specs])
    return delta, r0, ball_min, PseudoOrbitSpec(ExplicitRule(stack, window[0]), window, m)


def _classify_and_shadow(m, epsilon, metric, delta, r0, ensemble):
    """(tallies, all_shadowed, bound_respected, example): bounded pseudo-orbits shadowed by the
    origin, escaping ones by the series point; the example is the first escaping one.  Each
    stage is one call over the stack, and reads only the orbits of its class."""
    window = realize(ensemble)
    cls = classify_pseudo_orbit(window, r0, m, metric)
    tallies = {kind: int(np.count_nonzero(cls.kind == kind)) for kind in ("bounded", "escaping", "unclassified")}
    bounded = OrbitWindow(window.start, window.points[cls.bounded])
    escaping = OrbitWindow(window.start, window.points[cls.escaping])
    origin = is_shadowed_by(bounded, np.zeros(m.dimension), m, epsilon, metric)
    series = homothety_shadow_report(escaping, epsilon, m, metric)
    bounds = shadow_tail_bound(escaping, m, delta)
    all_shadowed = bool(tallies["unclassified"] == 0 and np.all(origin.passed) and np.all(series.passed))
    example = None
    if tallies["escaping"]:
        example = (OrbitWindow(window.start, escaping.points[0]),
                   ShadowReport(window.start, series.distances[0], series.tolerances[0]), bounds[0])
    return tallies, all_shadowed, bool(np.all(series.distances <= bounds)), example


def _run_homothety_pipeline(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    metric = MetricKind(config.metric)
    m, window, epsilon = p["map"], p["window"], p["epsilon"]
    delta, r0, m_level, ensemble = _homothety_ensemble(
        m, epsilon, config, window, p["count"], _ANCHORED_FRACTION)
    conditions = verify_delta_conditions(
        delta, epsilon, m, metric, n_points=_VERIFY_POINTS,
        rng=np.random.default_rng(config.seed + 1_000_003))
    all_valid = bool(np.all(validate(ensemble, delta, metric).passed))
    tallies, all_shadowed, bound_respected, example = _classify_and_shadow(
        m, epsilon, metric, delta, r0, ensemble)

    if example is not None:
        window_pts, report, bounds = example
        sink.write("slack.csv", report.to_csv(extra={"bound": bounds}), plot="slack")
        sink.write("orbit.csv", orbit_to_csv(window_pts, {"window": list(window)}), plot="orbit2d")
    sink.json("delta.json", delta.to_obj())

    ok = (conditions.ok and all_valid and all_shadowed and bound_respected
          and tallies["unclassified"] == 0)
    details = {
        "factor": conditions.factor,
        "r0": r0,
        "ball_min": m_level,
        "classes": tallies,
        "delta_conditions": conditions.failures,
        "all_pseudo_orbits_valid": all_valid,
        "all_shadowed": all_shadowed,
        "tail_bound_respected": bound_respected,
    }
    return ("matches-paper" if ok else "contradicts-paper"), details


# ---------------------------------------------------------------------------
# Metric warp
# ---------------------------------------------------------------------------

# The constant tolerance both searches use and the slack both validations use.
_EPSILON_LEVEL = 1.0
_DELTA_LEVEL = 0.02


def _run_metric_warp(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    fwd, direction, q, window = p["forward_seed"], p["jump_direction"], p["jump"], p["window"]
    spec = PseudoOrbitSpec(SplicedRule(fwd, fwd + q * direction, 0), window, p["map"])
    epsilon, delta = Const(_EPSILON_LEVEL), Const(_DELTA_LEVEL)
    box, step = p["oracle"]

    valid_warp = validate(spec, delta, MetricKind.POLAR_WARP).passed
    valid_sup = validate(spec, delta, MetricKind.SUP).passed
    warp_result = sampled_search(spec, epsilon, MetricKind.POLAR_WARP, box, step)
    sup_result = sampled_search(spec, epsilon, MetricKind.SUP, box, step)

    shown = realize(spec, (max(window[0], -12), min(window[1], 12)))
    sink.write("orbit.csv", orbit_to_csv(shown, spec_meta(spec)), plot="orbit2d")
    sink.json("search.json", {
        "polar_warp": warp_result.to_obj(),
        "sup": sup_result.to_obj(),
        "jump": q,
        "window": list(window),
    })

    ok = valid_warp and valid_sup and warp_result.absent and not sup_result.absent
    details = {
        "pseudo_orbit_valid": {"polar_warp": valid_warp, "sup": valid_sup},
        "warped_point_found": not warp_result.absent,
        "unwarped_point_found": not sup_result.absent,
    }
    if valid_warp and valid_sup and warp_result.absent and sup_result.absent:
        # The sup grid can miss a shadowing point it cannot land close enough to; only
        # the exact certificate over the whole window refutes its existence.
        details["sup_certificate"] = _sup_certificate(spec, epsilon)
        if details["sup_certificate"] != "empty":
            details["inconclusive"] = ("the sup grid is too coarse: it found no point, and no exact "
                                       "certificate shows that none exists")
            return "inconclusive", details
    return ("matches-paper" if ok else "contradicts-paper"), details


def _sup_certificate(spec: PseudoOrbitSpec, epsilon: CPlusFn) -> str:
    """``box_feasibility``'s outcome over the spec's window with margin 0, or "unsupported"
    for a map the certificate does not take."""
    window = realize(spec)
    explicit = PseudoOrbitSpec(ExplicitRule(window.points, window.start), spec.window, spec.map)
    try:
        return box_feasibility(explicit, epsilon, max(-window.start, window.stop)).outcome
    except UnsupportedMapError:
        return "unsupported"


# ---------------------------------------------------------------------------
# Conjugacy transport
# ---------------------------------------------------------------------------


def _run_conjugacy(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    metric = MetricKind(config.metric)
    m, changes, epsilon = p["map"], p["changes"], p["epsilon"]
    *_, ensemble = _homothety_ensemble(m, epsilon, config, p["window"], p["count"], 0.0)

    # One base report over the stack, then one transported report per change; an orbit
    # passes a change when both report it shadowed.
    windows = realize(ensemble)
    base = homothety_shadow_report(windows, epsilon, m, metric)
    results = {}
    for name, change in changes.items():
        moved = transported_shadow_report(windows, base.tolerances, m, change, metric)
        results[name] = {"passed": int(np.count_nonzero(base.passed & moved.passed)), "total": len(windows.points)}

    sink.json("transport.json", results)
    all_pass = all(r["passed"] == r["total"] for r in results.values())
    return ("matches-paper" if all_pass else "contradicts-paper"), {"transports": results}


# ---------------------------------------------------------------------------
# Forward-to-full
# ---------------------------------------------------------------------------

def _run_forward_to_full(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    """Containment |T_0| <= epsilon(x_0) decides each orbit.  The iterated route checks the
    series point: an iterate farther from it than its rounding budget is an internal fault."""
    metric = MetricKind(config.metric)
    m, epsilon, depth, window = p["map"], p["epsilon"], p["depth"], p["window"]
    *_, ensemble = _homothety_ensemble(m, epsilon, config, window, p["count"], 0.0)
    with window_path("params.epsilon"):
        shifted = forward_to_full_shadow(realize(ensemble), epsilon, m, depth, metric)
    over = shifted.rounding > 1.0
    if np.any(over):
        orbit = int(np.argmax(np.any(over, axis=-1)))
        shift = int(np.argmax(over[orbit]))
        raise ContractViolation(f"forward-to-full: orbit {orbit}'s iterate at shift {shift} is "
                                f"{float(shifted.rounding[orbit, shift])!r} rounding budgets from the series point")
    failures = [{"orbit": int(i), "residual": float(shifted.residual[i]), "eps0": float(shifted.eps0[i])}
                for i in np.flatnonzero(~shifted.contained)]
    total = len(shifted.residual)
    details = {"contained": total - len(failures), "total": total,
               "max_rounding_share": float(np.max(shifted.rounding))}
    sink.json("limits.json", {"depth": depth, **details, "failures": failures})
    return ("contradicts-paper" if failures else "matches-paper"), details


# ---------------------------------------------------------------------------
# Neighborhood equivalence
# ---------------------------------------------------------------------------


def _chessboard_infconv_table(values: np.ndarray, step: float) -> np.ndarray:
    """Exact grid infimal convolution min_y (v(y) + step*chebyshev(x, y)).

    On a complete rectangular grid every chessboard-shortest path decomposes
    into a row-monotone diagonal/vertical chain followed by a horizontal tail
    in the target row, so one downward sweep, one upward sweep, and a
    two-sided horizontal pass realize the exact minimum in O(n^2) instead of
    O(n^4).  Only ``min(x, y + step)`` updates are used, so a node whose own
    value attains the minimum keeps it bit-exactly.
    """
    def neighbor_min(row):
        out = row.copy()
        out[1:] = np.minimum(out[1:], row[:-1])
        out[:-1] = np.minimum(out[:-1], row[1:])
        return out

    down = np.array(values, dtype=float)
    for i in range(1, down.shape[0]):
        np.minimum(down[i], neighbor_min(down[i - 1]) + step, out=down[i])
    up = np.array(values, dtype=float)
    for i in range(up.shape[0] - 2, -1, -1):
        np.minimum(up[i], neighbor_min(up[i + 1]) + step, out=up[i])
    e = np.minimum(down, up)
    for j in range(1, e.shape[1]):
        np.minimum(e[:, j], e[:, j - 1] + step, out=e[:, j])
    for j in range(e.shape[1] - 2, -1, -1):
        np.minimum(e[:, j], e[:, j + 1] + step, out=e[:, j])
    return e


# Random grid nodes at which the sweep table is checked against the defining minimum.
_CROSS_CHECK_SAMPLES = 1500
# The scenario's grid: nodes per axis over [-half extent, half extent].
_POINTS_PER_AXIS = 61
_HALF_EXTENT = 10.0


def neighborhood_equivalence_checks(radius_fn: CPlusFn, half_extent: float, points_per_axis: int,
                                    where: str = "radius") -> dict:
    """Audit of the sup-metric infimal-convolution tolerance on a square grid.

    Checks, exactly, that the envelope never exceeds the radius function on
    the grid, and that it is 1-Lipschitz along grid edges.  Containment (for
    every grid pair (x, y), d(x, y) < envelope(x) implies d(x, y) < radius(x))
    reduces to that domination: envelope(x) <= radius(x) makes d < envelope(x)
    force d < radius(x) whatever y is.  Every sweep update is an elementwise
    ``minimum`` whose first argument is the table built from the radius values,
    and a minimum never exceeds that argument, so the domination holds bit for
    bit and is checked with no slack.

    The full node table comes from the exact sweep algorithm; the defining
    minimum (the lazy envelope itself) is evaluated at a random subset of
    distinct nodes and must agree to near machine precision, tying the
    routes.  A ``Const`` radius also gets ``constant_exact``: the defining
    minimum equals the constant at every node.

    A radius tree that is not positive at some grid node is a ConfigError at
    ``where``; a fault of the audit itself stays a ContractViolation.
    """
    axis = np.linspace(-half_extent, half_extent, points_per_axis)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    try:
        envelope = epsilon_from_neighborhood(radius_fn, grid, MetricKind.SUP)
    except PositivityError as exc:  # the radius on the grid, not the audit
        raise ConfigError(f"'{where}': {exc} on the neighbourhood grid at {grid[exc.row].tolist()}") from exc
    rho = envelope.values

    n = points_per_axis
    step = axis[1] - axis[0]
    table = _chessboard_infconv_table(rho.reshape(n, n), step)
    eps_hat = table.ravel()

    rng = np.random.default_rng(12021)
    subset = rng.choice(grid.shape[0], size=min(_CROSS_CHECK_SAMPLES, grid.shape[0]), replace=False)
    direct = envelope.eval(grid[subset])
    if not np.allclose(eps_hat[subset], direct, rtol=1e-12, atol=1e-12):
        raise ContractViolation("sweep table disagrees with the envelope's defining minimum")
    lip_slop = 1e-9 * max(1.0, float(np.max(rho)))
    lipschitz = bool(
        np.all(np.abs(np.diff(table, axis=0)) <= step + lip_slop)
        and np.all(np.abs(np.diff(table, axis=1)) <= step + lip_slop)
    )
    dominated = bool(np.all(eps_hat <= rho))

    checks = {
        "grid": f"{n}x{n}",
        "one_lipschitz_on_edges": lipschitz,
        "dominated_by_radius": dominated,
        "tolerance_ball_inside_neighborhood": dominated,
        "envelope_min": float(np.min(eps_hat)),
        "envelope_max": float(np.max(eps_hat)),
    }
    if isinstance(radius_fn, Const):
        # A constant radius is already 1-Lipschitz: the defining minimum returns it at every node.
        checks["constant_exact"] = bool(np.all(envelope.values_at_nodes() == radius_fn.value))
    return checks


def _run_neighborhood(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    results = {}
    ok = True
    for name, fn in p["radius_functions"].items():
        where = f"params.radius_functions.{name}"
        checks = neighborhood_equivalence_checks(fn, _HALF_EXTENT, _POINTS_PER_AXIS, where)
        results[name] = checks
        ok = ok and all(v for k, v in checks.items() if isinstance(v, bool))

    sink.json("envelopes.json", results)
    return ("matches-paper" if ok else "contradicts-paper"), {"checks": results}


# ---------------------------------------------------------------------------
# Fixed-point scan
# ---------------------------------------------------------------------------


def _run_fixed_point_scan(config: ScenarioConfig, p: dict, sink: _ArtifactSink) -> tuple[str, dict]:
    catalog = {
        "saddle": saddle(),
        "homothety-2": homothety(2.0),
        "reverse-homothety": reverse_homothety(0.5),
        "translation": translation_map(2),
    }

    entries = {}
    contradiction = False
    for name, m in catalog.items():
        point = affine_fixed_point(m)
        fixed = [] if point is None else [[float(v) for v in point]]
        if name in ("saddle", "translation"):
            # Adversarial certificate: emptiness is evidence against shadowing.
            if name == "saddle":
                epsilon = saddle_adversarial_epsilon()
                spec = PseudoOrbitSpec(
                    SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.05]), 0), (-16, 16), m)
            else:
                epsilon = decaying_epsilon(1.0)
                spec = PseudoOrbitSpec(
                    SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-32, 32), m)
            cert = box_feasibility(spec, epsilon, abs(spec.window[0]))
            evidence = "not-shadowing" if cert.empty else "shadowing"
        else:
            # The series shadows the expanding direction of each homothety.
            work = power_map(m, -1) if name == "reverse-homothety" else m
            epsilon = Const(1.0)
            delta, r0, _, ensemble = _homothety_ensemble(work, epsilon, config, (-8, 16), 30, _ANCHORED_FRACTION)
            _, all_shadowed, _, _ = _classify_and_shadow(
                work, epsilon, MetricKind(config.metric), delta, r0, ensemble)
            evidence = "shadowing" if all_shadowed else "not-shadowing"
        flag = evidence == "shadowing" and not fixed
        contradiction = contradiction or flag
        entries[name] = {
            "fixed_points": fixed,
            "evidence": evidence,
            "contradiction": flag,
        }

    sink.json("scan.json", entries)
    verdict = "contradicts-paper" if contradiction else "matches-paper"
    return verdict, {"maps": entries}


# ---------------------------------------------------------------------------
# Schema, registry and runner
# ---------------------------------------------------------------------------


def _name(value, fields):
    # The name is the artifact directory under the output root: one path component.
    ok = isinstance(value, str) and value not in ("", ".", "..") and not any(c in value for c in "/\\\0")
    return check(ok, "a single path component", value)


def _point(value, fields):
    point = numbers(value)
    return np.array(check(len(point) == fields["map"].dimension, "one coordinate per map dimension", point))


def _direction(value, fields):
    direction = _point(value, fields)
    return check(np.any(direction), "a nonzero direction", direction)


# An ensemble is sized before anything is drawn: every orbit gets its own generator, and a
# free orbit draws its whole window at once.  The built-ins use at most 200 orbits and
# 12,200 points; at the bounds a run takes about 0.25 GB and 8 s.
_MAX_ORBITS = 10_000
_MAX_STACK_POINTS = 1_000_000  # count x window length


def _window(value, fields):
    ok = (isinstance(value, (list, tuple)) and len(value) == 2 and all(type(n) is int for n in value)
          and value[0] <= 0 <= value[1] and value[0] < value[1])
    check(ok, "integers [n_min, n_max] with n_min <= 0 <= n_max, n_min < n_max", value)
    wanted = f"a window of at most {_MAX_STACK_POINTS} points"
    return tuple(check(value[1] - value[0] + 1 <= _MAX_STACK_POINTS, wanted, value))


def _count(default):
    """An ensemble's orbit count, given or ``default``, within ``_MAX_ORBITS`` and, with the
    window read before it, ``_MAX_STACK_POINTS``."""
    def read(value, fields):
        count = _COUNT(value)
        length = fields["window"][1] - fields["window"][0] + 1
        return check(count <= _MAX_ORBITS and count * length <= _MAX_STACK_POINTS,
                     f"at most {_MAX_ORBITS} orbits holding at most {_MAX_STACK_POINTS} window points "
                     f"in all ({length} each)", value)
    return read, lambda fields: read(default, fields)


def _depth(value, fields):
    """forward_to_full's depth, below the window bound: a shift k <= depth whose power of the
    map leaves double range is refused here, with its index, before anything is drawn."""
    depth = _COUNT(value)
    check(depth < _MAX_STACK_POINTS, f"a depth below {_MAX_STACK_POINTS}", value)
    fields["map"].power_coefficients(np.arange(depth + 1))
    return depth


def _shifted_window(value, fields):
    """forward_to_full's window: each shift k <= depth realizes the window from index -k."""
    window = _window(value, fields)
    check(window[0] <= -fields["depth"], f"a window from index -depth = {-fields['depth']} or below", value)
    return window


def _oracle(value, fields):
    """(box, step): ``box`` holds one [lo, hi] pair with lo < hi per map dimension, and the
    grid is sized before anything runs."""
    oracle = read_fields(value, {"box": (rows, REQUIRED), "step": (_POSITIVE, REQUIRED)})
    with within(".box"):
        box = check(len(oracle["box"]) == fields["map"].dimension
                    and all(len(b) == 2 and b[0] < b[1] for b in oracle["box"]),
                    "one [lo, hi] pair with lo < hi per map dimension", oracle["box"])
    try:
        _grid_counts(box, oracle["step"])
    except SearchSpaceError as exc:
        raise ContractViolation(str(exc)) from exc
    return [tuple(b) for b in box], oracle["step"]


def _adversarial_map(value, fields):
    """The adversarial kind's map: a map expanding or contracting in every coordinate shadows,
    so no emptiness claim is made for it.  Its orbit plot draws x1 and x2, and the
    polar-warped metric measures the plane."""
    m = map_from_dict(value)
    polar = fields["metric"] == MetricKind.POLAR_WARP.value
    check(m.dimension == 2 if polar else m.dimension >= 2,
          "a planar map under polar_warp" if polar else "a map of dimension 2 or more", value)
    moduli = np.abs(m.scales) if isinstance(m, DiagonalAffine) else np.ones(1)
    check(not (np.all(moduli > 1.0) or np.all(moduli < 1.0)),
          "a map neither expanding nor contracting", value)
    return m


def _planar_map(value, fields):
    """A map of the plane, which the polar-warped metric and the ensemble kinds measure."""
    m = map_from_dict(value)
    check(m.dimension == 2, "a planar map", value)
    return m


def _homothety_map(value, fields):
    """The ensemble kinds' map: the synthesis, its check and the shadow series need a planar
    diagonal linear map whose scales share one modulus |k| > 1."""
    m = _planar_map(value, fields)
    linear_scales(m)
    return m


def _fn(value, fields):
    """A tolerance tree, evaluated once at the origin of the map's dimension (of the plane
    without a map): a tree that is not positive and finite there is not in C+."""
    fn = fn_from_obj(value)
    origin = np.zeros((1, fields["map"].dimension if "map" in fields else 2))
    with np.errstate(over="ignore"):
        check(0.0 < fn._eval(origin)[0] < np.inf, "a tree positive and finite at the origin", value)
    return fn


def _each(read):
    """Reader of a nonempty object whose every value ``read`` decodes."""
    return lambda v, f: read_fields(check(isinstance(v, dict) and v, "a nonempty object", v),
                                    dict.fromkeys(v, (lambda item, _: read(item, f), REQUIRED)))


def _change(value, fields):
    change = diffeo_from_dict(value)
    check(change.dimension in (None, fields["map"].dimension), "a change of the map's dimension", value)
    return change


_POSITIVE = number(0.0, open_lo=True)
_COUNT = number(1, integer=True)
_WINDOW_LIMIT = number(1, (_MAX_STACK_POINTS - 1) // 2, integer=True)  # [-limit, limit] within the budget
_HOMOTHETY = (_homothety_map, REQUIRED)
_FN = (_fn, REQUIRED)
_POINT = (_point, REQUIRED)
_DIRECTION = (_direction, REQUIRED)
_SAMPLED = ["sup", "euclidean"]  # the metrics with uniform ball sampling
# kind -> (handler, metrics, params table); the tables are documented in README.md.
_KINDS = {
    "adversarial_box": (_run_adversarial_box, [k.value for k in MetricKind], {
        "map": (_adversarial_map, REQUIRED), "epsilon": _FN, "forward_seed": _POINT,
        "jump_direction": _DIRECTION, "window_limit": (_WINDOW_LIMIT, 32), "margin": (number(0.0), 0.0),
        "jump": (_POSITIVE, None), "oracle": (_oracle, None)}),
    "homothety_shadow": (_run_homothety_pipeline, _SAMPLED, {
        "map": _HOMOTHETY, "window": (_window, (-20, 40)), "epsilon": _FN, "count": _count(200)}),
    "metric_warp": (_run_metric_warp, ["polar_warp"], {
        "map": (_planar_map, REQUIRED), "forward_seed": _POINT, "jump": (_POSITIVE, REQUIRED),
        "jump_direction": _DIRECTION, "window": (_window, (-24, 24)), "oracle": (_oracle, REQUIRED)}),
    "conjugacy": (_run_conjugacy, _SAMPLED, {
        "map": _HOMOTHETY, "changes": (_each(_change), REQUIRED), "epsilon": _FN,
        "window": (_window, (-10, 20)), "count": _count(40)}),
    "forward_to_full": (_run_forward_to_full, _SAMPLED, {
        "map": _HOMOTHETY, "epsilon": _FN, "depth": (_depth, 16),
        "window": (_shifted_window, lambda f: (-f["depth"], 2 * f["depth"])), "count": _count(20)}),
    "neighborhood": (_run_neighborhood, ["sup"], {"radius_functions": (_each(_fn), REQUIRED)}),
    "fixed_point_scan": (_run_fixed_point_scan, _SAMPLED, {}),
}
# The top-level fields; their defaults are ScenarioConfig's, whose constructor resolves
# a missing metric.
_CONFIG_FIELDS = {
    "name": (_name, REQUIRED),
    "kind": (one_of(_KINDS), REQUIRED),
    "metric": (lambda v, f: one_of(_KINDS[f["kind"]][1])(v), ScenarioConfig.metric),
    "seed": (number(0, integer=True), ScenarioConfig.seed),
    "params": (lambda v, f: dict(check(isinstance(v, dict), "an object", v)), lambda f: {}),
}


_BUILTINS = {
    "saddle-not-tsp": ("adversarial splice against the saddle: emptiness certificate", dict(
        kind="adversarial_box", seed=11, params={
            "map": {"kind": "saddle"}, "epsilon": "saddle_adversarial", "window_limit": 32, "margin": 0.0,
            "forward_seed": [1.0, 0.0], "jump_direction": [0.0, 1.0],
            "oracle": {"box": [[0.0, 2.0], [-1.0, 1.0]], "step": 1e-3}})),
    "homothety-tsp": ("synthesized slack shadows every random pseudo-orbit of x -> 2x", dict(
        kind="homothety_shadow", seed=17, params={
            "map": {"kind": "homothety", "factor": 2.0}, "epsilon": "saddle_adversarial",
            "count": 200, "window": [-20, 40]})),
    "reverse-homothety-tsp": ("same pipeline through the inverse of z -> conj(z)/2", dict(
        kind="homothety_shadow", seed=19, params={
            "map": {"kind": "power", "inner": {"kind": "reverse_homothety", "factor": 0.5}, "k": -1},
            "epsilon": "const:1.0", "count": 150, "window": [-20, 40]})),
    "translation-adversarial": ("decaying tolerance defeats the unit translation", dict(
        kind="adversarial_box", seed=13, params={
            "map": {"kind": "translation"}, "epsilon": "decaying:1.0", "window_limit": 64, "margin": 1e-12,
            "forward_seed": [0.0, 0.0], "jump_direction": [0.0, 1.0], "jump": 0.5,
            "oracle": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "step": 1e-2}})),
    "metric-warp": ("radial warp removes the constant-tolerance shadowing point", dict(
        kind="metric_warp", seed=29, metric="polar_warp", params={
            "map": {"kind": "saddle"}, "forward_seed": [1.0, 0.0], "jump_direction": [0.0, 1.0],
            "jump": 0.00500003, "window": [-24, 24],
            "oracle": {"box": [[0.0, 4.0], [-2.0, 2.0]], "step": 5e-3}})),
    "conjugacy-invariance": ("transported orbits are shadowed by transported points", dict(
        kind="conjugacy", seed=31, params={
            "map": {"kind": "homothety", "factor": 2.0}, "epsilon": "const:1.0",
            "count": 40, "window": [-10, 20],
            "changes": {
                "affine": {"kind": "affine", "matrix": [[0.96, -0.72], [0.72, 0.96]],
                           "offset": [0.3, -0.2]},
                "radial": {"kind": "radial", "a": 1.0, "b": 0.5}}})),
    "power-invariance": ("the squared homothety reproduces the shadowing pipeline", dict(
        kind="homothety_shadow", seed=23, params={
            "map": {"kind": "power", "inner": {"kind": "homothety", "factor": 2.0}, "k": 2},
            "epsilon": "saddle_adversarial", "count": 150, "window": [-20, 40]})),
    "forward-to-full": ("forward-only shadowing upgraded to the full window", dict(
        kind="forward_to_full", seed=37, params={
            "map": {"kind": "homothety", "factor": 2.0}, "epsilon": "saddle_adversarial",
            "count": 20, "depth": 16, "window": [-16, 32]})),
    "neighborhood-equivalence": ("ball neighborhoods become 1-Lipschitz tolerances", dict(
        kind="neighborhood", seed=41, params={
            "radius_functions": {
                "constant": "const:0.7",
                "well": "table:[[0.0, 0.1], [0.5, 1.0]]",
                "cone": {"op": "add", "args": [{"op": "const", "args": [1.0]},
                                               {"op": "norm", "args": ["sup"]}]}}})),
    "fixed-point-scan": ("fixed points versus finite-window shadowing evidence", dict(
        kind="fixed_point_scan", seed=43)),
}
SCENARIO_NAMES = list(_BUILTINS)


def builtin_config(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown scenario {name!r}")
    return ScenarioConfig(name=name, **copy.deepcopy(_BUILTINS[name][1]))


def list_scenarios() -> list[dict]:
    return [{"name": n, "summary": summary} for n, (summary, _) in _BUILTINS.items()]


def load_config(source: str) -> ScenarioConfig:
    """A built-in name, or a path to a JSON config document."""
    if source in SCENARIO_NAMES:
        return builtin_config(source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"{source!r} is neither a built-in scenario nor a config file")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text: {exc}") from exc
    return ScenarioConfig.from_obj(obj)


def check_config(config: ScenarioConfig) -> dict:
    """The decoded ``params`` of a config that passes the schema, or a ConfigError naming
    the first field it refuses."""
    with config_path(""):
        read_fields(config.to_obj(), _CONFIG_FIELDS)
    with config_path("params"):
        return read_fields(config.params, _KINDS[config.kind][2], {"metric": config.metric})


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunReport:
    """Execute one scenario and write its artifacts under ``out_dir`` (default ``out``).

    The scenario's verdict states whether the run reproduced the expected
    result; the written files carry no timing or other nondeterminism, so a
    rerun with the same config and seed is byte-identical.
    """
    params = check_config(config)
    handler = _KINDS[config.kind][0]
    root = Path(out_dir or "out") / config.name
    sink = _ArtifactSink(root)
    started = time.perf_counter()
    verdict, details = handler(config, params, sink)
    wall = time.perf_counter() - started
    report_obj = {
        "scenario": config.name,
        "verdict": verdict,
        "seed": config.seed,
        "config": config.to_obj(),
        "details": details,
        "artifacts": sorted(str(Path(p).relative_to(root)) for p in sink.paths),
    }
    sink.json("report.json", report_obj)
    return RunReport(config.name, verdict, sink.paths, wall, details)
