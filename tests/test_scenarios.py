import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab.cli import main
from shadowlab.cplus import fn_from_obj, random_positive_fn
from shadowlab.errors import ConfigError, ContractViolation
from shadowlab.scenarios import (
    SCENARIO_NAMES,
    RunReport,
    ScenarioConfig,
    builtin_config,
    list_scenarios,
    load_config,
    run_scenario,
)


def test_catalog_is_complete():
    assert len(SCENARIO_NAMES) == 10
    for name in SCENARIO_NAMES:
        config = builtin_config(name)
        assert config.name == name
        rebuilt = ScenarioConfig.from_obj(config.to_obj())
        assert rebuilt.to_obj() == config.to_obj()
    summaries = list_scenarios()
    assert [s["name"] for s in summaries] == SCENARIO_NAMES
    assert all(s["summary"] for s in summaries)


def test_readme_config_tables_match_the_schema():
    from shadowlab.scenarios import _CONFIG_FIELDS, _KINDS

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tables, kind = {}, None
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) < 2:
            continue
        if cells[0].startswith("`"):
            kind = re.match(r"`(\w+)`", cells[0]).group(1)
            tables[kind] = []
        elif cells[0]:
            continue  # the header and its rule
        tables[kind] += re.findall(r"`(\w+)`", cells[1])
    assert tables == {k: list(table) for k, (_, _, table) in _KINDS.items()}

    paragraph = next(" ".join(p.split()) for p in readme.split("\n\n") if "Top-level" in p)
    paragraph = paragraph.split("Top-level fields:", 1)[1]
    assert re.findall(r"`(\w+)` \(", paragraph) == list(_CONFIG_FIELDS)


def test_readme_names_resolve_in_the_package():
    # A private name such as `_CHUNK_POINTS` or `_linear`, or `module.name` for a module
    # of the package, must name an attribute that exists: stale names of deleted caches
    # and helpers are what this catches.
    import importlib
    import pkgutil

    import shadowlab

    modules = {info.name: importlib.import_module(f"shadowlab.{info.name}")
               for info in pkgutil.iter_modules(shadowlab.__path__)}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", readme))
    private = sorted(n for n in names if re.fullmatch(r"_\w+", n))
    dotted = sorted(n for n in names if n.split(".")[0] in modules and not n.endswith(".py"))
    assert private and dotted
    for name in private:
        assert any(hasattr(module, name) for module in modules.values()), name
    for name in dotted:
        head, attr = name.split(".", 1)
        assert hasattr(modules[head], attr), name


def test_parse_fn_shorthands():
    assert fn_from_obj("const:2.0").eval([0.0, 0.0]) == 2.0
    assert fn_from_obj("decaying:1.0").eval([9.0, 0.0]) == pytest.approx(0.1)
    assert fn_from_obj("saddle_adversarial").eval([1.0, 0.0]) == 0.5
    assert fn_from_obj("table:[[0.0, 1.0], [2.0, 0.5]]").eval([1.0, 0.0]) == pytest.approx(0.75)
    assert fn_from_obj({"op": "const", "args": [3.0]}).eval([0.0, 0.0]) == 3.0
    with pytest.raises(ContractViolation):
        fn_from_obj("mystery:1")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_obj({"kind": "adversarial_box"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_obj({"name": "x", "kind": "k", "surprise": True})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_obj({"name": "x", "kind": "k", "metric": "taxicab"})
    with pytest.raises(ConfigError):
        load_config("definitely-not-a-scenario")


def test_run_report_exit_codes():
    assert RunReport("x", "matches-paper", [], 0.0).exit_code == 0
    assert RunReport("x", "contradicts-paper", [], 0.0).exit_code == 2
    assert RunReport("x", "inconclusive", [], 0.0).exit_code == 1


def test_ball_min_is_the_level_the_synthesis_used(tmp_path):
    from shadowlab.cplus import delta_reference_levels
    from shadowlab.geometry import MetricKind
    from shadowlab.maps import homothety

    # 2^-(x0 + 0.05 x1) is least on the unit circle between sampled directions, so
    # the synthesis's 64 directions and the verification's 256 give different minima.
    eps = {"op": "exp2neg", "args": [{"op": "add", "args": [
        {"op": "coord", "args": [0]}, {"op": "mul", "args": [{"op": "const", "args": [0.05]},
                                                             {"op": "coord", "args": [1]}]}]}]}
    config = ScenarioConfig(name="ball-min", kind="homothety_shadow", metric="euclidean", seed=5, params={
        "map": {"kind": "homothety", "factor": 2.0}, "epsilon": eps, "count": 4, "window": [-4, 8]})
    report = run_scenario(config, str(tmp_path))
    levels = {n: delta_reference_levels(fn_from_obj(eps), homothety(2.0), MetricKind.EUCLIDEAN, n)[1]
              for n in (64, 256)}
    assert report.details["ball_min"] == levels[64] != levels[256]


def test_metric_warp_scenario_verdict(tmp_path):
    report = run_scenario(builtin_config("metric-warp"), str(tmp_path))
    assert report.verdict == "matches-paper"
    assert report.details["warped_point_found"] is False
    assert report.details["unwarped_point_found"] is True
    search = json.loads((tmp_path / "metric-warp" / "search.json").read_text())
    assert search["polar_warp"]["found"] is None
    assert search["sup"]["found"] is not None


def test_fixed_point_scan_consistency(tmp_path):
    report = run_scenario(builtin_config("fixed-point-scan"), str(tmp_path))
    assert report.verdict == "matches-paper"
    maps = report.details["maps"]
    assert maps["saddle"]["fixed_points"] and maps["saddle"]["evidence"] == "not-shadowing"
    assert maps["homothety-2"]["fixed_points"] and maps["homothety-2"]["evidence"] == "shadowing"
    assert maps["reverse-homothety"]["evidence"] == "shadowing"
    assert maps["translation"]["fixed_points"] == []
    assert maps["translation"]["evidence"] == "not-shadowing"
    assert not any(entry["contradiction"] for entry in maps.values())


def test_sweep_table_matches_brute_force_oracle():
    import numpy as np

    from shadowlab.scenarios import _chessboard_infconv_table

    rng = np.random.default_rng(1)
    v = rng.uniform(0.2, 3.0, size=(17, 17))
    h = 0.25
    idx = np.arange(17)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    brute = np.empty_like(v)
    for a in range(17):
        for b in range(17):
            brute[a, b] = np.min(v + h * np.maximum(np.abs(ii - a), np.abs(jj - b)))
    sweep = _chessboard_infconv_table(v, h)
    assert np.array_equal(sweep, brute)


def test_saddle_scenario_artifacts(tmp_path):
    report = run_scenario(builtin_config("saddle-not-tsp"), str(tmp_path))
    assert report.verdict == "matches-paper"
    root = tmp_path / "saddle-not-tsp"
    cert = json.loads((root / "certificate.json").read_text())
    assert cert["outcome"] == "empty"
    assert cert["emptiness_window"] <= 32
    listed = json.loads((root / "report.json").read_text())["artifacts"]
    for name in ("certificate.json", "boxwidth.csv", "orbit.csv"):
        assert name in listed
    assert any(a.endswith(".svg") for a in listed)
    assert report.details["oracle"]["found"] is None


_CHANGES = builtin_config("conjugacy-invariance").params["changes"]


@pytest.mark.parametrize("kind", ["homothety_shadow", "conjugacy", "forward_to_full"])
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("factor", [1.05, 1.2, -1.1])
@pytest.mark.parametrize("epsilon", ["const:0.1", "const:0.5"])
def test_ensemble_kinds_make_no_false_refutation(tmp_path, kind, metric, factor, epsilon):
    # Weak expansion and small constant tolerances: the synthesized slack
    # broke its own escape bound just outside r0 here.
    params = {"map": {"kind": "homothety", "factor": factor}, "epsilon": epsilon, "count": 6}
    if kind == "conjugacy":
        params["changes"] = _CHANGES
    config = ScenarioConfig(name="sweep", kind=kind, metric=metric, seed=7, params=params)
    report = run_scenario(config, str(tmp_path))
    assert report.verdict != "contradicts-paper", report.details


_WINDOW_SHAPES = ([("forward_to_full", metric, factor, window) for metric in ("sup", "euclidean")
                   for factor in (2.0, 3.0, -1.1) for window in ([-16, 0], [-400, 32])]
                  + [(kind, metric, 2.0, [-400, 32]) for kind in ("homothety_shadow", "conjugacy")
                     for metric in ("sup", "euclidean")])


@pytest.mark.parametrize("kind, metric, factor, window", _WINDOW_SHAPES)
def test_window_shapes_make_no_false_refutation(tmp_path, kind, metric, factor, window):
    # A window that ends at index 0, and one that reaches 400 steps back: the
    # forward-to-full direct point came from iterating the start's point -start
    # times, and a one-point forward half had no series.
    params = {"map": {"kind": "homothety", "factor": factor}, "epsilon": "const:0.5", "count": 6,
              "window": window}
    if kind == "conjugacy":
        params["changes"] = _CHANGES
    config = ScenarioConfig(name="sweep", kind=kind, metric=metric, seed=7, params=params)
    report = run_scenario(config, str(tmp_path))
    assert report.verdict != "contradicts-paper", report.details


def test_forward_to_full_refuses_a_depth_whose_power_leaves_double_range(tmp_path, capsys):
    # 1e6^52 leaves double range at shift 52.  The whole ensemble was drawn, and every
    # orbit's iterates left the ball at shift 5: a false refutation, exit 2.
    config = {"name": "overflow", "kind": "forward_to_full", "seed": 37,
              "params": {"map": {"kind": "homothety", "factor": 1e6}, "epsilon": "const:1.0", "depth": 60,
                         "window": [-60, 2]}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err == ("shadowlab: config error: 'params.depth': iterate overflow at n=52: "
                                       "scale power left double range\n")
    assert not (tmp_path / "out").exists()


_CONJUGACY_CASES = ([("euclidean", -3.38, "const:0.068", [-11, 33])]
                    + [(metric, 2.0, epsilon, [-50, 38]) for epsilon in ("saddle_adversarial", "decaying:1.0")
                       for metric in ("sup", "euclidean")])


@pytest.mark.parametrize("metric, factor, epsilon, window", _CONJUGACY_CASES)
def test_conjugacy_transport_makes_no_false_refutation(tmp_path, metric, factor, epsilon, window):
    # Transported from images of sampled points, the tolerance rounded to 0 once it fell
    # below the ulp of the point, and the conjugate map's iterates gained |k|^n ulps:
    # every case here passed no transported orbit.
    params = {"map": {"kind": "homothety", "factor": factor}, "epsilon": epsilon, "count": 6,
              "window": window, "changes": _CHANGES}
    config = ScenarioConfig(name="sweep", kind="conjugacy", metric=metric, seed=7, params=params)
    report = run_scenario(config, str(tmp_path))
    assert report.verdict == "matches-paper", report.details


@st.composite
def _homothety_maps(draw, low):
    """A map config of modulus |k| in [low, 8], either sign: a homothety, or a power of a
    homothety or reverse homothety."""
    k = draw(st.floats(low, 8.0)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        return {"kind": "homothety", "factor": k}
    p = draw(st.sampled_from([-2, -1, 2]))
    inner = {"kind": draw(st.sampled_from(["homothety", "reverse_homothety"])),
             "factor": float(np.sign(k) * abs(k) ** (1.0 / p))}
    return {"kind": "power", "inner": inner, "k": p}


_TOLERANCES = st.one_of(
    st.floats(0.01, 2.0).map(lambda v: f"const:{v!r}"), st.floats(0.05, 4.0).map(lambda r: f"decaying:{r!r}"),
    st.just("saddle_adversarial"),
    st.integers(0, 2**32 - 1).map(lambda s: random_positive_fn(np.random.default_rng(s)).to_obj()))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["homothety_shadow", "conjugacy"]), m=_homothety_maps(1.02), epsilon=_TOLERANCES,
       metric=st.sampled_from(["sup", "euclidean"]), count=st.integers(20, 30),
       window=st.tuples(st.integers(-20, 0), st.integers(1, 40)), seed=st.integers(0, 2**31 - 1))
def test_positive_half_makes_no_false_refutation(tmp_path_factory, kind, m, epsilon, metric, count, window, seed):
    """The paper's positive half over configs the schema accepts: an expanding homothety
    shadows, so no verdict is ``contradicts-paper``."""
    params = {"map": m, "epsilon": epsilon, "count": count, "window": list(window)}
    if kind == "conjugacy":
        params["changes"] = _CHANGES
    config = ScenarioConfig(name="positive", kind=kind, metric=metric, seed=seed, params=params)
    report = run_scenario(config, str(tmp_path_factory.mktemp("positive")))
    assert report.verdict != "contradicts-paper", report.details


@settings(max_examples=100, derandomize=True, deadline=None)
@given(m=_homothety_maps(1.05), epsilon=_TOLERANCES, metric=st.sampled_from(["sup", "euclidean"]),
       depth=st.integers(1, 44), back=st.integers(0, 40), n_max=st.integers(0, 40), seed=st.integers(0, 2**31 - 1))
def test_forward_to_full_makes_no_false_refutation(tmp_path_factory, m, epsilon, metric, depth, back, n_max, seed):
    """Forward-to-full over configs the schema accepts, down to |k| = 1.05: every series
    point lies in its epsilon(x_0)-ball, and every iterate f^k(y_{-k}) within its rounding
    budget of it (a share above 1 raises).  Judged by its iterates, with a Cauchy and a
    match tolerance, the route refuted 5 of these 100 configs and left 12 inconclusive."""
    params = {"map": m, "epsilon": epsilon, "depth": depth, "window": [-depth - back, n_max], "count": 10}
    out = tmp_path_factory.mktemp("forward")
    report = run_scenario(ScenarioConfig(name="ftf", kind="forward_to_full", metric=metric, seed=seed,
                                         params=params), str(out))
    assert report.verdict == "matches-paper", report.details
    limits = json.loads((out / "ftf" / "limits.json").read_text())
    assert limits["contained"] == limits["total"] == 10 and limits["max_rounding_share"] <= 1.0


@settings(max_examples=90, derandomize=True, deadline=None)
@given(a=st.floats(1.1, 4.0), b=st.floats(0.25, 0.9), signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 2),
       epsilon=_TOLERANCES, metric=st.sampled_from(["sup", "euclidean", "polar_warp"]),
       seed=st.integers(0, 2**31 - 1))
# The weakest saddle: its boxes empty at depth 49 under every metric.
@example(a=1.1, b=0.25, signs=(-1.0, -1.0), epsilon="saddle_adversarial", metric="polar_warp", seed=11)
def test_negative_half_makes_no_false_refutation(tmp_path_factory, a, b, signs, epsilon, metric, seed):
    """The paper's negative half over random hyperbolic saddles diag(a, b), through
    ``saddle-not-tsp``'s splice, drawn slacks and grid oracle under every metric.

    A hyperbolic linear map shadows for tolerances bounded below, so only a tolerance
    that decays toward the stable axis can witness the negative half: no verdict is
    ``contradicts-paper``, and ``saddle_adversarial`` defeats every drawn slack.  The
    window is +-64, not the built-in +-32: as |a| nears 1.1 and |b| 0.25 some boxes
    empty only at depth 49, so at +-32 they stay open and the verdict is inconclusive.
    """
    config = builtin_config("saddle-not-tsp")
    config.metric, config.seed = metric, seed
    config.params.update(map={"kind": "diagonal_affine", "scales": [signs[0] * a, signs[1] * b]}, epsilon=epsilon,
                         window_limit=64)
    report = run_scenario(config, str(tmp_path_factory.mktemp("negative")))
    assert report.verdict != "contradicts-paper", report.details
    if epsilon == "saddle_adversarial":
        assert report.verdict == "matches-paper", report.details


# Two weak expansions that refute falsely unless the slack inside the r0-ball is capped by k - 1.
@pytest.mark.parametrize("name, metric, factor, epsilon, seed", [
    ("homothety-tsp", "sup", 1.05, "const:0.5", 17),
    ("conjugacy-invariance", "euclidean", -1.2, "const:0.0625", 13),
])
def test_weak_expansion_refutes_falsely(tmp_path, name, metric, factor, epsilon, seed):
    config = builtin_config(name)
    config.metric, config.seed = metric, seed
    config.params.update(map={"kind": "homothety", "factor": factor}, epsilon=epsilon)
    report = run_scenario(config, str(tmp_path))
    assert report.verdict != "contradicts-paper", report.details
