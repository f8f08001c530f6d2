import json
import re
from pathlib import Path

import pytest

from shadowlab.cplus import fn_from_obj
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
