import json
import re

import pytest

from shadowlab.cli import main
from shadowlab.scenarios import SCENARIO_NAMES


def test_list_prints_ten_names(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out
    assert len(out.strip().splitlines()) == 10


def test_list_json_catalog(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload["scenarios"]] == SCENARIO_NAMES


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64


def test_missing_subcommand_is_usage_error():
    assert main([]) == 64


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "no-such-scenario"]) == 64
    assert "config error" in capsys.readouterr().err


def test_run_builtin_scenario(tmp_path, capsys):
    assert main(["run", "translation-adversarial", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "translation-adversarial: matches-paper" in out
    report = json.loads((tmp_path / "translation-adversarial" / "report.json").read_text())
    assert report["verdict"] == "matches-paper"
    assert "wall" not in json.dumps(report)


def test_run_config_file_with_overrides(tmp_path, capsys):
    config = {
        "name": "small-translation",
        "kind": "adversarial_box",
        "metric": "sup",
        "seed": 3,
        "params": {
            "window_limit": 64,
            "margin": 1e-12,
            "map": {"kind": "translation"},
            "epsilon": "decaying:1.0",
            "forward_seed": [0.0, 0.0],
            "jump_direction": [0.0, 1.0],
            "jump": 0.5,
            "oracle": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "step": 0.05},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "9", "--window", "16"]) == 0
    root = tmp_path / "out" / "small-translation"
    report = json.loads((root / "report.json").read_text())
    assert report["seed"] == 9
    assert report["config"]["params"]["window_limit"] == 16 and report["config"]["params"]["margin"] == 1e-12
    assert json.loads((root / "certificate.json").read_text())["window_limit"] == 16


def test_oversized_oracle_grid_is_config_error(tmp_path, capsys):
    from shadowlab.scenarios import builtin_config

    config = builtin_config("saddle-not-tsp").to_obj()
    config["params"]["oracle"]["step"] = 1e-5
    path = tmp_path / "huge-grid.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "exceeds" in err
    assert "Traceback" not in err


def test_bad_config_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",, }', encoding="utf-8")
    assert main(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 1" in err

    path2 = tmp_path / "fields.json"
    path2.write_text(json.dumps({"name": "x", "kind": "adversarial_box", "bogus": 1}), encoding="utf-8")
    assert main(["run", str(path2)]) == 64
    assert "bogus" in capsys.readouterr().err


def test_plot_subcommand(tmp_path, capsys):
    import numpy as np

    from shadowlab.maps import saddle
    from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule, orbit_to_csv, realize

    spec = PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.1]), 0), (-4, 4), saddle())
    csv_path = tmp_path / "orbit.csv"
    csv_path.write_text(orbit_to_csv(realize(spec)), encoding="utf-8")
    out_path = tmp_path / "orbit.svg"
    assert main(["plot", str(csv_path), "--kind", "orbit2d", "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert str(out_path) in capsys.readouterr().out


def test_internal_contract_violation_exits_70(tmp_path, capsys, monkeypatch):
    # A broken invariant inside a handler, on a valid config, is an internal fault.
    import shadowlab.scenarios as sc
    from shadowlab.errors import ContractViolation

    def broken(*args, **kwargs):
        raise ContractViolation("box bounds out of order")

    monkeypatch.setattr(sc, "box_feasibility", broken)
    assert main(["run", "translation-adversarial", "--out", str(tmp_path)]) == 70
    err = capsys.readouterr().err
    assert "contract violation: box bounds out of order" in err and "config error" not in err


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "from-env"))
    assert main(["run", "fixed-point-scan"]) == 0
    assert (tmp_path / "from-env" / "fixed-point-scan" / "report.json").exists()


def test_parallel_run_matches_sequential(tmp_path):
    names = ["translation-adversarial", "fixed-point-scan"]
    assert main(["run", names[0], "--out", str(tmp_path / "seq")]) == 0
    assert main(["run", names[1], "--out", str(tmp_path / "seq")]) == 0
    # A parallel sweep of the same two scenarios produces identical bytes.
    import shadowlab.scenarios as sc

    from concurrent.futures import ThreadPoolExecutor

    configs = [sc.builtin_config(n) for n in names]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda c: sc.run_scenario(c, str(tmp_path / "par")), configs))
    for name in names:
        for f in sorted((tmp_path / "seq" / name).iterdir()):
            assert f.read_bytes() == (tmp_path / "par" / name / f.name).read_bytes()


def _write_config(path, config):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", ["homothety-tsp", "conjugacy-invariance", "forward-to-full"])
@pytest.mark.parametrize("edit", [{"count": -3}, {"count": 0}, {"window": [2, 8]},
                                  {"window": [-4, -1]}, {"window": [0, 0]}])
def test_bad_ensemble_count_or_window_is_config_error(tmp_path, capsys, name, edit):
    from shadowlab.scenarios import builtin_config

    config = builtin_config(name).to_obj()
    config["params"].update(edit)
    path = _write_config(tmp_path / "bad.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and f"params.{next(iter(edit))}" in err
    assert not (tmp_path / "out" / name / "report.json").exists()


@pytest.mark.parametrize("name", ["../escape", "..", ".", "", "a/b", "/tmp/abs", "a\\b"])
def test_scenario_name_cannot_leave_out_dir(tmp_path, capsys, name):
    from shadowlab.scenarios import builtin_config

    config = builtin_config("translation-adversarial").to_obj()
    config["name"] = name
    path = _write_config(tmp_path / "cfg" / "escape.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    assert "config error" in capsys.readouterr().err
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert written <= {"cfg", "cfg/escape.json", "out"}


@pytest.mark.parametrize("params, field", [
    ({"epsilon": "const:1.0"}, "params.map"),
    ({"map": {"kind": "warp-drive"}, "epsilon": "const:1.0"}, "params.map.kind"),
    ({"map": {"kind": "power", "k": 2}, "epsilon": "const:1.0"}, "params.map.inner"),
    ({"map": {"kind": "homothety", "factor": 2.0}}, "params.epsilon"),
    ({"map": {"kind": "homothety", "factor": 1.0}, "epsilon": "const:1.0"}, "params.map"),
    ({"map": {"kind": "power", "inner": {"kind": "homothety", "factor": 2.0}, "k": 0},
      "epsilon": "const:1.0"}, "params.map"),
    ({"map": {"kind": "conjugated", "inner": {"kind": "homothety", "factor": 2.0},
              "change": {"kind": "affine", "matrix": [[1.0, 2.0], [2.0, 4.0]], "offset": [0.0, 0.0]}},
      "epsilon": "const:1.0"}, "params.map.change"),
    # Removed: the synthesis samples 64 directions, and the power map with k = -1 inverts the map.
    ({"map": {"kind": "homothety", "factor": 2.0}, "epsilon": "const:1.0", "sphere_samples": 64},
     "params.sphere_samples"),
    ({"map": {"kind": "reverse_homothety", "factor": 0.5}, "epsilon": "const:1.0", "invert_first": True},
     "params.invert_first"),
    ({"map": {"kind": "homothety", "factor": 2.0}, "epsilon": "const:1.0", "count": True},
     "params.count"),
])
def test_malformed_params_are_config_errors(tmp_path, capsys, params, field):
    config = {"name": "malformed", "kind": "homothety_shadow", "params": params}
    path = _write_config(tmp_path / "malformed.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, field", [
    ("metric-warp", {"jump": "abc"}, "params.jump"),
    ("conjugacy-invariance", {"changes": []}, "params.changes"),
    ("neighborhood-equivalence", {"radius_functions": []}, "params.radius_functions"),
    ("saddle-not-tsp", {"forward_seed": ["a", 0.0]}, "params.forward_seed"),
    ("forward-to-full", {"depth": "16"}, "params.depth"),
    ("conjugacy-invariance", {"changes": {"affine": {"kind": "affine", "offset": [0.0, 0.0],
                                                      "matrix": [[1.0, 2.0], [2.0, 4.0]]}}},
     "params.changes.affine"),
])
def test_ill_typed_or_refused_params_are_config_errors(tmp_path, capsys, name, edit, field):
    from shadowlab.scenarios import builtin_config

    config = builtin_config(name).to_obj()
    config["params"].update(edit)
    path = _write_config(tmp_path / "bad.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["homothety-tsp", "conjugacy-invariance", "forward-to-full"])
@pytest.mark.parametrize("map_obj", [
    {"kind": "saddle"},
    {"kind": "translation"},
    {"kind": "homothety", "factor": 0.5},
    {"kind": "diagonal_affine", "scales": [2.0, 3.0]},
    {"kind": "diagonal_affine", "scales": [2.0, 2.0], "translation": [1.0, 0.0]},
])
def test_ensemble_kinds_need_an_expanding_homothety(tmp_path, capsys, name, map_obj):
    # The paper's shadowing side holds for expanding homotheties only; any
    # other map in these kinds is a misconfiguration, not a refutation.
    from shadowlab.scenarios import builtin_config

    config = builtin_config(name).to_obj()
    config["params"]["map"] = map_obj
    path = _write_config(tmp_path / "map.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "params.map" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / name / "report.json").exists()


def test_window_past_double_range_is_config_error(tmp_path, capsys):
    assert main(["run", "saddle-not-tsp", "--window", "2000", "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "n=1024" in err
    assert "Traceback" not in err


def test_certificate_past_double_range_decides_without_the_oracle(tmp_path, capsys):
    from shadowlab.scenarios import builtin_config

    config = builtin_config("saddle-not-tsp").to_obj()
    del config["params"]["oracle"]
    path = _write_config(tmp_path / "no-oracle.json", config)
    assert main(["run", path, "--window", "2000", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "saddle-not-tsp" / "report.json").read_text())
    assert report["verdict"] == "matches-paper"
    assert all(run["outcome"] == "empty" and run["emptiness_window"] <= 32 for run in report["details"]["runs"])


def test_unknown_change_of_coordinates_is_config_error(tmp_path, capsys):
    from shadowlab.scenarios import builtin_config

    config = builtin_config("conjugacy-invariance").to_obj()
    config["params"]["changes"]["affine"] = {"kind": "shear"}
    path = _write_config(tmp_path / "shear.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "params.changes.affine.kind" in err and "Traceback" not in err


@pytest.mark.parametrize("name, field, value", [
    # The synthesized slack broke its escape bound just outside r0.
    ("homothety-tsp", "epsilon", "const:0.5"),
    # The point at index 0 came from iterating the start's point 400 times:
    # no transport passed, and an overflow warning went to stderr.
    ("conjugacy-invariance", "window", [-400, 20]),
])
def test_configs_that_gave_false_refutations_match_the_paper(tmp_path, capsys, name, field, value):
    # Each exited 2 (contradicts-paper).  The third such config, forward-to-full
    # at depth 200, is a REFUSED row of test_config_schema.
    from shadowlab.scenarios import builtin_config

    config = builtin_config(name).to_obj()
    config["params"][field] = value
    path = _write_config(tmp_path / "edit.json", config)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_run_prints_wall_time(tmp_path, capsys):
    assert main(["run", "translation-adversarial", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"translation-adversarial: matches-paper \(\d+\.\d\ds, \d+ artifacts\)\n", out)
