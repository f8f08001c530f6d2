"""Every scenario config passes one schema before the run starts.

A config value the schema refuses exits 64 naming the field's path, prints no
traceback and writes no report; the fuzz test edits single fields of the
built-in configs and checks that no edit escapes those exit codes.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.cli import main
from shadowlab.cplus import Const, saddle_adversarial_epsilon
from shadowlab.errors import ContractViolation, SearchSpaceError
from shadowlab.geometry import MetricKind
from shadowlab.maps import saddle
from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule
from shadowlab.scenarios import SCENARIO_NAMES, ScenarioConfig, builtin_config
from shadowlab.shadowing import sampled_search


def _edited(name: str, path: list, value=None, delete: bool = False) -> dict:
    """The built-in config ``name`` as JSON, with the field at ``path`` set or deleted."""
    config = builtin_config(name).to_obj()
    target = config
    for key in path[:-1]:
        target = target[key]
    if delete:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return config


def _run(config: dict, root: Path, *flags: str) -> tuple[int, str]:
    path = root / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--out", str(root / "out"), *flags])
    return code, err.getvalue()


REFUSED = [
    # Each of these gave a false contradicts-paper or matches-paper before.
    ("forward-to-full", ["params", "depth"], 0, "params.depth"),
    ("forward-to-full", ["params", "match_tol"], -1.0, "params.match_tol"),
    ("metric-warp", ["params", "oracle", "box"], [[0.0, 4.0]], "params.oracle.box"),
    ("saddle-not-tsp", ["params", "oracle", "box"], [[0.0, 2.0]], "params.oracle.box"),
    # Each of these ended in a traceback.
    ("saddle-not-tsp", ["seed"], "abc", "'seed'"),
    ("saddle-not-tsp", ["seed"], -1, "'seed'"),
    ("saddle-not-tsp", ["params", "window_limit"], "abc", "params.window_limit"),
    ("homothety-tsp", ["params", "map", "factor"], "abc", "params.map.factor"),
    ("conjugacy-invariance", ["params", "changes", "radial", "a"], "x", "params.changes.radial.a"),
    ("homothety-tsp", ["params", "epsilon"], {"op": "const", "args": []}, "params.epsilon"),
    ("homothety-tsp", ["params", "epsilon"], {"op": "coord", "args": ["x"]}, "params.epsilon.args[0]"),
    ("homothety-tsp", ["params", "epsilon"], "const:abc", "params.epsilon.args[0]"),
    ("homothety-tsp", ["params", "epsilon"], "table:[1", "params.epsilon.args[0]"),
    ("saddle-not-tsp", ["params", "oracle", "step"], "abc", "params.oracle.step"),
    ("saddle-not-tsp", ["params", "delta_count"], 0, "params.delta_count"),
    ("neighborhood-equivalence", ["params", "points_per_axis"], 1, "params.points_per_axis"),
    # Each of these exited 70, as an internal fault.
    ("saddle-not-tsp", ["params", "window_limit"], -3, "params.window_limit"),
    ("homothety-tsp", ["params", "sphere_samples"], 3, "params.sphere_samples"),
    ("saddle-not-tsp", ["params", "forward_seed"], [1.0], "params.forward_seed"),
    ("homothety-tsp", ["params", "epsilon"], {"op": "bogus"}, "params.epsilon.op"),
    ("homothety-tsp", ["params", "epsilon"], {"op": "norm", "args": ["bogus"]}, "params.epsilon.args[0]"),
    ("metric-warp", ["params", "oracle", "step"], 0, "params.oracle.step"),
    ("metric-warp", ["params", "delta_level"], 0, "params.delta_level"),
    ("metric-warp", ["params", "jump"], math.nan, "params.jump"),
    ("neighborhood-equivalence", ["params", "half_extent"], -1.0, "params.half_extent"),
    ("homothety-tsp", ["metric"], "polar_warp", "'metric'"),
    ("neighborhood-equivalence", ["metric"], "euclidean", "'metric'"),
    ("saddle-not-tsp", ["params", "jump_direction"], [0.0, 0.0], "params.jump_direction"),
    ("saddle-not-tsp", ["params", "epsilon"], {"op": "envelope", "args": ["polar_warp", [[0.0, 0.0]], [1.0]]},
     "params.epsilon"),
    ("conjugacy-invariance", ["params", "changes", "affine"],
     {"kind": "affine", "matrix": [[2.0]], "offset": [0.0]}, "params.changes.affine"),
    # Each of these ran silently.
    ("saddle-not-tsp", ["seed"], 1.5, "'seed'"),
    ("homothety-tsp", ["params", "cout"], 5, "params.cout"),
    ("homothety-tsp", ["params", "verify_points"], 0, "params.verify_points"),
    ("homothety-tsp", ["params", "anchored_fraction"], 2.0, "params.anchored_fraction"),
    ("homothety-tsp", ["params", "anchored_fraction"], -1.0, "params.anchored_fraction"),
    ("conjugacy-invariance", ["params", "changes"], {}, "params.changes"),
    ("neighborhood-equivalence", ["params", "radius_functions"], {}, "params.radius_functions"),
    ("power-invariance", ["params", "map", "k"], 2.0, "params.map.k"),
    # This one reported inconclusive.
    ("forward-to-full", ["params", "tol"], -1.0, "params.tol"),
    # Maps that shadow, for which no emptiness claim is made: these gave a
    # false contradicts-paper.
    ("saddle-not-tsp", ["params", "map"], {"kind": "homothety", "factor": 2.0}, "params.map"),
    ("saddle-not-tsp", ["params", "map"], {"kind": "reverse_homothety"}, "params.map"),
    # The ensemble kinds are planar: 1-D exited 70 from the plot, 3-D was
    # checked on planar points only.
    ("homothety-tsp", ["params", "map", "dimension"], 1, "params.map"),
    ("homothety-tsp", ["params", "map", "dimension"], 3, "params.map"),
    # Pseudo-orbits that leave double range: this one never finished.
    ("homothety-tsp", ["params", "map", "factor"], 1e300, "params.map"),
    # Tolerance trees that fail where they are first evaluated: exit 70, a
    # false contradicts-paper, and a numpy traceback.
    ("homothety-tsp", ["params", "epsilon"], "const:1e-300", "params.epsilon"),
    ("saddle-not-tsp", ["params", "epsilon"], {"op": "coord", "args": [0]}, "params.epsilon"),
    ("saddle-not-tsp", ["params", "epsilon"], {"op": "envelope", "args": ["sup", [[0.0, 0.0, 0.0]], [1.0]]},
     "params.epsilon"),
    # An unknown shorthand string.
    ("homothety-tsp", ["params", "epsilon"], "mystery:1", "params.epsilon.op"),
    # Trees that trip their own guard where the slack is synthesized (1 + x0)
    # or where they are read (1 - 2): these exited 70, as an internal fault.
    ("homothety-tsp", ["params", "epsilon"], {"op": "add", "args": [{"op": "const", "args": [1.0]},
                                                                    {"op": "coord", "args": [0]}]},
     "params.epsilon"),
    ("homothety-tsp", ["params", "epsilon"], {"op": "sub", "args": [{"op": "const", "args": [1.0]},
                                                                    {"op": "const", "args": [2.0]}]},
     "params.epsilon"),
    # Removed fields: no run read them, or the map's power form says the same.
    ("homothety-tsp", ["window_limit"], 32, "'window_limit'"),
    ("homothety-tsp", ["margin"], 0.0, "'margin'"),
    ("homothety-tsp", ["out_dir"], None, "'out_dir'"),
    ("saddle-not-tsp", ["params", "splice"], 0, "params.splice"),
    # A tree positive through the slack synthesis that first turns non-positive
    # along the adversarial window: this exited 70, naming no field or index.
    ("translation-adversarial", ["params", "epsilon"], {"op": "add", "args": [{"op": "const", "args": [1.0]},
                                                                             {"op": "coord", "args": [0]}]},
     "params.epsilon"),
    # Removed fields, each at the one value every run gave it, now a constant
    # beside the handler that reads it.
    ("saddle-not-tsp", ["params", "delta_count"], 5, "params.delta_count"),
    ("homothety-tsp", ["params", "anchored_fraction"], 0.2, "params.anchored_fraction"),
    ("homothety-tsp", ["params", "sphere_samples"], 64, "params.sphere_samples"),
    ("homothety-tsp", ["params", "verify_points"], 20_000, "params.verify_points"),
    ("metric-warp", ["params", "epsilon_level"], 1.0, "params.epsilon_level"),
    ("metric-warp", ["params", "delta_level"], 0.02, "params.delta_level"),
    ("forward-to-full", ["params", "tol"], 1e-9, "params.tol"),
    ("forward-to-full", ["params", "match_tol"], 1e-8, "params.match_tol"),
    ("neighborhood-equivalence", ["params", "points_per_axis"], 61, "params.points_per_axis"),
    ("neighborhood-equivalence", ["params", "half_extent"], 10.0, "params.half_extent"),
    # metric_warp runs the polar-warped and the sup search whatever its metric says.
    ("metric-warp", ["metric"], "sup", "'metric'"),
    # Removed node: a min of a max with const bounds gives the same values.
    ("homothety-tsp", ["params", "epsilon"], {"op": "clamp", "args": [{"op": "norm", "args": ["sup"]}, 0.5, 2.0]},
     "params.epsilon.op"),
    # A depth past the window's start: every orbit failed to realize its
    # deepest shift, which counted as a false contradicts-paper.
    ("forward-to-full", ["params", "depth"], 200, "params.window"),
    # Depths that no window admits, or whose power 2^1024 leaves double range at shift 1024,
    # are refused before the window is read.
    ("forward-to-full", ["params", "depth"], 10**12, "params.depth"),
    ("forward-to-full", ["params", "depth"], 1100, "params.depth"),
]
# The translation-adversarial row whose tree first turns non-positive at window index -7.
_WINDOW_INDEX_ROW = next(row for row in REFUSED if row[0] == "translation-adversarial")


@pytest.mark.parametrize("name, path, value, field", REFUSED)
def test_refused_values_exit_64_naming_the_field(tmp_path, name, path, value, field):
    code, err = _run(_edited(name, path, value), tmp_path)
    assert code == 64
    assert "config error" in err and field in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("report.json"))
    assert not (tmp_path / "out" / name).exists()


def test_tolerance_non_positive_along_the_window_names_the_index(tmp_path):
    # The walk's first block holds n = -7..8, and 1 + x0 is least at x = (-7, 0.5).
    code, err = _run(_edited(*_WINDOW_INDEX_ROW[:3]), tmp_path)
    assert code == 64 and "'params.epsilon': node 'add' produced non-positive value -6.0 at window index -7" in err


@pytest.mark.parametrize("edit, field", [
    # DegenerateMarginError: the margin swallows the saddle tolerance.
    ((["params", "margin"], 10.0), "margin"),
    # UnsupportedMapError: the exact certificate needs a diagonal-affine map.
    ((["params", "map"], {"kind": "conjugated", "inner": {"kind": "saddle"},
                          "change": {"kind": "radial", "a": 1.0, "b": 0.5}}), "diagonal-affine"),
])
def test_library_config_errors_exit_64(tmp_path, edit, field):
    code, err = _run(_edited("saddle-not-tsp", *edit), tmp_path)
    assert code == 64
    assert "config error" in err and field in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("report.json"))
    assert not (tmp_path / "out" / "saddle-not-tsp").exists()


@pytest.mark.parametrize("flags, field", [(["--window", "0"], "window_limit"),
                                          (["--seed", "-4"], "seed")])
def test_cli_overrides_pass_the_same_gate(tmp_path, capsys, flags, field):
    assert main(["run", "translation-adversarial", "--out", str(tmp_path), *flags]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "translation-adversarial").exists()


@pytest.mark.parametrize("scenario, window", [("homothety-tsp", "5"), ("all", "64")])
def test_window_is_refused_where_no_kind_reads_it(tmp_path, capsys, scenario, window):
    # Only adversarial_box reads a window limit; "all" is refused before any run starts.
    assert main(["run", scenario, "--window", window, "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "config error: 'params.window_limit'" in err
    assert not list(tmp_path.iterdir())


def test_defaults_and_normalisation_are_not_written_back(tmp_path):
    config = {"name": "short", "kind": "forward_to_full", "seed": 3,
              "params": {"map": {"kind": "homothety"}, "epsilon": "const:1.0", "count": 2,
                         "depth": 4}}
    code, _ = _run(config, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "out" / "short" / "report.json").read_text())
    assert report["config"]["params"] == config["params"]
    assert sorted(report["config"]) == ["kind", "metric", "name", "params", "seed"]
    limits = json.loads((tmp_path / "out" / "short" / "limits.json").read_text())
    assert limits["depth"] == 4 and limits["contained"] == limits["total"] == 2


def test_a_missing_metric_is_the_kinds_first(tmp_path):
    # metric_warp allows only polar_warp: a config without a metric runs it, where a
    # default of sup for every kind refused a value the user never wrote.
    code, err = _run(_edited("metric-warp", ["metric"], delete=True), tmp_path)
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "metric-warp" / "report.json").read_text())
    assert report["config"]["metric"] == "polar_warp"
    assert ScenarioConfig(name="w", kind="metric_warp").metric == "polar_warp"
    assert ScenarioConfig(name="h", kind="homothety_shadow").metric == "sup"
    assert ScenarioConfig(name="h", kind="homothety_shadow", metric="euclidean").metric == "euclidean"


@pytest.mark.parametrize("box", [[(0.0, 2.0)], [(0.0, 2.0), (-1.0, 1.0), (0.0, 1.0)]])
def test_sampled_search_needs_one_box_axis_per_dimension(box):
    spec = PseudoOrbitSpec(SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.05]), 0), (-4, 4), saddle())
    with pytest.raises(ContractViolation, match="axes"):
        sampled_search(spec, saddle_adversarial_epsilon(), MetricKind.SUP, box, 0.1)


def test_tiny_oracle_step_is_refused_before_the_grid_is_built():
    spec = PseudoOrbitSpec(SplicedRule(np.zeros(2), np.array([0.0, 0.5]), 0), (-2, 2), saddle())
    with pytest.raises(SearchSpaceError):
        sampled_search(spec, Const(1.0), MetricKind.SUP, [(0.0, 4.0), (-2.0, 2.0)], 1e-300)


# ---------------------------------------------------------------------------
# Fuzz: one-field edits of the built-in configs
# ---------------------------------------------------------------------------

# Fields that size the work; an edit may shrink them but never grows them.
_SIZE_FIELDS = {"count", "depth", "window", "window_limit", "dimension", "step", "box"}


def _junk(scalars):
    return st.recursive(
        scalars | st.text(max_size=6) | st.sampled_from(["const:", "table:", "op", "kind", "args"]),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["op", "args", "kind", "factor", "inner", "matrix", "a"]) | st.text(max_size=4),
            inner, max_size=3),
        max_leaves=8)


# Junk holds any number, except in place of a size field, where a number could enlarge it.
_JUNK = _junk(st.none() | st.booleans() | st.integers(-3, 3) | st.floats())
_SIZE_JUNK = _junk(st.none() | st.booleans())
_BAD_NUMBERS = st.sampled_from([-1, 0, -0.5, 1.5, math.nan, math.inf, -math.inf, True, "7", None, [], {}])


def _paths(obj, path=()):
    """The path of every value in a JSON object, nested objects included."""
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _paths(value, path + (key,))


@st.composite
def _one_field_edit(draw):
    name = draw(st.sampled_from(SCENARIO_NAMES))
    config = builtin_config(name).to_obj()
    *parent, key = draw(st.sampled_from(list(_paths(config))))
    target = config
    for step in parent:
        target = target[step]
    how = draw(st.sampled_from(["delete", "unknown", "number", "junk"]))
    if how == "delete" and key in _SIZE_FIELDS:
        how = "junk"  # a deleted size field takes its default, which may be larger
    if how == "delete":
        del target[key]
    elif how == "unknown":
        target[draw(st.sampled_from(["cout", "extra", "Seed"]))] = draw(_JUNK)
    elif how == "number":
        target[key] = draw(_BAD_NUMBERS)
    else:
        target[key] = draw(_SIZE_JUNK if key in _SIZE_FIELDS else _JUNK)
    return config


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_one_field_edit())
def test_no_config_edit_escapes_the_exit_codes(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, err = _run(config, root)
        assert code in (0, 1, 2, 64), err
        assert "Traceback" not in err
        written = {p.relative_to(root).parts[0] for p in root.rglob("*")}
        assert written <= {"cfg.json", "out"}
