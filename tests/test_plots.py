import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.cplus import Const
from shadowlab.errors import ContractViolation
from shadowlab.maps import saddle
from shadowlab.plots import emit_plot, read_trace_csv, render_plot, trace_csv
from shadowlab.pseudo_orbit import PseudoOrbitSpec, SplicedRule, orbit_to_csv, realize, spec_meta
from shadowlab.shadowing import box_feasibility, is_shadowed_by


@pytest.fixture
def orbit_csv(tmp_path):
    spec = PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.2]), 0), (-6, 6), saddle())
    path = tmp_path / "orbit.csv"
    path.write_text(orbit_to_csv(realize(spec), spec_meta(spec)), encoding="utf-8")
    return path


def test_orbit2d_plot(orbit_csv, tmp_path):
    out = emit_plot(orbit_csv, "orbit2d", tmp_path / "orbit.svg")
    text = out.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 13


def test_slack_plot_with_bound_overlay(tmp_path):
    spec = PseudoOrbitSpec(
        SplicedRule(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0), (-4, 4), saddle())
    window = realize(spec)
    report = is_shadowed_by(window, [0.5, 0.5], spec.map, Const(1.0))
    path = tmp_path / "slack.csv"
    path.write_text(report.to_csv(extra={"bound": np.full(len(window), 0.5)}), encoding="utf-8")
    out = emit_plot(path, "slack")
    assert out.name == "slack.slack.svg"
    assert out.read_text(encoding="utf-8").count("<polyline") == 2


def test_boxwidth_plot(tmp_path):
    spec = PseudoOrbitSpec(
        SplicedRule(np.array([1.0, 0.0]), np.array([1.0, 0.2]), 0), (-16, 16), saddle())
    from shadowlab.cplus import saddle_adversarial_epsilon

    cert = box_feasibility(spec, saddle_adversarial_epsilon(), 16, 0.0)
    path = tmp_path / "trace.csv"
    path.write_text(cert.trace_to_csv(), encoding="utf-8")
    out = emit_plot(path, "boxwidth", tmp_path / "w.svg")
    assert out.read_text(encoding="utf-8").count("<polyline") == 2


def test_plots_are_deterministic(orbit_csv, tmp_path):
    a = emit_plot(orbit_csv, "orbit2d", tmp_path / "a.svg").read_bytes()
    b = emit_plot(orbit_csv, "orbit2d", tmp_path / "b.svg").read_bytes()
    assert a == b


def test_metadata_lines_are_skipped(orbit_csv):
    header, columns = read_trace_csv(orbit_csv)
    assert header == ["n", "x1", "x2"]
    assert len(columns["n"]) == 13


def test_malformed_inputs_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,x1\r\n1,2,3\r\n", encoding="utf-8")
    with pytest.raises(ContractViolation):
        emit_plot(bad, "orbit2d")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ContractViolation):
        emit_plot(empty, "slack")
    with pytest.raises(ContractViolation):
        render_plot({"n": [1.0]}, "spiral")


_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]) | st.floats(allow_nan=False)
_META = st.dictionaries(_NAMES, st.integers() | st.floats(allow_nan=False, allow_infinity=False)
                        | st.text(max_size=8) | st.lists(st.integers(), max_size=3), max_size=3)


@st.composite
def _trace(draw):
    rows = draw(st.integers(0, 12))
    columns = {}
    for name in draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True)):
        if draw(st.booleans()):
            columns[name] = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=rows, max_size=rows)),
                                     dtype=np.int64)
        else:
            columns[name] = np.array(draw(st.lists(_FLOATS, min_size=rows, max_size=rows)), dtype=float)
    return columns, draw(st.none() | _META)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_trace())
def test_trace_round_trips_through_the_reader(trace):
    columns, meta = trace
    text = trace_csv(columns, meta)
    assert sum(line.startswith("#") for line in text.split("\r\n")) == len(meta or {})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(text, encoding="utf-8")
        header, read = read_trace_csv(path)
    assert header == list(columns)
    for name, values in columns.items():
        # Bit for bit, so -0.0 and subnormals keep their sign and value.
        assert np.array(read[name], dtype=float).tobytes() == values.astype(float).tobytes()
