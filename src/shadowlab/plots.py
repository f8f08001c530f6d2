"""The trace CSV format, and static SVG renderings of it.

A trace is the one CSV text format of the package's artifacts, written by
``trace_csv`` and read back by ``read_trace_csv``: optional leading
``# key=json`` metadata lines (keys sorted, values as sorted-key JSON), a
header row, then one row per record; rows end in CRLF, integer columns are
written as integers and float columns by ``repr``, so every double reads
back with its bits.

Three plot kinds, all reading traces ('#' metadata lines are skipped):

* ``orbit2d``: the window's points in the plane, joined in index order;
* ``slack``: per-index shadowing slack, with a bound overlay when the trace
  carries a ``bound`` column;
* ``boxwidth``: per-constraint feasibility interval widths, one polyline per
  coordinate, on a log10 scale so collapses toward zero stay visible.

The output is deliberately primitive SVG 1.1: fixed canvas, fixed ordering,
fixed number formatting, no timestamps or generated ids, so a rerun of the
same scenario produces byte-identical images.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import ContractViolation

__all__ = ["trace_csv", "read_trace_csv", "render_plot", "emit_plot"]

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 56.0
_COLORS = ["#1f6fb2", "#c23b22", "#3a8f3a", "#8254a0", "#b28a1f", "#2aa0a0"]


def trace_csv(columns: dict, meta: dict | None = None) -> str:
    """The trace text of equal-length named columns, in the dict's order; integer
    arrays are written as integers, everything else as floats."""
    buf = io.StringIO()
    for key in sorted(meta or {}):
        buf.write(f"# {key}={json.dumps(meta[key], sort_keys=True)}\r\n")
    cells = [v.tolist() if v.dtype.kind in "iu" else [repr(x) for x in v.astype(float).tolist()]
             for v in map(np.asarray, columns.values())]
    if len({len(c) for c in cells}) > 1:
        raise ContractViolation("trace columns differ in length")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buf.getvalue()


def read_trace_csv(path) -> tuple[list[str], dict[str, list[float]]]:
    """Parse a trace CSV into named float columns, skipping '#' lines."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not rows:
        raise ContractViolation(f"no data rows in {path}")
    reader = csv.reader(io.StringIO("\n".join(rows)))
    parsed = list(reader)
    header = parsed[0]
    columns: dict[str, list[float]] = {name: [] for name in header}
    for row in parsed[1:]:
        if len(row) != len(header):
            raise ContractViolation(f"malformed CSV row in {path}: {row!r}")
        for name, cell in zip(header, row):
            columns[name].append(float(cell))
    return header, columns


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Frame:
    """Affine data-to-canvas transform with padded, non-degenerate ranges."""

    def __init__(self, xs, ys):
        def padded(lo, hi):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ContractViolation("non-finite plot data")
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
            pad = 0.05 * (hi - lo)
            return lo - pad, hi + pad

        self.x0, self.x1 = padded(min(xs), max(xs))
        self.y0, self.y1 = padded(min(ys), max(ys))

    def x(self, v: float) -> float:
        t = (v - self.x0) / (self.x1 - self.x0)
        return _MARGIN + t * (_WIDTH - 2 * _MARGIN)

    def y(self, v: float) -> float:
        t = (v - self.y0) / (self.y1 - self.y0)
        return _HEIGHT - _MARGIN - t * (_HEIGHT - 2 * _MARGIN)


def _polyline(frame: _Frame, xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(frame.x(a))},{_fmt(frame.y(b))}" for a, b in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'
    )


def _dots(frame: _Frame, xs, ys, color: str, r: float = 2.0) -> str:
    return "".join(
        f'<circle cx="{_fmt(frame.x(a))}" cy="{_fmt(frame.y(b))}" r="{r}" fill="{color}"/>'
        for a, b in zip(xs, ys)
    )


def _chrome(frame: _Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN, _MARGIN
    parts = [
        f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="#ffffff"/>',
        f'<rect x="{x0:g}" y="{y1:g}" width="{x1 - x0:g}" height="{y0 - y1:g}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:g}" y="24" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{title}</text>',
        f'<text x="{_WIDTH / 2:g}" y="{_HEIGHT - 12:g}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_HEIGHT / 2:g}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_HEIGHT / 2:g})">{ylabel}</text>',
    ]
    labels = [
        (x0, y0 + 16, f"{frame.x0:.6g}", "start"),
        (x1, y0 + 16, f"{frame.x1:.6g}", "end"),
        (x0 - 6, y0, f"{frame.y0:.6g}", "end"),
        (x0 - 6, y1 + 4, f"{frame.y1:.6g}", "end"),
    ]
    for x, y, text, anchor in labels:
        parts.append(
            f'<text x="{x:g}" y="{y:g}" font-family="monospace" font-size="11" '
            f'text-anchor="{anchor}">{text}</text>'
        )
    return parts


def _document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_plot(columns: dict[str, list[float]], kind: str) -> str:
    """Build the SVG text for one plot kind from parsed trace columns."""
    if kind == "orbit2d":
        if "x1" not in columns or "x2" not in columns:
            raise ContractViolation("orbit2d needs x1 and x2 columns (planar data)")
        xs, ys = columns["x1"], columns["x2"]
        frame = _Frame(xs, ys)
        body = _chrome(frame, "orbit2d", "x1", "x2")
        body.append(_polyline(frame, xs, ys, "#bbbbbb", 1.0))
        body.append(_dots(frame, xs, ys, _COLORS[0]))
        return _document(body)

    if kind == "slack":
        if "n" not in columns or "slack" not in columns:
            raise ContractViolation("slack plot needs n and slack columns")
        ns = columns["n"]
        series = [("slack", _COLORS[0])]
        if "bound" in columns:
            series.append(("bound", _COLORS[1]))
        ys_all = [v for name, _ in series for v in columns[name]]
        frame = _Frame(ns, ys_all)
        body = _chrome(frame, "slack per index", "n", "slack")
        for name, color in series:
            body.append(_polyline(frame, ns, columns[name], color))
            body.append(_dots(frame, ns, columns[name], color, 1.5))
        return _document(body)

    if kind == "boxwidth":
        width_names = sorted(name for name in columns if name.startswith("width"))
        if "order" not in columns or not width_names:
            raise ContractViolation("boxwidth plot needs order and width columns")
        xs = columns["order"]
        logged = {
            name: [math.log10(max(v, 1e-18)) for v in columns[name]] for name in width_names
        }
        ys_all = [v for vs in logged.values() for v in vs]
        frame = _Frame(xs, ys_all)
        body = _chrome(frame, "feasibility box width (log10)", "constraint order", "log10 width")
        for i, name in enumerate(width_names):
            body.append(_polyline(frame, xs, logged[name], _COLORS[i % len(_COLORS)]))
        return _document(body)

    raise ContractViolation(f"unknown plot kind {kind!r}")


def emit_plot(csv_path, kind: str, out_path=None) -> Path:
    """Render a CSV trace to a deterministic SVG file."""
    csv_path = Path(csv_path)
    _, columns = read_trace_csv(csv_path)
    svg = render_plot(columns, kind)
    out = Path(out_path) if out_path is not None else csv_path.with_suffix(f".{kind}.svg")
    out.write_text(svg, encoding="utf-8")
    return out
