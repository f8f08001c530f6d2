"""Command-line entry point.

    shadowlab run <name|config.json|all> [--window N] [--seed S] [--out DIR]
    shadowlab list [--json]
    shadowlab plot <trace.csv> --kind {orbit2d,slack,boxwidth} [--out FILE]

Exit codes: 0 when every run matches the expected result, 1 when some run is
inconclusive (an adversarial_box run that keeps a nonempty box, or a metric_warp
window whose sup grid finds no point while the exact certificate does not show
that none exists), 2 when some run contradicts it (the largest code wins), 64 for
usage or configuration errors (unknown fields, ill-typed or out-of-range values,
--window/--seed overrides included, refused maps such as an adversarial map that
shadows or a non-planar ensemble map, tolerance trees not positive and finite at
the origin, where they are read, where a slack is synthesized from them or on the
neighbourhood grid, margins that swallow the tolerance, maps the exact
certificate does not support, oversized oracle grids, a forward_to_full depth
whose power leaves double range, and iterates that leave double range before
the run decides: the certificate stops at the depth that decides it, while the
oracle and the ensembles realize their whole windows;
a NaN oracle distance, where warped images overflow, counts as such; files that
cannot be read or written, an --out that is not a directory, and traces that
``plot`` cannot read or draw count too), 70 for internal contract violations.
--window sets params.window_limit, which only an adversarial_box config has;
every config is checked before any run starts. ``run all`` runs the built-in
catalog one scenario after another and prints each scenario's wall time.
The only environment override is OUTPUT_DIR for the default artifact directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, ContractViolation, IterationRangeError
from .plots import emit_plot
from .scenarios import SCENARIO_NAMES, check_config, list_scenarios, load_config, run_scenario

USAGE_EXIT = 64
INTERNAL_EXIT = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="shadowlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a built-in scenario, 'all', or a config file")
    run.add_argument("scenario", help="built-in name, 'all', or path to a JSON config")
    run.add_argument("--window", type=int, default=None, help="set params.window_limit (adversarial_box)")
    run.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run.add_argument("--out", default=None, help="output directory (default: out/)")

    lst = sub.add_parser("list", help="list the built-in scenarios")
    lst.add_argument("--json", action="store_true", help="machine-readable catalog")

    plot = sub.add_parser("plot", help="render a CSV trace to SVG")
    plot.add_argument("csv", help="trace file produced by a run")
    plot.add_argument("--kind", required=True, choices=["orbit2d", "slack", "boxwidth"])
    plot.add_argument("--out", default=None, help="output SVG path")
    return parser


def _run_command(args) -> int:
    out_dir = args.out or os.environ.get("OUTPUT_DIR") or "out"
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"output path {out_dir!r} is not a directory")
    names = SCENARIO_NAMES if args.scenario == "all" else [args.scenario]
    configs = []
    for name in names:
        config = load_config(name)
        if args.window is not None:
            config.params["window_limit"] = args.window
        if args.seed is not None:
            config.seed = args.seed
        check_config(config)
        configs.append(config)

    reports = [run_scenario(c, out_dir) for c in configs]

    worst = 0
    for report in reports:
        print(f"{report.name}: {report.verdict} ({report.wall_time:.2f}s, "
              f"{len(report.artifacts)} artifacts)")
        worst = max(worst, report.exit_code)
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        if args.command == "run":
            return _run_command(args)
        if args.command == "list":
            catalog = list_scenarios()
            if args.json:
                print(json.dumps({"scenarios": catalog}, indent=2, sort_keys=True))
            else:
                for entry in catalog:
                    print(f"{entry['name']:26s} {entry['summary']}")
            return 0
        if args.command == "plot":
            try:
                out = emit_plot(args.csv, args.kind, args.out)
            except ValueError as exc:  # the trace is user input: undecodable, malformed or not drawable
                raise ConfigError(f"{args.csv}: {exc}") from exc
            print(out)
            return 0
    except (ConfigError, IterationRangeError) as exc:
        print(f"shadowlab: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ContractViolation as exc:
        print(f"shadowlab: contract violation: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except OSError as exc:
        print(f"shadowlab: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return USAGE_EXIT


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
