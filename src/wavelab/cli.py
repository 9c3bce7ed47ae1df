"""Command-line front end.

``wavelab run <config.json>`` executes a scenario; ``wavelab validate
<config.json>`` parses and checks the config without computing.  Exit codes:
0 success, 2 invalid config or usage, 3 numerical halt (wave breaking,
peakon collision, or a variational route that does not converge or turns
non-finite) with a one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ch import WaveBreakingError
from .grid import NumericalHaltError
from .peakons import CollisionError
from .scenarios import ConfigError, load_config, run

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Run shallow-water wave scenarios from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute a scenario and write its artifacts"),
        ("validate", "parse and validate a config without running it"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to a scenario config JSON file")
        cmd.add_argument(
            "--output-dir",
            default=None,
            help="override the output_dir recorded in the config",
        )
    return parser


def _diagnostic(exc: Exception) -> dict:
    diag = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("t", "max_slope", "ceiling", "t_estimate", "pair", "separation", "stage"):
        if hasattr(exc, attr):
            value = getattr(exc, attr)
            diag[attr] = list(value) if isinstance(value, tuple) else value
    return diag


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, output_dir=args.output_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {config.kind} scenario, output -> {config.output_dir}")
        return 0

    try:
        report = run(config)
    except (WaveBreakingError, CollisionError, NumericalHaltError) as exc:
        print(json.dumps(_diagnostic(exc), sort_keys=True), file=sys.stderr)
        return 3

    print(f"{report.kind}: wrote {len(report.artifacts)} artifacts to {report.output_dir}")
    for key in sorted(report.metrics):
        print(f"  {key} = {report.metrics[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
