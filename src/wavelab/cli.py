"""Command-line front end.

``wavelab run <config.json>`` executes a scenario; ``wavelab validate
<config.json>`` parses and checks the config without computing.  Exit codes:
0 success; 2 invalid config or usage, or an output directory that cannot be
written; 3 numerical halt (a :class:`~wavelab.grid.NumericalHaltError`: wave
breaking, peakon collision, a variational route that fails, a non-finite
metric) with a one-line strict-JSON diagnostic on stderr naming its stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .grid import NumericalHaltError
from .scenarios import ConfigError, load_config, run

__all__ = ["main"]


# built once per process: parse_args leaves the parser unchanged
@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser for the ``run`` and ``validate`` commands."""
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


def _diagnostic(exc: NumericalHaltError) -> dict:
    """The exit-3 diagnostic: the halt's type, message and fields, ``stage``
    among them.  JSON has no spelling for NaN or infinity, so a non-finite
    number is written as null; the message still carries it."""
    diag = {"error": type(exc).__name__, "message": str(exc)}
    for attr, value in vars(exc).items():
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        diag[attr] = list(value) if isinstance(value, tuple) else value
    return diag


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # stderr carries one line, the error or the diagnostic: halts are found
    # by explicit checks, so numpy's overflow warnings would only add noise
    with np.errstate(all="ignore"):
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
        except NumericalHaltError as exc:
            print(json.dumps(_diagnostic(exc), sort_keys=True, allow_nan=False), file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    print(f"{report.kind}: wrote {len(report.artifacts)} artifacts to {report.output_dir}")
    for key in sorted(report.metrics):
        print(f"  {key} = {report.metrics[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
