"""The repository's CI checks, one subcommand each, on numpy alone.

    python3 tools/ci_checks.py samples            # every sample config twice
    python3 tools/ci_checks.py bad-configs        # exit 2 and one stderr line
    python3 tools/ci_checks.py cells              # every CSV cell is %.17g
    python3 tools/ci_checks.py compare --base REV # REV against this tree

Each runs ``python -m wavelab`` from a tree's src/, writing no bytecode and
nothing outside a temporary directory.  ``compare --base HEAD`` byte-checks
an uncommitted tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "configs"
SEEDS = (1, 2, 3, 4)

# (sample config, tag, edit as {section: {key: value}}, text of the one stderr
# line): a 0 where a number must be > 0; a linear_sw step a few ulps of
# t = 0.5, which rounds the triple (t-dt, t, t+dt) unevenly; a p shorter than
# q; an eps of 100 that bends the varied path out of the diffeomorphisms, and
# eps 1e308 at amplitude 100 that overflows it; a lam that squares h0/lam to 0
BAD_CONFIGS = [
    *((sample, key, {section: {key: 0}}, "must be strictly positive") for sample, section, key in [
        ("ch_sine", "params", "dt"), ("peakon_single", "params", "dt"),
        ("cross_validation", "params", "dt"), ("linear_sw_gaussian", "params", "dt"),
        ("variational_check", "params", "eps"), ("scaling_demo", "params", "h0"),
        ("ch_sine", "grid", "L"),
    ]),
    ("linear_sw_gaussian", "triple", {"params": {"t": 0.5, "dt": 3e-16}}, "snapshot triple"),
    ("cross_validation", "shape", {"params": {"p": [1.0]}}, "p must have shape (2,), got (1,)"),
    ("variational_check", "eps100", {"params": {"eps": 100}}, "variation failed at eps=100"),
    ("variational_check", "overflow", {"params": {"pert_amplitude": 100, "eps": 1e308}},
     "variation failed at eps=1e+308: gamma has 12022 non-finite entries"),
    ("scaling_demo", "lam1e200", {"params": {"lam": 1e200}},
     "delta^2 must be strictly positive, got 0.0"),
]


def wavelab(tree: Path, *args) -> subprocess.CompletedProcess:
    """``python -m wavelab *args`` on the source of ``tree``, output captured."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-B", "-m", "wavelab", *map(str, args)],
                          env=env, capture_output=True, text=True, cwd=tempfile.gettempdir())


def write_configs(directory: Path, seeds, workloads=None) -> list:
    """Write the sample configs and each benchmark workload's (all four by
    default) at each seed into ``directory``; return their paths.  Compiling
    perfbench/workloads.py from source writes no bytecode and sets nothing."""
    source = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"), module.__dict__)
    directory.mkdir(parents=True)
    for sample in SAMPLES.glob("*.json"):
        shutil.copyfile(sample, directory / sample.name)
    for name in module.WORKLOADS if workloads is None else workloads:
        for seed in seeds:
            for i, config in enumerate(module.build(name, seed)):
                (directory / f"{name}-seed{seed}-{i:02d}.json").write_text(json.dumps(config))
    return sorted(directory.glob("*.json"))


def differing(a: Path, b: Path) -> list:
    """Relative paths of the files that differ between trees a and b, or that one lacks."""
    files = {p.relative_to(t) for t in (a, b) if t.is_dir() for p in t.rglob("*") if p.is_file()}
    return sorted(f for f in files if not ((a / f).is_file() and (b / f).is_file()
                                           and (a / f).read_bytes() == (b / f).read_bytes()))


def check_samples(tmp: Path) -> int:
    """numpy alone validates and runs each sample config, silently on stderr
    (not even a warning), and equal config and seed give identical bytes."""
    failed = 0
    for config in sorted(SAMPLES.glob("*.json")):
        runs = [["run", config, "--output-dir", tmp / d / config.stem] for d in ("first", "second")]
        for args in (["validate", config], *runs):
            proc = wavelab(ROOT, *args)
            if proc.returncode or proc.stderr:
                print(f"wavelab on {config.stem}: exit {proc.returncode}, stderr:\n{proc.stderr}",
                      end="")
                failed = 1
                break
    for name in differing(tmp / "first", tmp / "second"):
        print(f"{name}: differs between two runs of one config")
        failed = 1
    return failed


def check_bad_configs(tmp: Path) -> int:
    """Each bad config exits 2 from validate and run with one stderr line holding its text."""
    failed = 0
    for sample, tag, edit, expected in BAD_CONFIGS:
        data = json.loads((SAMPLES / f"{sample}.json").read_text())
        for section, values in edit.items():
            data[section].update(values)
        (config := tmp / f"{sample}-{tag}.json").write_text(json.dumps(data))
        for args in (["validate", config], ["run", config, "--output-dir", tmp / config.stem]):
            proc = wavelab(ROOT, *args)
            lines = proc.stderr.count("\n")
            if proc.returncode != 2 or lines != 1 or expected not in proc.stderr:
                print(f"wavelab {args[0]} {config.stem}: exit {proc.returncode}, "
                      f"{lines} stderr lines:\n{proc.stderr}", end="")
                failed = 1
    return failed


def check_cells(tmp: Path) -> int:
    """Each CSV cell, read back as a float, formats to itself: an oracle
    independent of the writer.  The peakon_swarm configs' 61 x 515 tables
    reach wavelab.grid's vectorized cell kernel; no sample config's does."""
    failed = 0
    for config in write_configs(tmp / "configs", (1,), ["peakon_swarm"]):
        proc = wavelab(ROOT, "run", config, "--output-dir", tmp / "cells" / config.stem)
        if proc.returncode:
            print(f"wavelab run {config.stem}: exit {proc.returncode}, stderr:\n{proc.stderr}",
                  end="")
            failed = 1
    cells, bad = 0, []
    for path in sorted((tmp / "cells").rglob("*.csv")):
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            for cell in line.split(","):
                cells += 1
                if "%.17g" % float(cell) != cell:
                    bad.append(f"{path.relative_to(tmp)}: {cell!r}")
    for line in bad[:10]:
        print(line)
    print(f"{cells} cells in CSV files, {len(bad)} not %.17g of their value")
    return 1 if bad or failed else 0


def _numbers(value, key=()) -> dict:
    """{path of keys and list indices: value} of every number in a JSON value"""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {path: v for k, item in items for path, v in _numbers(item, key + (k,)).items()}
    return {key: value} if isinstance(value, (int, float)) and not isinstance(value, bool) else {}


def _largest_change(a, b) -> float:
    """the largest relative change between numbers at equal paths of a and b"""
    a, b = _numbers(a), _numbers(b)
    pairs = [(abs(a[k] - b[k]), max(abs(a[k]), abs(b[k]))) for k in a.keys() & b.keys()]
    return max((change / size for change, size in pairs if size > 0), default=0.0)


def size_difference(name, old: Path, new: Path) -> str:
    """One line sizing how artifact ``name`` moved, so that roundoff reads as
    such: a CSV's largest relative cell change; each differing key of a JSON
    file (metric of a manifest) with its numbers' largest relative change."""
    if not (old.is_file() and new.is_file()):
        return f"{name}: only at the {'base' if old.is_file() else 'head'}"
    try:
        if old.suffix == ".csv":
            import numpy as np
            a = np.loadtxt(old, delimiter=",", skiprows=1, ndmin=2)
            b = np.loadtxt(new, delimiter=",", skiprows=1, ndmin=2)
            if a.shape != b.shape:
                return f"{name}: shape {a.shape} -> {b.shape}"
            size = np.maximum(np.abs(a), np.abs(b))
            rel = np.divide(np.abs(a - b), size, out=np.zeros_like(size), where=size > 0)
            return f"{name}: largest relative cell difference {np.nanmax(rel, initial=0.0):.3g}"
        a, b = (json.loads(p.read_text()) for p in (old, new))
        what = "keys"
        if old.name == "manifest.json":
            a, b, what = a.get("metrics", {}), b.get("metrics", {}), "metrics"
        moves = [
            f"{k} {_largest_change(a[k], b[k]):.3g}" if k in a and k in b
            else f"{k} {'only at the base' if k in a else 'only at the head'}"
            for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)
        ]
        return (f"{name}: {what} that differ, each with its largest relative "
                f"change: {', '.join(moves) or 'none'}")
    except (ValueError, TypeError, AttributeError, UnicodeDecodeError) as exc:
        return f"{name}: differs, and could not be sized ({exc})"


def regressions(base: dict, head: dict) -> list:
    """(name, base exit, head exit) of each config that runs at the base and fails at the head."""
    return [(name, 0, head[name]) for name, code in sorted(base.items()) if code == 0 != head[name]]


def compare(tmp: Path, rev: str) -> int:
    """Run the sample and benchmark configs (SEEDS) at local commit ``rev`` and on this tree;
    report differences, and exit 1 when a config that runs at the base fails at the head."""
    base = tmp / "base-tree"
    git = ["git", "-C", str(ROOT), "worktree"]
    proc = subprocess.run([*git, "add", "--detach", str(base), rev], capture_output=True, text=True)
    if proc.returncode:
        reason = (proc.stderr.strip() or "git worktree add failed").splitlines()[-1]
        print(f"base commit {rev} not available; nothing compared: {reason}", file=sys.stderr)
        return 2
    try:
        configs = write_configs(tmp / "configs", SEEDS)
        print(f"{len(configs)} configs, run at the base ({rev}) and at the head")
        exits = {"base": {}, "head": {}}
        for side, tree in (("base", base), ("head", ROOT)):
            for config in configs:
                proc = wavelab(tree, "run", config, "--output-dir", tmp / side / config.stem)
                code = exits[side][config.stem] = proc.returncode
                if code:
                    print(f"{side}: {config.stem} exited {code}\n{proc.stderr}", end="")
    finally:
        subprocess.run([*git, "remove", "--force", str(base)], capture_output=True)
    names = differing(tmp / "base", tmp / "head")
    for name in names:
        print(size_difference(name, tmp / "base" / name, tmp / "head" / name))
    if not names:
        print("every artifact and manifest is byte-identical at the base and at the head")
    broken = regressions(exits["base"], exits["head"])
    if broken:
        print("configs that exit 0 at the base and fail at the head (name, base, head):")
        print("\n".join(" ".join(map(str, row)) for row in broken))
        return 1
    print("every config that exits 0 at the base also exits 0 at the head")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    checks = {"samples": check_samples, "bad-configs": check_bad_configs, "cells": check_cells}
    for command in checks:
        commands.add_parser(command)
    commands.add_parser("compare").add_argument("--base", required=True, metavar="REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ci-checks-") as tmp:
        if args.command == "compare":
            return compare(Path(tmp), args.base)
        return checks[args.command](Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
