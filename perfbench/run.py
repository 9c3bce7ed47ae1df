"""wavelab benchmark: seeded scenario workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick     # every workload, both modes, in under a minute

Run from the root of a checkout; the program is imported from its ``src``.
Workloads are defined in workloads.py.  The load is a closed loop: one
client, and the next scenario starts only after the previous one finished.
BLAS/OpenMP thread counts are pinned to 1 before numpy is imported.

``--trace 0`` measures, per workload (see BENCHMARK.json for bounds):

* run_s        median time of a warm scenario run, config in to artifacts
               and manifest written, over ``--seconds`` of runs shared
               between fresh worker processes in turn (child.py); each
               run's wall time is rescaled to a fixed machine speed with the
               reference work timed around it (speed.py), which keeps the
               median steady on a shared host.  run_wall_s is the raw median;
* run_s_p90    the 90th percentile of the same, where a run has >= 100 samples;
* cold_run_s   the first scenario run in each worker after its imports,
               rescaled the same way; median over the workers;
* setup_s      wall time of a fresh ``python -m wavelab validate`` process,
               rescaled by a reference process started around it
               (speed.py), median of several; setup_wall_s is the raw median;
* peak_rss_mb  peak resident memory of the largest worker;
* check_err    the error against the independent route, where
               discretisation sets it (xval_large_n, variational);
* fail_frac    failed scenario runs over attempted ones.

Only run_s, cold_run_s, setup_s and peak_rss_mb go into the JSON line:
the others are missing on some workloads or zero by design.

Every scenario run is checked against the tolerances pinned in
tests/test_acceptance.py, and every repeat of a config, in the same worker
or another, must reproduce its artifacts and manifest byte for byte.  Any
failure makes the command exit 1.

``--trace 1`` runs each config untraced and then traced, in turn, for
``--seconds`` in this process (tracer.py); derives FFT counts per RK4 step
and the scenario runner's self time from the spans; then times each
layer's public functions on fixed inputs (layers.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json for the mode.  Spans and full results
are written under perfbench/.runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
PINNED_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 120
# wavelab functions whose spans the per-layer metrics are derived from
TRACED_NAMES = ("ch.evolve", "scenarios.run", "cli.main", "variational.inverse_diffeo")


@dataclass(frozen=True)
class Reps:
    setup: int  # fresh validate processes for setup_s
    workers: int  # fresh processes that share the warm loop; each gives a cold run
    imports: int  # fresh processes for cli.import_s
    probe_budget_s: float  # time per layer microtiming


FULL = Reps(setup=5, workers=4, imports=3, probe_budget_s=0.1)
QUICK = Reps(setup=1, workers=1, imports=1, probe_budget_s=0.01)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(args) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh Python process from the checkout root; wall seconds and result."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, done


def digest_dir(path: Path) -> str:
    sha = hashlib.sha256()
    for file in sorted(path.iterdir()):
        sha.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return sha.hexdigest()


@dataclass
class Item:
    kind: str
    path: Path  # config file
    out: Path  # artifacts of in-process runs
    config: object  # ScenarioConfig, built before the timer
    digest: str | None = None


class Workload:
    """One workload's scenarios, run in a closed loop and checked."""

    def __init__(self, name, seed, run_dir: Path, tracer=None):
        import workloads
        from wavelab import scenarios

        self.name = name
        self.via_cli = name in workloads.VIA_CLI
        self.check_err_name = workloads.CHECK_ERR.get(name)
        self.tracer = tracer
        self.items = []
        for i, cfg in enumerate(workloads.build(name, seed)):
            out = run_dir / f"scenario{i}"
            cfg = dict(cfg, output_dir=str(out))
            path = run_dir / f"config{i}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.items.append(Item(cfg["kind"], path, out,
                                   scenarios.ScenarioConfig.from_dict(cfg)))
        self.attempted = 0
        self.failures: list[str] = []
        self.check_errs: list[float] = []
        self.runs = 0

    def _execute(self, item: Item) -> float:
        from wavelab import cli, scenarios

        if self.via_cli:
            argv = ["run", str(item.path), "--output-dir", str(item.out)]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self._call(cli.main, argv)
                elapsed = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"wavelab run exited {code}")
            return elapsed
        start = time.perf_counter()
        self._call(scenarios.run, item.config)
        return time.perf_counter() - start

    def _call(self, fn, arg):
        if self.tracer is not None and self.tracer.active:
            self.runs += 1
            return self.tracer.call("bench.scenario", f"{self.name}:{self.runs}", fn, arg)
        return fn(arg)

    def run_once(self, item: Item) -> float | None:
        """One checked scenario run; its seconds, or None if it failed."""
        self.attempted += 1
        shutil.rmtree(item.out, ignore_errors=True)
        try:
            elapsed = self._execute(item)
        except Exception as exc:  # a failing scenario is counted, not fatal
            self.failures.append(f"{item.path.name}: {type(exc).__name__}: {exc}")
            return None
        return elapsed if self.verify(item) else None

    def verify(self, item: Item) -> bool:
        """Check one run's manifest, artifacts and determinism."""
        import workloads

        out = item.out
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            problems = workloads.check(item.kind, manifest["metrics"])
            problems += [f"artifact {a} missing" for a in manifest["artifacts"]
                         if not (out / a).is_file()]
            digest = digest_dir(out)
        except (OSError, ValueError, KeyError) as exc:
            problems, digest = [f"unreadable output: {exc}"], item.digest
        if item.digest is None:
            item.digest = digest
        elif digest != item.digest:
            problems.append("artifacts or manifest differ from an earlier run of this config")
        if problems:
            self.failures.append(f"{item.path.name}: " + "; ".join(problems))
            return False
        if self.check_err_name:
            metrics = workloads.conditioned(item.kind, manifest["metrics"])
            self.check_errs.append(metrics[self.check_err_name])
        return True

    def warm_up(self) -> None:
        for item in self.items:
            self.run_once(item)

    def loop(self, seconds: float) -> tuple[list, list]:
        """Closed loop over the configs for ``seconds``; at least one full
        cycle, so every config is repeated after its warm-up run.  Returns
        the wall seconds of the runs that passed and their times at the
        reference machine speed (speed.py)."""
        from speed import normalise, reference_s

        wall, scaled = [], []
        deadline = time.perf_counter() + seconds
        before = reference_s()
        i = 0
        while i < len(self.items) or time.perf_counter() < deadline:
            elapsed = self.run_once(self.items[i % len(self.items)])
            after = reference_s()
            if elapsed is not None:
                wall.append(elapsed)
                scaled.append(normalise(elapsed, before, after))
            before = after
            i += 1
        return wall, scaled

    def paired_loop(self, seconds: float) -> tuple[list, list]:
        """Each config untraced and then traced, in turn, for ``seconds``;
        wall seconds of the passing untraced and traced runs.  Pairing
        keeps machine-speed drift out of their difference."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 * len(self.items) or time.perf_counter() < deadline:
            self.tracer.active = i % 2 == 1
            try:
                elapsed = self.run_once(self.items[(i // 2) % len(self.items)])
            finally:
                self.tracer.active = False
            if elapsed is not None:
                (traced if i % 2 else untraced).append(elapsed)
            i += 1
        return untraced, traced

    def setup_times(self, reps: int) -> tuple[list, list]:
        """Wall seconds of fresh ``python -m wavelab validate`` processes,
        and the same rescaled by reference processes started around each
        (speed.py)."""
        from speed import PROCESS_ARGS, PROCESS_REFERENCE_S, normalise

        def reference() -> float:
            elapsed, done = spawn(PROCESS_ARGS)
            if done.returncode != 0:
                self.failures.append(f"reference process exited {done.returncode}")
            return elapsed

        wall, scaled = [], []
        before = reference()
        for _ in range(reps):
            self.attempted += 1
            elapsed, done = spawn(["-m", "wavelab", "validate", str(self.items[0].path)])
            if done.returncode != 0 or not done.stdout.startswith("ok:"):
                self.failures.append(f"validate exited {done.returncode}: {done.stderr[-300:]}")
            after = reference()
            wall.append(elapsed)
            scaled.append(normalise(elapsed, before, after, PROCESS_REFERENCE_S))
            before = after
        return wall, scaled


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "commit": commit,
    }


def worker(name: str, seed: int, seconds: float, index: int, run_dir: Path) -> dict:
    """One fresh process's share of the warm loop (run by child.py).

    Its first scenario run, on config ``index``, is the cold run; each
    other config then gets one warm-up run before the timed loop."""
    from speed import normalise, reference_s

    wl = Workload(name, seed, run_dir)
    first = wl.items[index % len(wl.items)]
    cold = wl.run_once(first)
    reference_s()  # its own first call pays for plans and caches
    before, after = reference_s(), reference_s()
    for item in wl.items:
        if item is not first:
            wl.run_once(item)
    wall, scaled = wl.loop(seconds)
    return {
        "cold_wall_s": cold,
        "cold_run_s": None if cold is None else normalise(cold, before, after),
        "wall": wall,
        "scaled": scaled,
        "attempted": wl.attempted,
        "failures": wl.failures,
        "check_errs": wl.check_errs,
        "digests": [item.digest for item in wl.items],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def e2e_run(wl: Workload, seed: int, seconds: float, reps: Reps, run_dir: Path) -> dict:
    """Setup processes, then the warm loop split over fresh worker
    processes in turn, which averages out per-process effects such as
    where the kernel places memory: on a shared VM they moved the median
    of peakon_swarm by about 10% between otherwise equal processes."""
    from stats import p90, summarize

    setup_wall, setup = wl.setup_times(reps.setup)
    results = []
    for index in range(reps.workers):
        _, done = spawn([str(HERE / "child.py"), "worker", wl.name, str(seed),
                         str(seconds / reps.workers), str(index),
                         str(run_dir / f"worker{index}")])
        if done.returncode != 0:
            wl.attempted += 1
            wl.failures.append(f"worker {index} exited {done.returncode}: {done.stderr[-300:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        wl.attempted += result["attempted"]
        wl.failures += result["failures"]
        wl.check_errs += result["check_errs"]
        if result["digests"] != results[0]["digests"]:
            wl.failures.append(f"worker {index}: artifacts or manifest differ from worker 0")

    def pooled(key):
        return [v for r in results for v in r[key]]

    cold = [r for r in results if r["cold_run_s"] is not None]
    rows = {}
    if pooled("scaled"):
        rows["run_s"] = ("s", summarize(pooled("scaled")))
        tail = p90(pooled("scaled"))
        rows["run_s_p90"] = ("s", tail if tail is not None else
                             f"n/a ({len(pooled('scaled'))} runs, a p90 needs >= 100)")
        rows["run_wall_s"] = ("s", summarize(pooled("wall")))
    if cold:
        rows["cold_run_s"] = ("s", summarize([r["cold_run_s"] for r in cold]))
        rows["cold_wall_s"] = ("s", summarize([r["cold_wall_s"] for r in cold]))
    rows["setup_s"] = ("s", summarize(setup))
    rows["setup_wall_s"] = ("s", summarize(setup_wall))
    if results:
        rows["peak_rss_mb"] = ("MB", max(r["peak_rss_mb"] for r in results))
    rows["check_err"] = (wl.check_err_name or "", summarize(wl.check_errs) if wl.check_errs
                         else "n/a (pass/fail checks only)")
    rows["fail_frac"] = ("", f"{len(wl.failures) / max(wl.attempted, 1):g} "
                             f"({len(wl.failures)} failed of {wl.attempted} attempted)")
    return rows


def trace_run(wl: Workload, tracer, seconds: float, reps: Reps, run_dir: Path) -> dict:
    from layers import Metric, Probes
    from stats import summarize

    wl.warm_up()
    untraced, traced = wl.paired_loop(seconds)

    rows = {}
    evolves = tracer.named("ch.evolve")
    steps = sum(s.counts.get("ch_steps", 0) for s in evolves)
    for name, key, unit in (("grid.fft_calls_per_step", "fft_calls", "count"),
                            ("grid.fft_points_per_step", "fft_points", "count"),
                            ("grid.fft_bytes_per_step_computed", "fft_bytes", "bytes")):
        total = sum(s.counts.get(key, 0) for s in evolves)
        rows[name] = Metric(name, total / steps if steps else 0.0, unit)
    roots = tracer.named("bench.scenario")
    if roots:
        rows["workload.fft_s_per_run"] = Metric(
            "workload.fft_s_per_run",
            summarize([s.counts.get("fft_s", 0.0) for s in roots]).median, "s")
    runs = tracer.named("scenarios.run")
    rows["scenarios.self_s"] = Metric(
        "scenarios.self_s", summarize([s.self_s for s in runs]).median if runs else None, "s")
    if untraced and traced:
        overhead = summarize(traced).median - summarize(untraced).median
        rows["trace.overhead_s"] = Metric("trace.overhead_s", overhead, "s")

    probes = Probes(str(run_dir), reps.probe_budget_s)
    probes.fft_time(tracer)
    probes.variational_counts(tracer)
    tracer.uninstall()
    probes.grid()
    probes.ch()
    probes.peakons()
    probes.linear_sw_and_scaling()
    probes.variational()
    probes.scenarios(str(wl.items[0].path))
    imports = []
    for _ in range(reps.imports):
        wl.attempted += 1
        _, done = spawn([str(HERE / "child.py"), "import"])
        if done.returncode == 0:
            imports.append(json.loads(done.stdout)["import_s"])
        else:
            wl.failures.append(f"import wavelab.cli exited {done.returncode}")
    if imports:
        summary = summarize(imports)
        probes.metrics.append(Metric("cli.import_s", summary.median, "s", summary))
    rows.update((m.name, m) for m in probes.metrics)
    tracer.absent.extend(probes.absent)
    rows["_traced_runs"] = (len(untraced), len(traced))
    return rows


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_e2e(rows: dict, spec: dict) -> dict:
    for name, (unit, value) in rows.items():
        if hasattr(value, "median"):
            text = (f"{_fmt(value.median)} {unit}  (median of {value.samples}, "
                    f"IQR {_fmt(value.q1)}..{_fmt(value.q3)})")
        elif isinstance(value, float):
            text = f"{_fmt(value)} {unit}"
        else:
            text = str(value)
        print(f"  {name:<12} {text}")
    metrics = {}
    for entry in spec["end_to_end"]:
        unit, value = rows.get(entry["name"], (entry["unit"], None))
        value = getattr(value, "median", value)
        metrics[entry["name"]] = {"value": value if isinstance(value, float) else None,
                                  "unit": entry["unit"]}
    return metrics


def report_layers(rows: dict, spec: dict) -> dict:
    from layers import UNIT_SCALE

    untraced, traced = rows["_traced_runs"]
    fft = rows.get("workload.fft_s_per_run")
    print(f"  scenario runs: {untraced} untraced, {traced} traced; FFT self time per "
          f"traced run {_fmt(fft.value) if fft else 'n/a'} s")
    metrics = {}
    for entry in spec["per_layer"]:
        metric = rows.get(entry["name"])
        value = None if metric is None else metric.value
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        detail = ""
        if metric is not None and metric.summary is not None:
            s, scale = metric.summary, UNIT_SCALE.get(entry["unit"], 1.0)
            detail = (f"  (median of {s.samples} warm samples, IQR "
                      f"{_fmt(s.q1 * scale)}..{_fmt(s.q3 * scale)})")
        shown = "absent" if value is None else _fmt(float(value))
        print(f"  {entry['name']:<34} {shown} {entry['unit']}{detail}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, reps: Reps) -> int:
    if not (SRC / "wavelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wavelab sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()  # before wavelab is imported
    import wavelab

    if Path(wavelab.__file__).resolve().parent != (SRC / "wavelab").resolve():
        sys.exit(f"perfbench: imported wavelab from {wavelab.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install_wavelab()
        tracer.require(TRACED_NAMES)

    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)
    try:
        wl = Workload(name, seed, run_dir, tracer)
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
        if trace:
            rows = trace_run(wl, tracer, seconds, reps, run_dir)
            metrics = report_layers(rows, spec)
            tracer.dump(results / f"spans-{name}-seed{seed}.json")
            if tracer.absent:
                print("  absent: " + ", ".join(tracer.absent))
        else:
            rows = e2e_run(wl, seed, seconds, reps, run_dir)
            metrics = report_e2e(rows, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in wl.failures:
        print(f"  FAILED {failure}")
    result = {"correct": not wl.failures, "attempted": wl.attempted,
              "failed": len(wl.failures),
              "metrics": metrics}
    details = dict(result, environment=env, workload=name, seed=seed, rows=rows,
                   failures=wl.failures)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, default=dataclasses.asdict) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def quick() -> int:
    """Every workload once in each mode, short and with few repeats."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            _, done = spawn([str(HERE / "run.py"), "--workload", name, "--seed", "0",
                             "--seconds", "1", "--trace", trace, "--quick"])
            lines = done.stdout.strip().splitlines()
            verdict = "ok" if done.returncode == 0 else f"FAILED (exit {done.returncode})"
            print(f"== {name} trace {trace}: {verdict}")
            print("\n".join(lines[1:-1]))
            if done.returncode != 0:
                print(done.stderr[-2000:])
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="few repeats; without --workload, run every workload in both modes")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before anything imports numpy
        os.environ[var] = PINNED_THREADS
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required unless --quick is given")
        return quick()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {WORKLOADS}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        QUICK if args.quick else FULL)


if __name__ == "__main__":
    sys.exit(main())
