"""The benchmark's own tests: metric names, checks, determinism, tracing.

    python3 -m pytest perfbench

Kept out of the Tier-1 suite (pyproject's testpaths names ``tests`` only).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def acceptance_criteria() -> dict:
    text = (ROOT / "tests" / "test_acceptance.py").read_text()
    chunks = text.split("\ndef test_")[1:]
    return {chunk.split("(")[0]: chunk for chunk in chunks}


@pytest.mark.parametrize("metric, criterion", [
    ("H0_drift", "04_conservation"), ("H1_drift", "04_conservation"),
    ("H2_drift", "04_conservation"), ("linf_gap", "06_ode_pde_cross_validation"),
    ("H_drift", "07_hamiltonian_structure"), ("P_drift", "07_hamiltonian_structure"),
    ("rel_fd_el", "08_variational_identity"), ("rel_fd_mid", "08_variational_identity"),
    ("max_residual", "09_limit_system_audit"), ("semigroup_gap", "09_limit_system_audit"),
    ("roundtrip_residual", "10_scaling_round_trip"),
])
def test_tolerances_match_the_acceptance_pins(metric, criterion):
    body = acceptance_criteria()[criterion]
    pinned = {float(v) for v in re.findall(r"<=\s*([0-9.]+e-[0-9]+)", body)}
    assert workloads.TOLERANCES[metric] in pinned


def test_every_checked_metric_has_a_tolerance():
    for kind, names in workloads.CHECKED.items():
        assert set(names) <= set(workloads.TOLERANCES), kind


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_configs_depend_on_the_seed_only_through_parameters(name):
    first = workloads.build(name, 7)
    assert first == workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert first != other

    def sizes(configs):
        # xval_large_n draws its peak count (2 or 3) from the seed
        return [(c["kind"], c["grid"]["n"], c["params"].get("t_end"),
                 c["params"].get("n_intervals"),
                 None if name == "xval_large_n" else len(c["params"].get("q", ())))
                for c in configs]

    assert sizes(first) == sizes(other)


def test_check_flags_values_over_tolerance_and_missing_ones():
    good = {"H0_drift": 0.0, "H1_drift": 1e-9, "H2_drift": 1e-9}
    assert workloads.check("ch_evolution", good) == []
    assert workloads.check("ch_evolution", dict(good, H1_drift=2e-6))
    assert workloads.check("ch_evolution", {"H0_drift": 0.0, "H1_drift": 0.0})
    assert workloads.check("ch_evolution", dict(good, H2_drift=float("nan")))
    assert workloads.check("scaling_demo", {"roundtrip_residual": 0.0,
                                            "delta_sq_exact": False})


def test_variational_check_survives_a_vanishing_first_variation():
    # a path drawn by the variational workload: |D_fd| ~ 1e-5, rel_fd_el 2.8e-3
    tiny = {"D_fd": -1.4651e-05, "D_mid": -1.4636e-05, "D_el": -1.4610e-05,
            "rel_fd_el": 2.75e-3, "rel_fd_mid": 1.0e-3}
    assert workloads.check("variational_check", tiny) == []
    assert workloads.check("variational_check", dict(tiny, D_el=-1.2e-5))
    typical = {"D_fd": 2.0e-3, "D_mid": 2.0e-3, "D_el": 1.996e-3}
    assert workloads.check("variational_check", typical)
    assert workloads.check("variational_check", dict(typical, D_el=1.9995e-3)) == []


@pytest.fixture
def small_mix(tmp_path):
    return run.Workload("small_mix", 0, tmp_path)


def test_scenarios_pass_and_repeat_byte_for_byte(small_mix):
    small_mix.warm_up()
    wall, scaled = small_mix.loop(0.0)
    assert small_mix.failures == []
    assert len(wall) == len(scaled) == len(small_mix.items)
    assert small_mix.attempted == 2 * len(small_mix.items)


def test_a_broken_check_counts_as_a_failure(small_mix, monkeypatch):
    monkeypatch.setitem(workloads.TOLERANCES, "H1_drift", 0.0)
    item = small_mix.items[0]
    assert item.kind == "ch_evolution"
    assert small_mix.run_once(item) is None
    assert "H1_drift" in small_mix.failures[0]


def test_changed_artifacts_count_as_a_failure(small_mix):
    item = small_mix.items[2]
    assert small_mix.run_once(item) is not None
    item.digest = "0" * 64
    assert small_mix.run_once(item) is None
    assert "differ" in small_mix.failures[0]


def test_tracer_counts_transforms_bound_after_install():
    import numpy as np

    tracer = Tracer()
    tracer.install_fft()
    try:
        from numpy.fft import rfft  # bound after install, as a later refactor might

        tracer.active = True
        tracer.call("outer", "r1", lambda: (rfft(np.ones(64)), np.fft.ifft(np.ones(32))))
        tracer.active = False
    finally:
        tracer.uninstall()
    (outer,) = tracer.named("outer")
    assert outer.counts["fft_calls"] == 2
    assert outer.counts["fft_points"] == 64 + 32
    assert outer.counts["fft_bytes"] == 64 * 8 + 33 * 16 + 32 * 8 + 32 * 16
    assert 0.0 <= outer.self_s <= outer.end - outer.start
    assert np.fft.rfft is not rfft  # uninstall restored the module attribute


def test_tracer_wraps_names_on_every_module_that_holds_them():
    from wavelab import ch, scenarios

    tracer = Tracer()
    tracer.install_wavelab()
    try:
        assert scenarios.evolve is ch.evolve
        assert getattr(scenarios.evolve, "_perfbench_span", None) == "ch.evolve"
        assert tracer.require(["ch.evolve", "scenarios.run"]) == []
        assert tracer.require(["ch.no_such_function"]) == ["ch.no_such_function"]
        assert "ch.no_such_function" in tracer.absent
    finally:
        tracer.uninstall()
    assert not hasattr(scenarios.evolve, "_perfbench_span")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_of_its_mode(trace, group):
    done = run_bench("--workload", "small_mix", "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--quick")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in SPEC[group]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float))
    if trace == "0":
        for name in ("run_s", "run_s_p90", "cold_run_s", "setup_s", "peak_rss_mb",
                     "check_err", "fail_frac"):
            assert re.search(rf"^  {name} ", done.stdout, re.M), name


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = run_bench("--workload", "small_mix", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
