"""Tests for the scenario runner and CLI."""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wavelab.cli import main
from wavelab.scaling import ScalingParams
from wavelab.scenarios import (
    ConfigError,
    ScenarioConfig,
    config_digest,
    load_config,
    run,
)
from wavelab.variational import BumpPerturbationSpec, SinusoidalPathSpec, uniform_times

TWO_PI = 2 * np.pi
SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def child_python(*args):
    """Run a fresh interpreter that imports this checkout's wavelab."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def config_dict(kind, params, out, n=128, length=TWO_PI, seed=0):
    return {
        "kind": kind,
        "grid": {"n": n, "L": length},
        "params": params,
        "output_dir": str(out),
        "seed": seed,
    }


def make_config(tmp_path, kind, params, **kw):
    return ScenarioConfig.from_dict(config_dict(kind, params, tmp_path / "out", **kw))


SCALING_PARAMS = {"h0": 1.0, "lam": 10.0, "a": 0.1}


def cli_params(kind):
    """Params of a short ``kind`` run that validates on a 64-point grid."""
    return {
        "ch_evolution": {
            "initial": {"type": "sine", "amplitude": 0.2, "mode": 1},
            "kappa": 0.3,
            "dt": 0.001,
            "t_end": 0.01,
            "record_every": 5,
        },
        "linear_sw": {"profile": {"amplitude": 0.5, "width": 1.0}, "t": 0.5, "dt": 0.01},
        "variational_check": {"n_intervals": 8, "t_total": 1.0, "eps": 0.001},
        "scaling_demo": dict(SCALING_PARAMS),
    }.get(kind, {"q": [-1.0, 1.0], "p": [1.0, 0.5], "dt": 0.001, "t_end": 0.01})


class TestConfigValidation:
    def test_good_config_parses(self, tmp_path):
        cfg = make_config(tmp_path, "scaling_demo", SCALING_PARAMS, seed=11)
        assert cfg.kind == "scaling_demo"
        assert cfg.grid.n == 128
        assert cfg.seed == 11

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            make_config(tmp_path, "spectral_disco", {})

    def test_missing_top_level_key_rejected(self, tmp_path):
        data = config_dict("scaling_demo", SCALING_PARAMS, tmp_path)
        del data["seed"]
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict(data)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        data = config_dict("scaling_demo", SCALING_PARAMS, tmp_path)
        data["comment"] = "hello"
        with pytest.raises(ConfigError, match="comment"):
            ScenarioConfig.from_dict(data)

    def test_bad_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="grid"):
            make_config(tmp_path, "scaling_demo", SCALING_PARAMS, n=13)

    def test_unknown_param_key_rejected(self, tmp_path):
        params = dict(SCALING_PARAMS, cfl=0.5)
        with pytest.raises(ConfigError, match="cfl"):
            make_config(tmp_path, "scaling_demo", params)

    def test_missing_required_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="t_end"):
            make_config(tmp_path, "peakon", {"q": [0.0], "p": [1.0], "dt": 1e-3})

    def test_peakon_length_mismatch_rejected(self, tmp_path):
        params = {"q": [0.0, 1.0], "p": [1.0], "dt": 1e-3, "t_end": 1.0}
        with pytest.raises(ConfigError, match=r"p must have shape \(2,\), got \(1,\)"):
            make_config(tmp_path, "peakon", params)

    def test_bad_initial_type_rejected(self, tmp_path):
        params = {
            "initial": {"type": "delta"},
            "kappa": 0.0,
            "dt": 1e-3,
            "t_end": 1.0,
        }
        with pytest.raises(ConfigError, match="delta"):
            make_config(tmp_path, "ch_evolution", params)

    def test_non_integer_seed_rejected(self, tmp_path):
        data = config_dict("scaling_demo", SCALING_PARAMS, tmp_path, seed=0)
        data["seed"] = "zero"
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict(data)

    def test_small_interval_count_rejected(self, tmp_path):
        params = {"n_intervals": 2, "t_total": 1.0, "eps": 1e-3}
        with pytest.raises(ConfigError, match="n_intervals"):
            make_config(tmp_path, "variational_check", params)

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ScenarioConfig.from_dict([1, 2])

    def test_empty_output_dir_rejected(self, tmp_path):
        data = config_dict("scaling_demo", SCALING_PARAMS, tmp_path)
        with pytest.raises(ConfigError, match="output_dir must be a non-empty path"):
            ScenarioConfig.from_dict(data, output_dir="")
        data["output_dir"] = ""
        with pytest.raises(ConfigError, match="output_dir must be a non-empty path"):
            ScenarioConfig.from_dict(data)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_load_config_output_dir_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_dict("scaling_demo", SCALING_PARAMS, "a")))
        cfg = load_config(path, output_dir=str(tmp_path / "b"))
        assert cfg.output_dir == str(tmp_path / "b")

    def test_digest_ignores_output_dir(self, tmp_path):
        a = make_config(tmp_path / "a", "scaling_demo", SCALING_PARAMS)
        b = make_config(tmp_path / "b", "scaling_demo", SCALING_PARAMS)
        assert config_digest(a) == config_digest(b)
        c = make_config(tmp_path / "c", "scaling_demo", SCALING_PARAMS, seed=1)
        assert config_digest(a) != config_digest(c)


class TestScalingDemo:
    def test_metrics_and_manifest(self, tmp_path):
        cfg = make_config(tmp_path, "scaling_demo", SCALING_PARAMS, n=64, length=10.0)
        report = run(cfg)
        m = report.metrics
        assert m["eps"] == pytest.approx(0.1)
        assert m["delta"] == pytest.approx(0.1)
        assert m["roundtrip_residual"] <= 1e-13
        assert m["delta_sq_exact"] is True

        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_digest(cfg)
        assert len(manifest["config_sha256"]) == 64
        assert manifest["seed"] == 0
        assert set(manifest["versions"]) == {"wavelab", "numpy"}
        assert manifest["metrics"]["roundtrip_residual"] <= 1e-13
        assert "report.json" in manifest["artifacts"]

    @pytest.mark.parametrize("length", [10.0, 1000.0])
    def test_physical_x_is_the_grid(self, tmp_path, length):
        # x used to span one lam whatever grid.L, so L was hashed
        # into the manifest and had no effect
        cfg = make_config(tmp_path, "scaling_demo", SCALING_PARAMS, n=64, length=length)
        assert np.array_equal(cfg.inputs["physical"].x, cfg.grid.x)
        # the nondimensional x is still x/lam
        assert np.array_equal(cfg.inputs["scaled"].x, cfg.grid.x / SCALING_PARAMS["lam"])


class TestPeakonScenario:
    def test_single_peakon_translates_uniformly(self, tmp_path):
        params = {"q": [0.0], "p": [1.0], "dt": 1e-3, "t_end": 5.0,
                  "record_every": 100}
        report = run(make_config(tmp_path, "peakon", params))
        assert report.metrics["final_q"][0] == pytest.approx(5.0, abs=1e-10)
        assert report.metrics["final_p"][0] == pytest.approx(1.0, abs=1e-12)
        assert report.metrics["H_drift"] <= 1e-12
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q1,p1,H,P"


class TestCHScenario:
    def test_sine_run_conserves_and_writes(self, tmp_path):
        params = {
            "initial": {"type": "sine", "amplitude": 0.2},
            "kappa": 0.3,
            "dt": 2e-3,
            "t_end": 0.2,
            "record_every": 10,
        }
        report = run(make_config(tmp_path, "ch_evolution", params))
        assert report.metrics["H0_drift"] <= 1e-12
        assert report.metrics["H1_drift"] <= 1e-8
        out = tmp_path / "out"
        for name in ("initial.csv", "final.csv", "invariants.csv", "manifest.json"):
            assert (out / name).exists()
        assert (out / "invariants.csv").read_text().splitlines()[0] == "t,H0,H1,H2"
        first = (out / "initial.csv").read_text().splitlines()[0]
        assert first == "x,value"


class TestLinearSWScenario:
    def test_audit_residuals_small(self, tmp_path):
        params = {
            "profile": {"amplitude": 0.8, "width": 2.0},
            "t": 1.0,
            "dt": 1e-4,
            "nz": 9,
        }
        report = run(make_config(tmp_path, "linear_sw", params, n=256, length=40.0))
        assert report.metrics["max_residual"] <= 1e-8
        assert report.metrics["semigroup_gap"] <= 1e-12
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert set(audit) == {
            "x_momentum", "z_momentum", "continuity",
            "surface_kinematic", "surface_dynamic", "bottom_kinematic",
        }


class TestVariationalScenario:
    def test_report_written_and_sane(self, tmp_path):
        params = {"n_intervals": 16, "t_total": 1.0, "eps": 1e-3}
        report = run(make_config(tmp_path, "variational_check", params, n=256, seed=42))
        m = report.metrics
        assert m["rel_fd_el"] <= 5e-2
        assert m["rel_fd_mid"] <= 5e-2
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved == m


class TestCrossValidationScenario:
    def test_ode_and_pde_profiles_agree(self, tmp_path):
        params = {"q": [-5.0, 5.0], "p": [1.0, 0.5], "dt": 2e-3, "t_end": 1.0}
        report = run(
            make_config(tmp_path, "cross_validation", params, n=1024, length=40.0)
        )
        assert report.metrics["linf_gap"] <= 5e-2
        out = tmp_path / "out"
        for name in ("trajectory.csv", "ode_profile.csv", "pde_profile.csv"):
            assert (out / name).exists()


class TestDeterminism:
    def test_identical_config_and_seed_gives_identical_bytes(self, tmp_path):
        params = {
            "initial": {"type": "random", "amplitude": 0.2, "max_mode": 8},
            "kappa": 0.2,
            "dt": 2e-3,
            "t_end": 0.1,
        }
        outputs = []
        for name in ("a", "b"):
            data = config_dict("ch_evolution", params, tmp_path / name, seed=7)
            run(ScenarioConfig.from_dict(data))
            outputs.append({
                f.name: f.read_bytes()
                for f in sorted((tmp_path / name).iterdir())
                if f.suffix == ".csv"
            })
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_replaced_output_dir_gives_identical_bytes(self, tmp_path, path):
        # a copy made by dataclasses.replace keeps the parsed inputs
        run(replace(load_config(path), output_dir=str(tmp_path / "a")))
        run(load_config(path, output_dir=str(tmp_path / "b")))
        written = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert written == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCLI:
    def write(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(
            tmp_path, config_dict("scaling_demo", SCALING_PARAMS, tmp_path / "out")
        )
        assert main(["validate", path]) == 0
        assert "ok: scaling_demo" in capsys.readouterr().out

    def test_run_ok(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            config_dict("scaling_demo", SCALING_PARAMS, tmp_path / "ignored"),
        )
        code = main(["run", path, "--output-dir", str(tmp_path / "real")])
        assert code == 0
        assert (tmp_path / "real" / "manifest.json").exists()
        assert not (tmp_path / "ignored").exists()
        assert "roundtrip_residual" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = self.write(
            tmp_path, config_dict("no_such_kind", {}, tmp_path / "out")
        )
        assert main(["validate", path]) == 2
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, change",
        [
            ("ch_evolution", {"form": "bogus"}),
            ("ch_evolution", {"kappa": -1}),
            ("ch_evolution", {"record_every": 0}),
            ("ch_evolution", {"t_end": 0.0015, "dt": 0.001}),
            ("ch_evolution", {"dealias": "no"}),
            ("cross_validation", {"t_end": 0.0015, "dt": 0.001}),
            ("cross_validation", {"record_every": 0}),
            ("cross_validation", {"record_every": "x"}),
            ("peakon", {"record_every": 0}),
            ("peakon", {"t_end": 0.0015, "dt": 0.001}),
            ("peakon", {"record_every": "x"}),
            ("peakon", {"collision_sep": -1}),
            ("peakon", {"collision_sep": "x"}),
            ("linear_sw", {"c0": "x"}),
            ("variational_check", {"c0": "x"}),
            ("variational_check", {"n_modes": "x"}),
            ("variational_check", {"n_modes": -1}),
            ("variational_check", {"path_amplitude": "x"}),
            ("variational_check", {"pert_amplitude": "x"}),
            ("scaling_demo", {"g": "x"}),
            ("scaling_demo", {"rho": "x"}),
            ("scaling_demo", {"p0": "x"}),
            ("scaling_demo", {"g": -9.81}),
            ("ch_evolution", {"record_every": 2.5}),
            ("ch_evolution", {"record_every": True}),
            ("ch_evolution", {"snapshot_every": 1.5}),
            ("ch_evolution", {"filter_order": 2.5}),
            ("ch_evolution", {"filter_alpha": True}),
            ("ch_evolution", {"initial": {"type": "sine", "amplitude": "x"}}),
            ("ch_evolution", {"initial": {"type": "sine", "amplitude": 0.2, "mode": 2.5}}),
            ("ch_evolution", {"initial": {"type": "sine", "amplitude": 0.2, "phase": "x"}}),
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.2, "max_mode": "x"}}),
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.2, "max_mode": 2.5}}),
            ("ch_evolution", {"initial": {"type": "sech2", "amplitude": 0.2, "width": 0}}),
            ("ch_evolution", {"initial": {"type": "sech2", "amplitude": 0.2, "width": "x"}}),
            ("linear_sw", {"profile": {"amplitude": "x", "width": 1.0}}),
            ("linear_sw", {"profile": {"amplitude": 0.5, "width": 1.0, "center": "x"}}),
            # not a diffeomorphism at time level 0
            ("variational_check", {"path_amplitude": 2.5}),
            # the finite-difference route's varied path is not a diffeomorphism
            ("variational_check", {"eps": 100.0}),
            # NaN and Infinity, which Python's json reads, are not numbers
            ("linear_sw", {"t": float("nan")}),
            ("variational_check", {"c0": float("inf")}),
            # the spectral slope overflows to NaN, which is no diffeomorphism either
            ("variational_check", {"path_amplitude": 1e308}),
            # a step count beyond the budget of MAX_STEPS
            ("peakon", {"dt": 1e-300, "t_end": 0.02}),
            ("cross_validation", {"dt": 1e-300, "t_end": 0.02}),
            ("ch_evolution", {"dt": 1e-300, "t_end": 0.02}),
            # t_end rounds to 0 steps
            ("ch_evolution", {"dt": 1.0, "t_end": 1e-9}),
            # a derived scale leaves the float range: delta^2 or the v scale is 0
            ("scaling_demo", {"lam": 1e308}),
            ("scaling_demo", {"lam": 1e200}),
            ("scaling_demo", {"h0": 1e-300}),
            # a surface level overflows to non-finite samples
            ("linear_sw", {"profile": {"amplitude": 1e308, "width": 1.0}}),
            ("linear_sw", {"t": 1e308}),
            ("linear_sw", {"dt": 1e308}),
            # the run writes no snapshots, so the key is not part of the kind
            ("ch_evolution", {"snapshot_every": 1}),
            # modes above n/2 = 32 alias on the grid
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.2, "max_mode": 33}}),
            ("variational_check", {"n_modes": 33}),
            # a random field needs at least one mode
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.3, "max_mode": 0}}),
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.3, "max_mode": -5}}),
            # the run's (3, nz, n) flow needs about 25 TB, more than any
            # machine can allocate; the arrays the parser keeps before it
            # take about 50 MB
            ("linear_sw", {"nz": 10**6, "grid.n": 2**20}),
            # a sine mode beyond n/2 = 32 either way aliases on the grid
            ("ch_evolution", {"initial": {"type": "sine", "amplitude": 0.2, "mode": 33}}),
            ("ch_evolution", {"initial": {"type": "sine", "amplitude": 0.2, "mode": -33}}),
            # a step a few ulps of t = 0.5 rounds the snapshot triple unevenly
            ("linear_sw", {"dt": 3e-16}),
        ],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, kind, change):
        params = cli_params(kind)
        params.update(change)
        # a "grid.n" entry of a change sets the grid, not a param
        n = params.pop("grid.n", 64)
        path = self.write(tmp_path, config_dict(kind, params, tmp_path / "out", n=n))
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "kind, where",
        [
            ("ch_evolution", "grid.L"),
            ("ch_evolution", "dt"),
            ("ch_evolution", "t_end"),
            ("ch_evolution", "slope_ceiling"),
            ("ch_evolution", "initial.width"),
            ("peakon", "dt"),
            ("peakon", "t_end"),
            ("cross_validation", "dt"),
            ("cross_validation", "t_end"),
            ("linear_sw", "profile.width"),
            ("linear_sw", "dt"),
            ("variational_check", "t_total"),
            ("variational_check", "eps"),
            *(("scaling_demo", key) for key in ("h0", "lam", "a", "g", "rho", "p0")),
        ],
    )
    def test_every_non_positive_number_has_one_message(
        self, tmp_path, capsys, kind, where, value
    ):
        # ``where`` is a key of params, or a key in the grid or in a nested
        # object of params: the ch_evolution runs start from a sech2 profile
        config = config_dict(kind, cli_params(kind), tmp_path / "out", n=64)
        if kind == "ch_evolution":
            config["params"]["initial"] = {"type": "sech2", "amplitude": 0.2, "width": 1.0}
        *parents, key = where.split(".")
        target = config if parents == ["grid"] else config["params"]
        for name in parents:
            target = target[name]
        target[key] = value
        path = self.write(tmp_path, config)
        for command in (["validate", path], ["run", path]):
            assert main(command) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert f"{key} must be strictly positive, got {float(value)}" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            # delta = h0/lam squares under or over the float range
            ({"lam": 1e200}, "delta^2 must be strictly positive, got 0.0"),
            ({"lam": 1e-200}, "delta^2 must be strictly positive, got inf"),
            ({"h0": 1e200}, "delta^2 must be strictly positive, got inf"),
            # g*h0 underflows to 0 or overflows to inf
            ({"g": 1e-320, "h0": 1e-10, "lam": 1e-9, "a": 1e-11},
             "sqrt(g*h0) must be strictly positive, got 0.0"),
            ({"g": 1e300, "h0": 1e10, "lam": 1e11, "a": 1e9},
             "sqrt(g*h0) must be strictly positive, got inf"),
            ({"rho": 1e300, "g": 1e10}, "p scale must be strictly positive, got inf"),
        ],
    )
    def test_a_derived_scale_that_traps_is_named(self, tmp_path, capsys, change, message):
        # the scale that leaves the float range is named, before any
        # division by it and before any member it scales is drawn
        params = dict(cli_params("scaling_demo"), **change)
        path = self.write(tmp_path, config_dict("scaling_demo", params, tmp_path / "out", n=64))
        for command in (["validate", path], ["run", path]):
            assert main(command) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: config.params: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_total, code", [(1e-300, 3), (1e-170, 3), (1e155, 0), (1e300, 0)])
    def test_extreme_t_total_validates(self, tmp_path, t_total, code):
        # the bump's envelope s(1 - s), s = t/T, is finite at every T.  At
        # the small T the varied velocity eps*phi_t ~ eps/T squares past the
        # float range in the FD route's action, so D_fd is NaN: a numerical
        # halt, not a config error
        params = dict(cli_params("variational_check"), t_total=t_total)
        out = tmp_path / "out"
        path = self.write(tmp_path, config_dict("variational_check", params, out, n=64))
        assert child_python("-m", "wavelab", "validate", path).returncode == 0
        proc = child_python("-m", "wavelab", "run", path)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
            assert (out / "manifest.json").exists()
            return

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        diag = json.loads(proc.stderr, parse_constant=reject)
        assert diag["stage"] == "verify_variational_identity"
        assert diag["message"].startswith("first variation is not finite: D_fd=nan")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode", [32, -32])
    def test_sine_mode_of_half_the_grid_validates(self, tmp_path, capsys, mode):
        params = {"initial": {"type": "sine", "amplitude": 0.2, "mode": mode},
                  "kappa": 0.3, "dt": 0.001, "t_end": 0.01}
        path = self.write(tmp_path, config_dict("ch_evolution", params, tmp_path / "out", n=64))
        assert main(["validate", path]) == 0
        assert "ok: ch_evolution" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("ch_evolution", {"initial": {"type": "sech2", "amplitude": 0.2, "width": 1.0},
                              "kappa": 0.3, "dt": 0.01, "t_end": 0.02}),
            ("ch_evolution", {"initial": {"type": "random", "amplitude": 0.2, "max_mode": 3},
                              "kappa": 0.3, "dt": 0.01, "t_end": 0.02}),
            ("cross_validation", {"q": [-1.0, 1.0], "p": [1.0, 0.5], "dt": 0.01, "t_end": 0.02}),
        ],
    )
    def test_validate_rejects_length_without_finite_wavenumbers(self, tmp_path, capsys, kind, params):
        # the spacing L/n underflows to 0, so the wavenumbers 2*pi*m/L do not exist
        path = self.write(tmp_path, config_dict(kind, params, tmp_path / "out", n=16, length=5e-324))
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert "config.grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, length, stage",
        [
            ({"c0": 1e308}, TWO_PI, "verify_variational_identity"),
            ({"c0": -1e308}, TWO_PI, "verify_variational_identity"),
            # x ~ 1e307 cannot be inverted to an absolute 1e-12
            ({}, 1e308, "inverse_diffeo"),
        ],
    )
    def test_variational_halt_exits_3_with_diagnostic(self, tmp_path, capsys, change, length, stage):
        params = dict({"n_intervals": 4, "t_total": 1.0, "eps": 0.001}, **change)
        path = self.write(
            tmp_path, config_dict("variational_check", params, tmp_path / "out", n=16, length=length)
        )
        assert main(["validate", path]) == 0
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["run", path]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NumericalHaltError"
        assert diag["stage"] == stage
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_validate_rejects_negative_seed(self, tmp_path, capsys):
        data = config_dict("scaling_demo", SCALING_PARAMS, tmp_path / "out", seed=-1)
        path = self.write(tmp_path, data)
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_collision_exits_3_with_diagnostic(self, tmp_path, capsys):
        params = {"q": [-5.0, 5.0], "p": [1.0, -1.0], "dt": 1e-3, "t_end": 10.0}
        path = self.write(
            tmp_path, config_dict("peakon", params, tmp_path / "out")
        )
        assert main(["run", path]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "CollisionError"
        assert diag["stage"] == "peakons.evolve_peakons"
        assert diag["pair"] == [0, 1]
        assert 0.0 < diag["t_estimate"] < 10.0

    def test_wave_breaking_exits_3_with_diagnostic(self, tmp_path, capsys):
        params = {
            "initial": {"type": "sine", "amplitude": 1.0},
            "kappa": 0.0,
            "dt": 1e-3,
            "t_end": 10.0,
            "slope_ceiling": 5.0,
        }
        path = self.write(
            tmp_path, config_dict("ch_evolution", params, tmp_path / "out", n=256)
        )
        assert main(["run", path]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "WaveBreakingError"
        assert diag["stage"] == "ch.evolve"
        assert diag["max_slope"] > 5.0
        assert 0.0 < diag["t"] < 10.0

    def test_module_entry_point(self, tmp_path):
        path = self.write(
            tmp_path, config_dict("scaling_demo", SCALING_PARAMS, tmp_path / "out")
        )
        proc = child_python("-m", "wavelab", "validate", path)
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, wavelab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = child_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        path = self.write(tmp_path, config_dict("scaling_demo", SCALING_PARAMS, out))
        proc = child_python("-m", "wavelab", "run", path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, n, length, params, code, expected",
        [
            ("ch_evolution", 64, TWO_PI,
             {"initial": {"type": "sine", "amplitude": 1e308, "mode": 10},
              "kappa": 0.0, "dt": 1e-3, "t_end": 0.01},
             3, {"error": "WaveBreakingError", "stage": "ch.evolve", "max_slope": None}),
            ("peakon", 64, 40.0,
             {"q": [0.0, 1.0], "p": [1e300, 1e300], "dt": 1e-3, "t_end": 0.01},
             3, {"error": "CollisionError", "stage": "peakons.evolve_peakons",
                 "separation": None, "pair": None}),
            # u stays finite while its invariants overflow to NaN drifts
            ("ch_evolution", 64, 1e200,
             {"initial": {"type": "sine", "amplitude": 1e120},
              "kappa": 0.0, "dt": 1e-3, "t_end": 0.01},
             3, {"error": "NumericalHaltError", "stage": "manifest.json:metrics.H1_drift"}),
            ("linear_sw", 64, TWO_PI,
             {"profile": {"amplitude": 1e308, "width": 1.0}, "t": 0.5, "dt": 0.01},
             2, None),
            # a time step below the resolution of t gives t - dt == t == t + dt,
            # no snapshot triple to audit: a config error
            ("linear_sw", 64, TWO_PI,
             {"profile": {"amplitude": 1e306, "width": 1.0}, "t": 0.5, "dt": 1e-300},
             2, None),
        ],
        ids=["infinite_slope", "nan_separation", "nan_metric", "overflowing_surface", "nan_audit"],
    )
    def test_overflow_ends_in_one_stderr_line(self, tmp_path, kind, n, length, params,
                                              code, expected):
        out = tmp_path / "out"
        path = self.write(tmp_path, config_dict(kind, params, out, n=n, length=length))
        proc = child_python("-m", "wavelab", "run", path)
        assert proc.returncode == code
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not (out / "manifest.json").exists()
        assert not (out / "audit.json").exists()
        if code == 2:
            assert proc.stderr.startswith("error: ")
            return

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        diag = json.loads(proc.stderr, parse_constant=reject)
        assert expected.items() <= diag.items()

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_100000_deep"],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("error: ") == 2


PEAKS = {"q": [-1.0, 1.0], "p": [1.0, 0.5], "dt": 0.01, "t_end": 0.02}
CH = {"kappa": 0.3, "dt": 0.01, "t_end": 0.02}
RANDOM_CH = dict(CH, initial={"type": "random", "amplitude": 0.2, "max_mode": 4})
VARIATIONAL = {"n_intervals": 8, "t_total": 1.0, "eps": 0.001}
# 40 peaks for 10 steps: a trajectory of 11 rows of 83 cells, which the
# vectorized cell kernel writes (grid._EXACT_MIN_CELLS)
SWARM = {"q": [0.5 * i for i in range(40)], "p": [1.0 + 0.01 * i for i in range(40)],
         "dt": 0.01, "t_end": 0.1}

# kind, params, the kind's own wavelab modules, whether it draws from the generator
STARTUP_CASES = [
    ("ch_evolution", dict(CH, initial={"type": "sine", "amplitude": 0.2}), {"wavelab.ch"},
     False),
    ("ch_evolution", RANDOM_CH, {"wavelab.ch"}, True),
    ("peakon", PEAKS, {"wavelab.peakons"}, False),
    ("peakon", SWARM, {"wavelab.peakons"}, False),
    ("cross_validation", PEAKS, {"wavelab.ch", "wavelab.peakons"}, False),
    ("linear_sw", {"profile": {"amplitude": 0.5, "width": 1.0}, "t": 0.5, "dt": 0.01},
     {"wavelab.linear_sw", "wavelab.scaling"}, False),
    ("variational_check", VARIATIONAL, {"wavelab.variational"}, True),
    ("scaling_demo", SCALING_PARAMS, {"wavelab.scaling"}, True),
]
STARTUP_IDS = ["ch_sine", "ch_random", "peakon", "peakon_swarm", "cross_validation",
               "linear_sw", "variational_check", "scaling_demo"]
# what the CLI loads for every kind: grid holds the halt error it catches
CLI_MODULES = {"wavelab", "wavelab.cli", "wavelab.scenarios", "wavelab.grid"}


class TestStartup:
    """A process loads only its scenario kind's modules and no scipy, and
    ``run`` loads none."""

    @pytest.mark.parametrize("kind, params, own, draws", STARTUP_CASES, ids=STARTUP_IDS)
    def test_validate_loads_only_its_kinds_modules(self, tmp_path, kind, params, own, draws):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_dict(kind, params, tmp_path / "out", n=64)))
        code = textwrap.dedent("""
            import json, sys
            from wavelab.cli import main
            code = main(["validate", sys.argv[1]])
            print(json.dumps([code, sorted(m for m in sys.modules
                                           if m == "wavelab" or m.startswith("wavelab.")),
                              sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
            print("numpy.random" in sys.modules)
        """)
        proc = child_python("-c", code, str(path))
        assert proc.returncode == 0, proc.stderr
        status, random_loaded = proc.stdout.splitlines()[-2:]
        code, modules, scipy_modules = json.loads(status)
        assert code == 0
        assert set(modules) == CLI_MODULES | own
        assert scipy_modules == []
        assert random_loaded == str(draws)

    def test_importing_scenarios_loads_no_solver(self):
        code = textwrap.dedent("""
            import sys
            import wavelab.scenarios
            print(sorted(m for m in ("wavelab.ch", "wavelab.peakons") if m in sys.modules))
            import wavelab.ch
            print(wavelab.scenarios.evolve is wavelab.ch.evolve)
        """)
        proc = child_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "True"]

    @pytest.mark.parametrize(
        "kind, params", [case[:2] for case in STARTUP_CASES], ids=STARTUP_IDS
    )
    def test_run_after_from_dict_loads_no_module(self, tmp_path, kind, params):
        code = textwrap.dedent("""
            import json, sys
            from wavelab.scenarios import ScenarioConfig, run
            config = ScenarioConfig.from_dict(json.loads(sys.argv[1]))
            loaded = set(sys.modules)
            run(config)
            print(json.dumps(sorted(set(sys.modules) - loaded)))
            from wavelab.grid import _cell_tables
            print(_cell_tables.cache_info().currsize)
        """)
        data = json.dumps(config_dict(kind, params, tmp_path / "out", n=64))
        proc = child_python("-c", code, data)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-2]) == []
        assert (tmp_path / "out" / "manifest.json").exists()
        # only the swarm's trajectory is large enough for the cell kernel
        assert proc.stdout.splitlines()[-1] == str(int(params is SWARM))

    def test_random_initial_field_draws_as_one_generator(self, tmp_path):
        config = make_config(tmp_path, "ch_evolution", RANDOM_CH, n=64, seed=5)
        grid = config.grid
        rng = np.random.default_rng(5)
        values = np.zeros(grid.n)
        for m in range(1, 5):
            k = TWO_PI * m / grid.length
            values += rng.normal() / m * np.cos(k * grid.x + rng.uniform(0.0, TWO_PI))
        values *= 0.2 / np.max(np.abs(values))
        np.testing.assert_array_equal(config.inputs["u0"].values, values)

    def test_variational_draws_path_then_perturbation(self, tmp_path):
        config = make_config(tmp_path, "variational_check", VARIATIONAL, n=64, seed=5)
        grid, times = config.grid, uniform_times(1.0, 8)
        rng = np.random.default_rng(5)
        path = SinusoidalPathSpec.random(rng).build(grid, times)
        pert = BumpPerturbationSpec.random(rng).build(grid, times)
        np.testing.assert_array_equal(config.inputs["path"].gamma, path.gamma)
        np.testing.assert_array_equal(config.inputs["pert"].phi, pert.phi)

    def test_scaling_demo_draws_u_v_p_eta_in_order(self, tmp_path):
        config = make_config(tmp_path, "scaling_demo", SCALING_PARAMS, n=64, seed=5)
        sp, physical = ScalingParams(**SCALING_PARAMS), config.inputs["physical"]
        c, nz = sp.c_horizontal, physical.z.size
        rng = np.random.default_rng(5)
        # u, v and p are eps times their scales c, h0*c/lam and rho*g*h0
        np.testing.assert_array_equal(physical.u, sp.eps * c * rng.standard_normal((nz, 64)))
        np.testing.assert_array_equal(
            physical.v, sp.eps * (sp.h0 * c / sp.lam) * rng.standard_normal((nz, 64))
        )
        noise = sp.eps * (sp.rho * sp.g * sp.h0) * rng.standard_normal((nz, 64))
        np.testing.assert_array_equal(
            physical.p, sp.p0 + sp.rho * sp.g * (sp.h0 - physical.z)[:, None] + noise
        )
        np.testing.assert_array_equal(physical.eta, sp.a * rng.standard_normal(64))
