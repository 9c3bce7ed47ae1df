"""Tests for the scenario runner and CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from wavelab.cli import main
from wavelab.scenarios import (
    ConfigError,
    ScenarioConfig,
    config_digest,
    load_config,
    run,
)

TWO_PI = 2 * np.pi


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
        with pytest.raises(ConfigError, match="equal length"):
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
            # the perturbation's t(T - t)/T^2 envelope is not finite
            ("variational_check", {"t_total": 1e-300}),
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
            # the scaling chain divides by delta^2 = 0 or makes v non-finite
            ("scaling_demo", {"lam": 1e308}),
            ("scaling_demo", {"lam": 1e200}),
            ("scaling_demo", {"h0": 1e-300}),
            # a surface level overflows to non-finite samples
            ("linear_sw", {"profile": {"amplitude": 1e308, "width": 1.0}}),
            ("linear_sw", {"t": 1e308}),
            ("linear_sw", {"dt": 1e308}),
        ],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, kind, change):
        params = {
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
        params.update(change)
        path = self.write(tmp_path, config_dict(kind, params, tmp_path / "out", n=64))
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert diag["max_slope"] > 5.0
        assert 0.0 < diag["t"] < 10.0

    def test_module_entry_point(self, tmp_path):
        path = self.write(
            tmp_path, config_dict("scaling_demo", SCALING_PARAMS, tmp_path / "out")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "wavelab", "validate", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, wavelab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
