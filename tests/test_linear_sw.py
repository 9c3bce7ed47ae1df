import json
import math
from dataclasses import replace

import numpy as np
import pytest

import wavelab.linear_sw
from wavelab.grid import Field, Grid1D, deriv
from wavelab.linear_sw import SurfaceProfile, evolve_dalembert, reconstruct_irrotational
from wavelab.scaling import (
    ScalingParams,
    audit_limit_system,
    from_nondim,
    restore_delta,
    unscale_small_amplitude,
)
from wavelab.scenarios import load_config


def gaussian_profile(grid, amp=0.1, width=1.0, center=0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


@pytest.fixture
def grid():
    return Grid1D(256, 40.0)


class TestEvolveDalembert:
    def test_right_mover_translates(self, grid):
        prof = SurfaceProfile(f=gaussian_profile(grid))
        eta = evolve_dalembert(prof, 1.0)
        expected = gaussian_profile(grid, center=1.0)
        assert np.max(np.abs(eta.values - expected.values)) < 1e-12

    def test_wave_equation_residual_second_order(self, grid):
        """Centered-FD residual eta_tt - eta_xx shrinks ~4x under dt halving."""
        prof = SurfaceProfile(f=gaussian_profile(grid, center=3.0))
        t0 = 0.7

        def residual(dt):
            em = evolve_dalembert(prof, t0 - dt).values
            e0 = evolve_dalembert(prof, t0)
            ep = evolve_dalembert(prof, t0 + dt).values
            eta_tt = (ep - 2.0 * e0.values + em) / dt**2
            eta_xx = deriv(e0, 2).values
            return np.max(np.abs(eta_tt - eta_xx))

        r1, r2 = residual(0.02), residual(0.01)
        assert r1 < 1e-3
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)

    def test_semigroup_property(self, grid):
        prof = SurfaceProfile(f=gaussian_profile(grid))
        direct = evolve_dalembert(prof, 1.3 + 2.4)
        stage = evolve_dalembert(prof, 1.3)
        chained = evolve_dalembert(SurfaceProfile(f=stage), 2.4)
        assert np.max(np.abs(direct.values - chained.values)) < 1e-12


Z = np.linspace(0.0, 1.0, 9)


class TestReconstructIrrotational:
    def test_bundle_shapes(self, grid):
        bundle = reconstruct_irrotational(SurfaceProfile(f=gaussian_profile(grid)), 0.7, 1e-3, Z)
        n, nz = grid.n, len(Z)
        assert bundle.frame == "delta_removed"
        np.testing.assert_array_equal(bundle.t, [0.7 - 1e-3, 0.7, 0.7 + 1e-3])
        assert bundle.eta.shape == (3, n)
        assert bundle.u.shape == (3, nz, n)
        assert bundle.v.shape == bundle.p.shape == (nz, n)

    def test_flat_surface(self, grid):
        prof = SurfaceProfile(f=Field(grid, np.zeros(grid.n)), c0=0.4)
        bundle = reconstruct_irrotational(prof, 0.5, 1e-3, Z)
        assert np.max(np.abs(bundle.u - 0.4)) == 0.0
        assert np.max(np.abs(bundle.v)) == 0.0

    def test_bottom_kinematic_condition(self, grid):
        bundle = reconstruct_irrotational(SurfaceProfile(f=gaussian_profile(grid)), 0.5, 1e-3, Z)
        assert np.max(np.abs(bundle.v[0])) == 0.0

    def test_surface_kinematic_condition_chain_rule(self, grid):
        """For a right-mover, v at z=1 equals eta_t = -eta_x analytically."""
        t = 1.7
        bundle = reconstruct_irrotational(SurfaceProfile(f=gaussian_profile(grid)), t, 1e-3, Z)
        # analytic eta_t for f(x - t), with f a Gaussian
        x = grid.x
        amp, width = 0.1, 1.0
        eta_t_exact = amp * (2.0 * (x - t) / width**2) * np.exp(-(((x - t) / width) ** 2))
        assert np.max(np.abs(bundle.v[-1] - eta_t_exact)) < 1e-12

    def test_divergence_free(self, grid):
        prof = SurfaceProfile(f=gaussian_profile(grid), c0=0.2)
        bundle = reconstruct_irrotational(prof, 0.5, 1e-3, Z)
        v_z = np.gradient(bundle.v, Z, axis=0)
        u_x = grid.deriv_values(bundle.u[1])
        assert np.max(np.abs(u_x + v_z)) < 1e-9

    def test_vertical_velocity_linear_in_z(self, grid):
        prof = SurfaceProfile(f=gaussian_profile(grid))
        bundle = reconstruct_irrotational(prof, 0.5, 1e-3, [0.0, 0.37, 1.0])
        np.testing.assert_array_equal(bundle.v[1], 0.37 * bundle.v[2])

    @pytest.mark.parametrize("z", [-0.1, 1.1])
    def test_rejects_z_outside_column(self, grid, z):
        with pytest.raises(ValueError):
            reconstruct_irrotational(
                SurfaceProfile(f=Field(grid, np.zeros(grid.n))), 0.5, 1e-3, [0.0, 0.5, z]
            )

    @pytest.mark.parametrize("c0", [0.0, 0.4])
    def test_passes_limit_audit(self, grid, c0):
        prof = SurfaceProfile(f=gaussian_profile(grid, amp=0.8, width=2.0), c0=c0)
        report = audit_limit_system(reconstruct_irrotational(prof, 1.0, 1e-4, Z))
        for name, value in report.items():
            assert value <= 1e-8, (name, value)

    @pytest.mark.parametrize("nz", [3, 5, 9])
    @pytest.mark.parametrize(
        "lam, a", [(10.0, 0.01), (30.0, 1.0 / 900.0), (10.0, 0.03)],
        ids=["eps=delta^2", "eps=delta^2-long", "eps=3delta^2"],
    )
    def test_column_kinetic_energy_is_the_action_integrand(self, grid, lam, a, nz):
        # in physical units the column's kinetic energy 1/2 rho (u^2 + v^2),
        # over 0 <= Z <= h0, is 1/2 rho c^2 eps^2 h0 lam times the integral of
        # (eta + c0)^2 + (delta^2/3) eta_xs^2 over the scaled frame's
        # xs = r x, r = sqrt(eps/delta^2): each stage's scale of x, u and v
        # enters, so a wrong scale value breaks it (a round trip cannot)
        params = ScalingParams(h0=1.0, lam=lam, a=a)
        eps, delta, c0 = params.eps, params.delta, 0.5
        prof = SurfaceProfile(f=gaussian_profile(grid, amp=0.8, width=2.0), c0=c0)
        limit = reconstruct_irrotational(prof, 1.0, 1e-3, np.linspace(0.0, 1.0, nz))
        flow = from_nondim(
            unscale_small_amplitude(restore_delta(limit, eps, delta), eps), params
        )
        # Simpson in Z is exact for v's Z^2 at odd nz; the rectangle rule in X
        weights = np.ones(nz)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        column = (flow.z[1] - flow.z[0]) / 3.0 * (weights @ (flow.u[1] ** 2 + flow.v ** 2))
        energy = 0.5 * params.rho * (flow.x[1] - flow.x[0]) * np.sum(column)
        r = math.sqrt(eps / delta**2)
        eta = limit.eta[1]
        eta_xs = grid.deriv_values(eta) / r
        action = 0.5 * params.rho * params.c_horizontal**2 * eps**2 * params.h0 * lam * (
            r * grid.h * np.sum((eta + c0) ** 2 + delta**2 / 3.0 * eta_xs**2)
        )
        # measured: at most 4.3e-15 relative (eps = 3 delta^2), 2e-16 or 0 otherwise
        assert abs(energy - action) <= 1e-13 * action

    @pytest.mark.parametrize("name", ["v", "p"])
    def test_audit_rejects_a_snapshot_triple_of(self, grid, name):
        bundle = reconstruct_irrotational(SurfaceProfile(f=gaussian_profile(grid)), 0.5, 1e-3, Z)
        triple = np.stack([getattr(bundle, name)] * 3)
        with pytest.raises(ValueError):
            audit_limit_system(replace(bundle, **{name: triple}))

    def test_config_flow_is_built_by_the_builder(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(reconstruct_irrotational(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(wavelab.linear_sw, "reconstruct_irrotational", counting)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "linear_sw",
            "grid": {"n": 64, "L": 40.0},
            "params": {"profile": {"amplitude": 0.5, "width": 2.0}, "t": 1.0, "dt": 1e-3},
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
        }))
        config = load_config(str(path))
        assert len(calls) == 1
        assert config.inputs["bundle"] is calls[0]
