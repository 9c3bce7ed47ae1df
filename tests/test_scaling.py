"""Tests for the change-of-variables pipeline and the limit-system audit."""

from dataclasses import replace

import numpy as np
import pytest

from wavelab.grid import Grid1D
from wavelab.scaling import (
    FrameError,
    ScalingParams,
    VariableBundle,
    audit_limit_system,
    from_nondim,
    remove_delta,
    restore_delta,
    scale_small_amplitude,
    to_nondim,
    unscale_small_amplitude,
)

PARAMS = ScalingParams(h0=1.0, lam=10.0, a=0.1)


def make_physical(rng, params=PARAMS):
    """Random physical-frame bundle with realistic magnitudes."""
    nz, n = 5, 8
    z = np.linspace(0.0, params.h0, nz)
    p_hydro = params.p0 + params.rho * params.g * (params.h0 - z)[:, None]
    return VariableBundle(
        frame="physical",
        x=np.linspace(-20.0, 20.0, n),
        z=z,
        t=np.array([0.0, 0.5, 1.0]),
        u=0.3 * rng.standard_normal((nz, n)),
        v=0.05 * rng.standard_normal((nz, n)),
        p=p_hydro + 500.0 * rng.standard_normal((nz, n)),
        eta=0.08 * rng.standard_normal(n),
    )


class TestScalingParams:
    def test_eps_delta_arithmetic(self):
        assert PARAMS.eps == pytest.approx(0.1, rel=1e-15)
        assert PARAMS.delta == pytest.approx(0.1, rel=1e-15)
        assert PARAMS.c_horizontal == pytest.approx(np.sqrt(9.81), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ScalingParams(h0=0.0, lam=10.0, a=0.1)
        with pytest.raises(ValueError):
            ScalingParams(h0=1.0, lam=-2.0, a=0.1)
        with pytest.raises(ValueError):
            ScalingParams(h0=1.0, lam=10.0, a=0.1, g=np.nan)


class TestFrames:
    def test_unknown_frame_rejected(self):
        with pytest.raises(FrameError):
            VariableBundle(
                frame="lab",
                x=np.zeros(4), z=np.zeros(3), t=np.zeros(1),
                u=np.zeros((3, 4)), v=np.zeros((3, 4)), p=np.zeros((3, 4)),
                eta=np.zeros(4),
            )

    def test_wrong_frame_rejected_by_each_transform(self):
        rng = np.random.default_rng(0)
        phys = make_physical(rng)
        nd = to_nondim(phys, PARAMS)
        with pytest.raises(FrameError):
            to_nondim(nd, PARAMS)
        with pytest.raises(FrameError):
            from_nondim(phys, PARAMS)
        with pytest.raises(FrameError):
            scale_small_amplitude(phys, PARAMS.eps)
        scaled = scale_small_amplitude(nd, PARAMS.eps)
        with pytest.raises(FrameError):
            unscale_small_amplitude(nd, PARAMS.eps)
        with pytest.raises(FrameError):
            remove_delta(nd, PARAMS.eps, PARAMS.delta)
        with pytest.raises(FrameError):
            restore_delta(scaled, PARAMS.eps, PARAMS.delta)

    def test_nonfinite_member_rejected(self):
        with pytest.raises(ValueError):
            VariableBundle(
                frame="physical",
                x=np.array([0.0, np.inf]), z=np.zeros(3), t=np.zeros(1),
                u=np.zeros((3, 2)), v=np.zeros((3, 2)), p=np.zeros((3, 2)),
                eta=np.zeros(2),
            )


class TestNondim:
    def test_depth_maps_to_one(self):
        rng = np.random.default_rng(1)
        phys = make_physical(rng)
        nd = to_nondim(phys, PARAMS)
        assert nd.z[-1] == pytest.approx(1.0, abs=1e-15)
        assert nd.z[0] == 0.0

    def test_still_water_pressure_vanishes(self):
        nz, n = 6, 4
        z = np.linspace(0.0, PARAMS.h0, nz)
        p_hydro = PARAMS.p0 + PARAMS.rho * PARAMS.g * (PARAMS.h0 - z)[:, None]
        phys = VariableBundle(
            frame="physical",
            x=np.linspace(0.0, 1.0, n), z=z, t=np.zeros(1),
            u=np.zeros((nz, n)), v=np.zeros((nz, n)),
            p=p_hydro * np.ones((nz, n)),
            eta=np.zeros(n),
        )
        nd = to_nondim(phys, PARAMS)
        assert np.max(np.abs(nd.p)) < 1e-12
        assert np.max(np.abs(nd.u)) == 0.0
        # a single point: scalar members broadcast as they are, no column
        point = VariableBundle(
            frame="physical", x=0.5, z=0.25, t=0.0, u=0.0, v=0.0,
            p=PARAMS.p0 + PARAMS.rho * PARAMS.g * (PARAMS.h0 - 0.25), eta=0.0,
        )
        point_nd = to_nondim(point, PARAMS)
        assert point_nd.p.shape == ()
        assert abs(point_nd.p) < 1e-12
        assert from_nondim(point_nd, PARAMS).p == pytest.approx(point.p, rel=1e-15)

    def test_column_of_a_field_with_a_time_axis(self):
        # p laid out (t, z, x) over a 1-D z: the hydrostatic column runs
        # along the middle axis at every time
        params = ScalingParams(h0=2.5, lam=30.0, a=0.2)
        nt, nz, n = 3, 6, 8
        z = np.linspace(0.0, params.h0, nz)
        p_hydro = params.p0 + params.rho * params.g * (params.h0 - z)[None, :, None]
        still = VariableBundle(
            frame="physical",
            x=np.linspace(0.0, params.lam, n), z=z, t=np.array([0.0, 0.1, 0.2]),
            u=np.zeros((nt, nz, n)), v=np.zeros((nz, n)),
            p=np.broadcast_to(p_hydro, (nt, nz, n)),
            eta=np.zeros((nt, n)),
        )
        nd = to_nondim(still, params)
        assert nd.p.shape == (nt, nz, n)
        assert np.max(np.abs(nd.p)) < 1e-12
        rng = np.random.default_rng(7)
        moving = replace(still, p=still.p + 500.0 * rng.standard_normal((nt, nz, n)))
        back = from_nondim(to_nondim(moving, params), params)
        assert back.p.shape == (nt, nz, n)
        assert np.max(np.abs(back.p - moving.p)) / np.max(np.abs(moving.p)) < 1e-13

    def test_velocity_and_time_scales(self):
        c = PARAMS.c_horizontal
        rng = np.random.default_rng(2)
        phys = make_physical(rng)
        nd = to_nondim(phys, PARAMS)
        np.testing.assert_allclose(nd.u * c, phys.u, rtol=1e-15)
        np.testing.assert_allclose(nd.t * PARAMS.lam / c, phys.t, rtol=1e-15)
        np.testing.assert_allclose(nd.x * PARAMS.lam, phys.x, rtol=1e-15)
        np.testing.assert_allclose(nd.eta * PARAMS.a, phys.eta, rtol=1e-15)
        # v picks up lam/(h0*c)
        np.testing.assert_allclose(
            nd.v * PARAMS.h0 * c / PARAMS.lam, phys.v, rtol=1e-15
        )


class TestRoundTrips:
    def test_full_pipeline_round_trip(self):
        rng = np.random.default_rng(3)
        phys = make_physical(rng)
        eps, delta = PARAMS.eps, PARAMS.delta
        b = to_nondim(phys, PARAMS)
        b = scale_small_amplitude(b, eps)
        b = remove_delta(b, eps, delta)
        assert b.frame == "delta_removed"
        b = restore_delta(b, eps, delta)
        b = unscale_small_amplitude(b, eps)
        back = from_nondim(b, PARAMS)
        assert back.frame == "physical"
        for name in ("x", "z", "t", "u", "v", "p", "eta"):
            got = getattr(back, name)
            want = getattr(phys, name)
            scale = np.max(np.abs(want)) or 1.0
            assert np.max(np.abs(got - want)) / scale < 1e-13, name

    def test_remove_delta_identity_when_eps_is_delta_squared(self):
        # eps = delta*delta exactly: the map must leave x, t, v bitwise unchanged
        delta = PARAMS.delta
        eps = delta * delta
        rng = np.random.default_rng(4)
        phys = make_physical(rng)
        scaled = scale_small_amplitude(to_nondim(phys, PARAMS), eps)
        out = remove_delta(scaled, eps, delta)
        assert np.array_equal(out.x, scaled.x)
        assert np.array_equal(out.t, scaled.t)
        assert np.array_equal(out.v, scaled.v)

    def test_amplitude_scaling_leaves_geometry_alone(self):
        rng = np.random.default_rng(5)
        nd = to_nondim(make_physical(rng), PARAMS)
        scaled = scale_small_amplitude(nd, 0.25)
        np.testing.assert_array_equal(scaled.x, nd.x)
        np.testing.assert_array_equal(scaled.eta, nd.eta)
        np.testing.assert_allclose(scaled.u * 0.25, nd.u, rtol=1e-15)

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_a_non_positive_parameter(self, eps):
        nd = to_nondim(make_physical(np.random.default_rng(6)), PARAMS)
        scaled = scale_small_amplitude(nd, PARAMS.eps)
        removed = remove_delta(scaled, PARAMS.eps, PARAMS.delta)
        with pytest.raises(ValueError, match="eps must be strictly positive"):
            scale_small_amplitude(nd, eps)
        with pytest.raises(ValueError, match="eps must be strictly positive"):
            unscale_small_amplitude(scaled, eps)
        with pytest.raises(ValueError, match="eps must be strictly positive"):
            remove_delta(scaled, eps, PARAMS.delta)
        with pytest.raises(ValueError, match="delta must be strictly positive"):
            restore_delta(removed, PARAMS.eps, eps)


def dalembert_bundle(t0, dt, n=256, length=40.0, nz=9):
    """Exact solution of the limit system from two counter-propagating bumps.

    eta = f(x-t) + g(x+t), u = f(x-t) - g(x+t) (z-independent),
    v = -z * d/dx[f(x-t) - g(x+t)], p = eta through the column.
    """
    grid = Grid1D(n=n, length=length)
    x = grid.x
    z = np.linspace(0.0, 1.0, nz)
    ts = np.array([t0 - dt, t0, t0 + dt])

    def f(s):
        return 0.8 * np.exp(-((s / 2.0) ** 2))

    def fp(s):
        return -2.0 * s / 4.0 * f(s)

    def g(s):
        return 0.5 * np.exp(-(((s + 5.0) / 3.0) ** 2))

    def gp(s):
        return -2.0 * (s + 5.0) / 9.0 * g(s)

    eta = np.stack([f(x - t) + g(x + t) for t in ts])
    u = np.stack([np.broadcast_to(f(x - t) - g(x + t), (nz, n)).copy() for t in ts])
    v = -z[:, None] * (fp(x - t0) - gp(x + t0))[None, :]
    p = np.broadcast_to(eta[1], (nz, n)).copy()
    return VariableBundle(
        frame="delta_removed", x=x, z=z, t=ts, u=u, v=v, p=p, eta=eta
    )


class TestAudit:
    def test_zero_fields_give_zero_residuals(self):
        n, nz = 32, 5
        grid = Grid1D(n=n, length=10.0)
        bundle = VariableBundle(
            frame="delta_removed",
            x=grid.x, z=np.linspace(0.0, 1.0, nz),
            t=np.array([-1e-3, 0.0, 1e-3]),
            u=np.zeros((3, nz, n)), v=np.zeros((nz, n)), p=np.zeros((nz, n)),
            eta=np.zeros((3, n)),
        )
        report = audit_limit_system(bundle)
        assert set(report) == {
            "x_momentum", "z_momentum", "continuity",
            "surface_kinematic", "surface_dynamic", "bottom_kinematic",
        }
        assert all(value == 0.0 for value in report.values())

    def test_dalembert_solution_passes(self):
        report = audit_limit_system(dalembert_bundle(t0=0.7, dt=1e-4))
        for name, value in report.items():
            assert value <= 1e-8, (name, value)

    def test_time_derivative_error_shrinks_with_dt(self):
        coarse = audit_limit_system(dalembert_bundle(t0=0.7, dt=2e-3))
        fine = audit_limit_system(dalembert_bundle(t0=0.7, dt=1e-3))
        # centered differences: O(dt^2) on the equations involving d/dt
        ratio = coarse["x_momentum"] / fine["x_momentum"]
        assert 3.0 < ratio < 5.0

    def test_noise_amplification_scale(self):
        # white noise of size sigma on the snapshots must show up in the
        # time-derivative residual at the sigma/dt scale, not be smoothed away
        n, length = 256, 40.0
        dt = length / n
        bundle = dalembert_bundle(t0=0.7, dt=dt, n=n, length=length)
        rng = np.random.default_rng(7)
        sigma = 1e-3
        noisy = VariableBundle(
            frame="delta_removed",
            x=bundle.x, z=bundle.z, t=bundle.t,
            u=bundle.u + rng.normal(0.0, sigma, bundle.u.shape),
            v=bundle.v, p=bundle.p, eta=bundle.eta,
        )
        resid = audit_limit_system(noisy)["x_momentum"]
        assert 0.05 * sigma / dt < resid < 5.0 * sigma / dt

    def test_shape_and_column_validation(self):
        bundle = dalembert_bundle(t0=0.7, dt=1e-4)
        bad_z = VariableBundle(
            frame="delta_removed",
            x=bundle.x, z=np.linspace(0.0, 0.9, len(bundle.z)), t=bundle.t,
            u=bundle.u, v=bundle.v, p=bundle.p, eta=bundle.eta,
        )
        with pytest.raises(ValueError):
            audit_limit_system(bad_z)
        bad_u = VariableBundle(
            frame="delta_removed",
            x=bundle.x, z=bundle.z, t=bundle.t,
            u=bundle.u[1], v=bundle.v, p=bundle.p, eta=bundle.eta,
        )
        with pytest.raises(ValueError):
            audit_limit_system(bad_u)
        with pytest.raises(FrameError):
            audit_limit_system(
                VariableBundle(
                    frame="scaled",
                    x=bundle.x, z=bundle.z, t=bundle.t,
                    u=bundle.u, v=bundle.v, p=bundle.p, eta=bundle.eta,
                )
            )
        uneven_x = bundle.x.copy()
        uneven_x[3] += 1e-3
        for change, message in [
            ({"x": bundle.x[None, :]}, "one-dimensional"),
            ({"z": np.stack([bundle.z, bundle.z])}, "one-dimensional"),
            ({"t": bundle.t[:2]}, "snapshot triple"),
            ({"z": np.array([0.0, 1.0])}, "at least 3 samples"),
            ({"x": uneven_x}, "x must be uniformly spaced"),
            # checked before any division by dt
            ({"t": np.array([0.7001, 0.7, 0.6999])}, "must not decrease"),
            ({"t": np.array([0.7, 0.7, 0.7])}, "must not decrease or repeat"),
        ]:
            with pytest.raises(ValueError, match=message):
                audit_limit_system(replace(bundle, **change))

    @pytest.mark.parametrize(
        "t", [[0.0, 1e-9, 3e-9], [0.4999, 0.5, 0.500100005]], ids=["nanoseconds", "offset"]
    )
    def test_non_uniform_triple_rejected(self, t):
        # the spacing is checked relative to the step, however small the step
        bundle = replace(dalembert_bundle(t0=0.7, dt=1e-4), t=np.array(t))
        with pytest.raises(ValueError, match="uniform in time"):
            audit_limit_system(bundle)
