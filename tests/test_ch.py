"""Tests for the dispersive shallow-water solver."""

from dataclasses import replace

import numpy as np
import pytest

import wavelab.ch
import wavelab.grid
from wavelab.ch import (
    CHParams,
    CHResult,
    CHState,
    WaveBreakingError,
    evolve,
    invariants,
    invariants_to_csv,
    rhs_local,
    rhs_nonlocal,
    step_rk4,
)
from wavelab.grid import Field, Grid1D, dealias, deriv, helmholtz_inv, spectral_shift


def random_band_limited(grid, max_mode, rng, decay=1.0):
    """Random real field with spectral support on modes 1..max_mode."""
    u = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        km = 2.0 * np.pi * m / grid.length
        amp = rng.standard_normal() / m**decay
        u += amp * np.cos(km * grid.x + rng.uniform(0.0, 2.0 * np.pi))
    return u / np.max(np.abs(u))


class TestRHS:
    def test_constant_field_is_steady(self):
        grid = Grid1D(n=64, length=2 * np.pi)
        u = Field(grid, np.full(grid.n, 0.7))
        for rhs in (rhs_nonlocal, rhs_local):
            out = rhs(u, kappa=0.4)
            assert np.max(np.abs(out.values)) < 1e-13

    def test_linear_limit_matches_dispersion_operator(self):
        # infinitesimal sin(kx): du/dt -> -2*kappa*k*cos(kx)/(1+k^2)
        grid = Grid1D(n=128, length=2 * np.pi)
        alpha, kappa, k = 1e-8, 0.5, 3
        u = Field(grid, alpha * np.sin(k * grid.x))
        expected = -2.0 * kappa * alpha * k / (1.0 + k * k) * np.cos(k * grid.x)
        for rhs in (rhs_nonlocal, rhs_local):
            out = rhs(u, kappa=kappa)
            assert np.max(np.abs(out.values - expected)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_local_nonlocal_equivalence(self, seed):
        grid = Grid1D(n=512, length=2 * np.pi)
        rng = np.random.default_rng(seed)
        u = Field(grid, random_band_limited(grid, max_mode=80, rng=rng))
        a = rhs_nonlocal(u, kappa=0.7, dealias=True)
        b = rhs_local(u, kappa=0.7, dealias=True)
        assert np.max(np.abs(a.values - b.values)) <= 1e-8

    def test_dealias_changes_nothing_on_well_resolved_field(self):
        grid = Grid1D(n=512, length=2 * np.pi)
        u = Field(grid, 0.3 * np.sin(2 * grid.x) + 0.1 * np.cos(5 * grid.x))
        on = rhs_nonlocal(u, kappa=0.1, dealias=True)
        off = rhs_nonlocal(u, kappa=0.1, dealias=False)
        # products reach mode 10 only, far inside the retained band; the
        # masked FFT round trip still perturbs at machine epsilon
        assert np.max(np.abs(on.values - off.values)) < 1e-13

    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("rhs", [rhs_nonlocal, rhs_local])
    def test_dealiased_rhs_ignores_modes_above_the_band(self, rhs, kappa):
        # the tendency starts, as evolve does, from u projected onto m <= n/3
        grid = Grid1D(n=64, length=2 * np.pi)
        rng = np.random.default_rng(7)
        u = 0.4 + random_band_limited(grid, max_mode=grid.n // 4, rng=rng, decay=2.0)
        above = 0.2 * np.cos(27 * grid.x + 0.3)
        base = rhs(Field(grid, u), kappa=kappa).values
        noisy = rhs(Field(grid, u + above), kappa=kappa).values
        assert np.max(np.abs(noisy - base)) <= 1e-14 * np.max(np.abs(base))


def reference_rhs(u, kappa, dealias_on, form):
    """Both right-hand sides composed from the public Field operators, one
    spectral round trip per operator; the fused kernels must reproduce it."""
    if form == "nonlocal":
        ux = deriv(u)
        uux = Field(u.grid, u.values * ux.values)
        q = Field(u.grid, u.values**2 + 0.5 * ux.values**2)
        if dealias_on:
            uux, q = dealias(uux), dealias(q)
        p = helmholtz_inv(Field(u.grid, q.values + 2.0 * kappa * u.values))
        return -uux.values - deriv(p).values
    ux, uxx, uxxx = (deriv(u, order).values for order in (1, 2, 3))
    quad = Field(u.grid, -3.0 * u.values * ux + 2.0 * ux * uxx + u.values * uxxx)
    if dealias_on:
        quad = dealias(quad)
    return helmholtz_inv(Field(u.grid, quad.values - 2.0 * kappa * ux)).values


class TestFusedRHS:
    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_matches_operator_composition(self, n, dealias_on, kappa, form):
        grid = Grid1D(n=n, length=2 * np.pi)
        rng = np.random.default_rng(n)
        # modes up to n/4 make the products alias; 1/m^2 amplitudes keep u_x
        # a resolved H1-type profile rather than white noise
        u0 = random_band_limited(grid, max_mode=n // 4, rng=rng, decay=2.0)
        u = Field(grid, 0.4 + u0)
        rhs = {"nonlocal": rhs_nonlocal, "local": rhs_local}[form]
        fused = rhs(u, kappa=kappa, dealias=dealias_on).values
        ref = reference_rhs(u, kappa, dealias_on, form)
        assert np.max(np.abs(fused - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTimeStepping:
    def final_values(self, dt):
        grid = Grid1D(n=64, length=2 * np.pi)
        u0 = Field(grid, 0.2 * np.sin(grid.x) + 0.05 * np.cos(2 * grid.x))
        params = CHParams(kappa=0.3, dt=dt, t_end=0.5, record_every=1000)
        return evolve(u0, params).final.u.values

    def test_rk4_fourth_order(self):
        u1 = self.final_values(0.02)
        u2 = self.final_values(0.01)
        u3 = self.final_values(0.005)
        e1 = np.max(np.abs(u1 - u2))
        e2 = np.max(np.abs(u2 - u3))
        order = np.log2(e1 / e2)
        assert 3.7 < order < 4.3

    def test_step_rk4_advances_time(self):
        grid = Grid1D(n=64, length=2 * np.pi)
        state = CHState(t=0.25, u=Field(grid, 0.1 * np.sin(grid.x)))
        params = CHParams(kappa=0.2, dt=0.01, t_end=1.0)
        out = step_rk4(state, params)
        assert out.t == pytest.approx(0.26, abs=1e-15)
        assert not np.array_equal(out.u.values, state.u.values)

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_step_rk4_is_the_first_step_of_evolve(self, form, kappa, dealias_on):
        grid = Grid1D(n=64, length=2 * np.pi)
        rng = np.random.default_rng(64)
        # modes above n/3, which the start projects away when dealiasing is on
        u = Field(grid, 0.4 + random_band_limited(grid, max_mode=31, rng=rng, decay=2.0))
        params = CHParams(kappa=kappa, dt=0.01, t_end=1.0, dealias=dealias_on)
        step = step_rk4(CHState(t=0.0, u=u), params, form=form).u.values
        first = evolve(u, replace(params, t_end=params.dt), form=form).final.u.values
        np.testing.assert_array_equal(step, first)


class TestInvariants:
    def test_sine_analytic_values(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u = Field(grid, np.sin(grid.x))
        kappa = 0.4
        h0, h1, h2 = invariants(u, kappa)
        assert abs(h0) < 1e-13
        assert h1 == pytest.approx(np.pi, rel=1e-12)
        # odd powers integrate to zero; only the 2*kappa*u^2 term survives
        assert h2 == pytest.approx(kappa * np.pi, rel=1e-12)

    def test_constant_analytic_values(self):
        grid = Grid1D(n=64, length=5.0)
        c, kappa, L = 0.3, 0.25, 5.0
        u = Field(grid, np.full(grid.n, c))
        h0, h1, h2 = invariants(u, kappa)
        assert h0 == pytest.approx(c * L, rel=1e-14)
        assert h1 == pytest.approx(0.5 * c * c * L, rel=1e-14)
        assert h2 == pytest.approx(0.5 * (c**3 + 2 * kappa * c * c) * L, rel=1e-14)


class TestEvolve:
    def test_mean_is_conserved_to_roundoff(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, 0.5 + 0.3 * np.sin(grid.x))
        params = CHParams(kappa=0.3, dt=1e-3, t_end=0.1, record_every=10)
        res = evolve(u0, params)
        h0 = res.invariants[:, 0]
        assert np.max(np.abs(h0 - h0[0])) / abs(h0[0]) < 1e-13

    def test_bump_conserves_all_three_invariants(self):
        grid = Grid1D(n=1024, length=40.0)
        u0 = Field(grid, np.cosh(grid.x / 3.0) ** -2)
        params = CHParams(kappa=0.0, dt=1e-3, t_end=2.0, record_every=200)
        res = evolve(u0, params)
        drift = np.abs(res.invariants - res.invariants[0]) / np.abs(res.invariants[0])
        assert drift[:, 0].max() < 1e-10
        assert drift[:, 1].max() < 1e-6
        assert drift[:, 2].max() < 1e-5

    def test_small_amplitude_phase_speed(self):
        # kappa=0.5, k=1: linear phase speed 2*kappa/(1+k^2) = 0.5
        grid = Grid1D(n=128, length=2 * np.pi)
        u0 = Field(grid, 1e-6 * np.sin(grid.x))
        params = CHParams(
            kappa=0.5, dt=1e-3, t_end=1.0, record_every=1000, snapshot_every=50
        )
        res = evolve(u0, params)
        ts = np.array([t for t, _ in res.snapshots])
        phases = np.unwrap([np.angle(np.fft.fft(vals)[1]) for _, vals in res.snapshots])
        omega = -np.polyfit(ts, phases, 1)[0]
        speed = omega / 1.0
        assert abs(speed - 0.5) / 0.5 < 5e-3

    def test_recording_layout(self):
        grid = Grid1D(n=64, length=2 * np.pi)
        u0 = Field(grid, 0.1 * np.sin(grid.x))
        params = CHParams(kappa=0.2, dt=0.01, t_end=0.1, record_every=5, snapshot_every=4)
        res = evolve(u0, params)
        np.testing.assert_allclose(res.times, [0.0, 0.05, 0.1], atol=1e-15)
        assert res.invariants.shape == (3, 3)
        snap_times = [t for t, _ in res.snapshots]
        np.testing.assert_allclose(snap_times, [0.0, 0.04, 0.08, 0.1], atol=1e-15)
        np.testing.assert_array_equal(res.snapshots[-1][1], res.final.u.values)
        assert res.final.t == res.times[-1]

    def test_fractional_step_count_rejected(self):
        with pytest.raises(ValueError):
            CHParams(dt=0.3, t_end=1.0).n_steps

    def test_negative_snapshot_every_rejected(self):
        with pytest.raises(ValueError, match="snapshot_every must be >= 0"):
            CHParams(snapshot_every=-1)

    @pytest.mark.parametrize("kappa", [np.inf, np.nan, -1.0])
    def test_kappa_must_be_finite_and_nonnegative(self, kappa):
        # the old message said "kappa must be >= 0, got inf" to an infinite kappa
        with pytest.raises(ValueError, match=f"kappa must be finite and >= 0, got {kappa}"):
            CHParams(kappa=kappa)

    def test_unknown_form_rejected(self):
        grid = Grid1D(n=64, length=2 * np.pi)
        u0 = Field(grid, 0.1 * np.sin(grid.x))
        with pytest.raises(ValueError):
            evolve(u0, CHParams(dt=0.01, t_end=0.1), form="upwind")

    def test_local_form_run_matches_nonlocal(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, 0.2 * np.sin(grid.x))
        params = CHParams(kappa=0.3, dt=1e-3, t_end=0.2, record_every=100)
        a = evolve(u0, params, form="nonlocal").final.u.values
        b = evolve(u0, params, form="local").final.u.values
        assert np.max(np.abs(a - b)) < 1e-10


class TestWaveBreaking:
    def test_steepening_halts_with_diagnostic(self):
        # odd initial data whose momentum u - u_xx changes sign steepens and
        # breaks; a desk-scale ceiling of 5 catches it long before blow-up
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, np.sin(grid.x))
        params = CHParams(kappa=0.0, dt=1e-3, t_end=10.0, slope_ceiling=5.0)
        with pytest.raises(WaveBreakingError) as excinfo:
            evolve(u0, params)
        err = excinfo.value
        assert 0.0 < err.t < 10.0
        assert err.max_slope > 5.0
        assert err.ceiling == 5.0
        assert "wave breaking" in str(err)

    def slope_of(self, u):
        return float(np.max(np.abs(deriv(u).values)))

    def test_breaking_at_t0_reports_initial_slope(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, np.sin(grid.x))
        with pytest.raises(WaveBreakingError) as excinfo:
            evolve(u0, CHParams(kappa=0.0, dt=1e-3, t_end=1.0, slope_ceiling=0.5))
        err = excinfo.value
        assert err.t == 0.0
        assert err.max_slope == pytest.approx(self.slope_of(dealias(u0)), rel=1e-12)

    def test_breaking_mid_run_and_at_last_step(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, np.sin(grid.x))
        dt, ceiling = 1e-3, 5.0
        with pytest.raises(WaveBreakingError) as excinfo:
            evolve(u0, CHParams(kappa=0.0, dt=dt, t_end=10.0, slope_ceiling=ceiling))
        mid = excinfo.value
        steps = round(mid.t / dt)
        assert 0 < steps < 10_000

        # march to the detection level and one before it without a ceiling
        def state_at(k):
            params = CHParams(kappa=0.0, dt=dt, t_end=k * dt, slope_ceiling=1e300)
            return evolve(u0, params).final

        at = state_at(steps)
        assert at.t == pytest.approx(mid.t, abs=1e-15)
        assert mid.max_slope == pytest.approx(self.slope_of(at.u), rel=1e-12)
        assert self.slope_of(state_at(steps - 1).u) <= ceiling

        # the same level as the last step: no following stage 1 supplies u_x
        with pytest.raises(WaveBreakingError) as excinfo:
            evolve(u0, CHParams(kappa=0.0, dt=dt, t_end=steps * dt, slope_ceiling=ceiling))
        last = excinfo.value
        assert last.t == mid.t
        assert last.max_slope == pytest.approx(self.slope_of(at.u), rel=1e-12)

    def test_smooth_run_does_not_trip_default_ceiling(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, 0.1 * np.sin(grid.x))
        params = CHParams(kappa=0.5, dt=1e-3, t_end=0.5)
        res = evolve(u0, params)
        assert res.final.t == pytest.approx(0.5)


def traveling_wave(grid, kappa, c):
    """The even solitary-wave profile phi of speed c > 2*kappa, u = phi(x - ct),
    and the Petviashvili iterations it took.

    Integrated once, with constant 0, the equation reads L phi = N(phi) with
    L = c(1 - dxx) - 2*kappa and N(phi) = 3/2 phi^2 - 1/2 phi_x^2 - phi*phi_xx;
    N is quadratic, so the stabilising factor enters squared.
    """
    a = c - 2.0 * kappa
    symbol = c * (1.0 + grid.k_half**2) - 2.0 * kappa

    def nonlinear(phi):
        px, pxx = grid.deriv_values(phi), grid.deriv_values(phi, 2)
        return 1.5 * phi * phi - 0.5 * px * px - phi * pxx

    phi = a / np.cosh(0.5 * np.sqrt(a / c) * grid.x) ** 2
    for iterations in range(200):
        ph, nl = np.fft.rfft(phi), nonlinear(phi)
        if np.max(np.abs(np.fft.irfft(symbol * ph, grid.n) - nl)) < 1e-13 * a:
            return phi, iterations
        nh = np.fft.rfft(nl)
        m = np.vdot(ph, symbol * ph).real / np.vdot(ph, nh).real
        phi = np.fft.irfft(m * m * nh / symbol, grid.n)
    raise AssertionError("Petviashvili iteration did not converge")


class TestTravelingWave:
    """An exact nonlinear oracle at kappa > 0: the smooth solitary wave of
    speed c, whose crest is c - 2*kappa (Camassa & Holm 1993), is carried
    unchanged at speed c."""

    def wave(self, n, length, kappa, c):
        grid = Grid1D(n=n, length=length)
        phi, iterations = traveling_wave(grid, kappa, c)
        assert iterations <= 100
        return Field(grid, phi)

    def test_crest_is_c_minus_two_kappa(self):
        # a period long enough for the tail to fall below 1e-10
        phi = self.wave(512, 80.0, 0.3, 1.0).values
        assert abs(phi[0]) < 1e-10
        assert abs(np.max(phi) - 0.4) <= 1e-13

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("rhs", [rhs_nonlocal, rhs_local])
    @pytest.mark.parametrize("n, length, kappa, c", [(256, 40.0, 0.5, 1.5), (512, 80.0, 0.3, 1.0)])
    def test_tendency_is_the_translation(self, n, length, kappa, c, rhs, dealias_on):
        u = self.wave(n, length, kappa, c)
        assert np.max(np.abs(rhs(u, kappa, dealias_on).values + c * deriv(u).values)) <= 1e-11

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_evolve_is_the_exact_shift(self, form, dealias_on):
        kappa, c, t_end = 0.5, 1.5, 2.0
        u0 = self.wave(256, 40.0, kappa, c)
        params = CHParams(kappa=kappa, dt=0.005, t_end=t_end, dealias=dealias_on)
        got = evolve(u0, params, form=form).final.u.values
        assert np.max(np.abs(got - spectral_shift(u0, c * t_end).values)) <= 2e-11

    def test_rk4_fourth_order(self):
        kappa, c, t_end = 0.5, 1.5, 2.0
        u0 = self.wave(256, 40.0, kappa, c)
        exact = spectral_shift(u0, c * t_end).values
        errors = [
            np.max(np.abs(evolve(u0, CHParams(kappa=kappa, dt=dt, t_end=t_end)).final.u.values
                          - exact))
            for dt in (0.02, 0.01, 0.005)
        ]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((3.9 < orders) & (orders < 4.1)), errors


def reference_rhs_values(grid, u, kappa, dealias_on, form):
    """Tendency samples and u_x of the sample array ``u``: each call starts
    from rfft(u) and ends with one irfft per derivative and per tendency."""
    n = grid.n
    uh = np.fft.rfft(u)
    if form == "nonlocal":
        ux = np.fft.irfft(grid.ik * uh, n)
        adv = np.fft.rfft(u * ux)
        q = np.fft.rfft(u * u + 0.5 * ux * ux)
        if dealias_on:
            adv *= grid.dealias_mask
            q *= grid.dealias_mask
        q += (2.0 * kappa) * uh
        q *= grid.ik * grid.helmholtz_symbol
        q += adv
        return -np.fft.irfft(q, n), ux
    sym = grid.deriv_symbols
    ux, uxx, uxxx = (np.fft.irfft(sym[order] * uh, n) for order in (1, 2, 3))
    quad = np.fft.rfft(-3.0 * u * ux + 2.0 * ux * uxx + u * uxxx)
    if dealias_on:
        quad *= grid.dealias_mask
    quad -= (2.0 * kappa) * sym[1] * uh
    quad *= grid.helmholtz_symbol
    return np.fft.irfft(quad, n), ux


def reference_evolve(u0, params, form):
    """:func:`evolve` with the samples u as the RK4 state: the same slope
    check, records, snapshots and halts.  Returns (final u, times,
    invariants, snapshots)."""
    grid, dt, kappa, dealias_on = u0.grid, params.dt, params.kappa, params.dealias
    u = np.array(u0.values)
    if dealias_on:
        u = np.fft.irfft(np.fft.rfft(u) * grid.dealias_mask, grid.n)

    def rhs(v):
        return reference_rhs_values(grid, v, kappa, dealias_on, form)

    steps = params.n_steps
    times, rows, snaps = [], [], []
    for s in range(steps + 1):
        t = s * dt
        if s < steps:
            k1, ux = rhs(u)
        else:
            ux = grid.deriv_values(u)
        max_slope = float(np.max(np.abs(ux)))
        if max_slope > params.slope_ceiling:
            raise WaveBreakingError(t, max_slope, params.slope_ceiling)
        if s % params.record_every == 0 or s == steps:
            times.append(t)
            rows.append(invariants(Field(grid, u), kappa))
        if params.snapshot_every and (s % params.snapshot_every == 0 or s == steps):
            snaps.append((t, u.copy()))
        if s == steps:
            break
        k2 = rhs(u + (0.5 * dt) * k1)[0]
        k3 = rhs(u + (0.5 * dt) * k2)[0]
        k4 = rhs(u + dt * k3)[0]
        u = u + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(u)):
            raise WaveBreakingError((s + 1) * dt, float("inf"), params.slope_ceiling)
    return u, np.array(times), np.array(rows), snaps


class TestSpectralState:
    """evolve keeps the half spectrum as its RK4 state; it must give what
    the sample-state march gives, to roundoff."""

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_matches_sample_state_march(self, n, dealias_on, kappa, form):
        grid = Grid1D(n=n, length=2 * np.pi)
        rng = np.random.default_rng(n)
        # modes above n/3 make the initial dealias projection act
        u0 = Field(grid, 0.4 + random_band_limited(grid, max_mode=n // 2 - 1, rng=rng, decay=2.0))
        params = CHParams(
            kappa=kappa, dt=2e-4, t_end=1e-2, dealias=dealias_on,
            record_every=5, snapshot_every=7,
        )
        ref_u, ref_times, ref_inv, ref_snaps = reference_evolve(u0, params, form)
        res = evolve(u0, params, form=form)
        tol = 1e-12 * np.max(np.abs(ref_u))
        assert np.max(np.abs(res.final.u.values - ref_u)) <= tol
        np.testing.assert_array_equal(res.times, ref_times)
        assert np.max(np.abs(res.invariants - ref_inv)) <= tol
        assert [t for t, _ in res.snapshots] == [t for t, _ in ref_snaps]
        for (_, got), (_, want) in zip(res.snapshots, ref_snaps):
            assert np.max(np.abs(got - want)) <= tol

    def halts(self, run):
        with pytest.raises(WaveBreakingError) as excinfo, np.errstate(all="ignore"):
            run()
        return excinfo.value

    def assert_same_halt(self, u0, params, form):
        want = self.halts(lambda: reference_evolve(u0, params, form))
        got = self.halts(lambda: evolve(u0, params, form=form))
        assert got.t == want.t
        assert got.ceiling == want.ceiling
        assert got.max_slope == pytest.approx(want.max_slope, rel=1e-12)
        return got

    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_breaking_halts_match(self, form):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, np.sin(grid.x))
        dt = 1e-3
        at_t0 = self.assert_same_halt(
            u0, CHParams(kappa=0.0, dt=dt, t_end=1.0, slope_ceiling=0.5), form
        )
        assert at_t0.t == 0.0
        mid = self.assert_same_halt(
            u0, CHParams(kappa=0.0, dt=dt, t_end=10.0, slope_ceiling=5.0), form
        )
        steps = round(mid.t / dt)
        assert 0 < steps < 10_000
        # the halting level as the last one: its slope takes the final inverse call
        last = self.assert_same_halt(
            u0, CHParams(kappa=0.0, dt=dt, t_end=steps * dt, slope_ceiling=5.0), form
        )
        assert last.t == mid.t

    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    @pytest.mark.parametrize("amplitude", [1e3, 1e100])
    def test_non_finite_halts_match(self, form, amplitude):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, amplitude * np.sin(grid.x))
        params = CHParams(kappa=0.0, dt=1e-3, t_end=1.0, slope_ceiling=1e300)
        err = self.assert_same_halt(u0, params, form)
        assert err.max_slope == float("inf")
        assert 0.0 < err.t < 1.0


class TestTransformCount:
    """Pins the real transforms of the CH solver: per RK4 step 8 calls for
    either form, 16 transforms (rows) for the nonlocal form and 20 for the
    local one, plus a fixed entry and exit cost."""

    # calls and transforms outside the steps: evolve's rfft of u0 and its
    # final (u, u_x) inverse call; step_rk4's rfft on entry and irfft on exit
    EVOLVE_FIXED = {"calls": 2, "transforms": 3}
    STEP_FIXED = {"calls": 2, "transforms": 2}
    PER_STEP = {"nonlocal": {"calls": 8, "transforms": 16}, "local": {"calls": 8, "transforms": 20}}

    @pytest.fixture
    def count(self, monkeypatch):
        """``count(run)`` calls ``run()`` and returns the transform calls and
        rows it made."""
        counts = {}

        def counting(fn):
            def wrapper(a, *args, **kwargs):
                counts["calls"] += 1
                counts["transforms"] += int(np.prod(np.shape(a)[:-1]))
                return fn(a, *args, **kwargs)

            return wrapper

        # the grid's operators too, so no transform can hide behind them
        for module in (wavelab.ch, wavelab.grid):
            monkeypatch.setattr(module, "rfft", counting(np.fft.rfft))
            monkeypatch.setattr(module, "irfft", counting(np.fft.irfft))

        def count(run):
            counts.update(calls=0, transforms=0)
            run()
            return dict(counts)

        return count

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_evolve(self, count, form, dealias_on):
        grid = Grid1D(n=64, length=2 * np.pi)
        u0 = Field(grid, 0.1 * np.sin(grid.x))
        dt = 0.01
        for steps in (1, 2, 7):
            params = CHParams(
                kappa=0.2, dt=dt, t_end=steps * dt, dealias=dealias_on,
                record_every=2, snapshot_every=3,
            )
            got = count(lambda: evolve(u0, params, form=form))
            assert got == {
                key: steps * self.PER_STEP[form][key] + self.EVOLVE_FIXED[key]
                for key in got
            }

    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_step_rk4(self, count, form):
        grid = Grid1D(n=64, length=2 * np.pi)
        state = CHState(t=0.0, u=Field(grid, 0.1 * np.sin(grid.x)))
        params = CHParams(kappa=0.2, dt=0.01, t_end=1.0)
        got = count(lambda: step_rk4(state, params, form=form))
        assert got == {
            key: self.PER_STEP[form][key] + self.STEP_FIXED[key] for key in got
        }


def seed_tendency_nonlocal(grid, uh, kappa, dealias_on):
    """The nonlocal stage kernel as first written: products masked, then
    combined with 2*kappa*uh, multiplied by ik/(1+k^2) and negated."""
    u_ux = np.fft.irfft(uh * grid.deriv_symbols[:2], grid.n)
    u, ux = u_ux
    products = np.fft.rfft(np.stack((u * ux, u * u + 0.5 * ux * ux)))
    if dealias_on:
        products *= grid.dealias_mask
    adv, q = products
    q += (2.0 * kappa) * uh
    q *= grid.ik * grid.helmholtz_symbol
    q += adv
    return -q, u_ux


def seed_tendency_local(grid, uh, kappa, dealias_on):
    """The local stage kernel as first written: product masked, then
    2*kappa*ik*uh subtracted and the Helmholtz symbol applied."""
    derivs = np.fft.irfft(uh * grid.deriv_symbols, grid.n)
    u, ux, uxx, uxxx = derivs
    quad = np.fft.rfft(-3.0 * u * ux + 2.0 * ux * uxx + u * uxxx)
    if dealias_on:
        quad *= grid.dealias_mask
    quad -= (2.0 * kappa) * grid.ik * uh
    quad *= grid.helmholtz_symbol
    return quad, derivs[:2]


SEED_TENDENCY = {"nonlocal": seed_tendency_nonlocal, "local": seed_tendency_local}


def seed_evolve_spectrum(u0, params, form):
    """Final half spectrum of a march with the seed kernels and the
    out-of-place RK4 combination, from the same initial projection."""
    grid, dt = u0.grid, params.dt
    uh = np.fft.rfft(u0.values)
    if params.dealias:
        uh *= grid.dealias_mask

    def stage(v):
        return SEED_TENDENCY[form](grid, v, params.kappa, params.dealias)[0]

    for _ in range(params.n_steps):
        k1 = stage(uh)
        k2 = stage(uh + (0.5 * dt) * k1)
        k3 = stage(uh + (0.5 * dt) * k2)
        k4 = stage(uh + dt * k3)
        uh = uh + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return uh


class TestFoldedStage:
    """The stage kernels fold the sign and the Helmholtz symbol into
    multipliers built once per run, and read and return only the band of
    modes the march keeps (m <= n/3 when dealiasing is on).  On the states a
    march visits that is exact: they must give the first modes of what the
    seed kernels give on the whole half spectrum, and the seed kernels must
    leave every other mode 0."""

    def state(self, n, dealias_on):
        grid = Grid1D(n=n, length=2 * np.pi)
        rng = np.random.default_rng(n + 1)
        u = 0.4 + random_band_limited(grid, max_mode=n // 2 - 1, rng=rng, decay=2.0)
        uh = np.fft.rfft(u)
        if dealias_on:
            uh *= grid.dealias_mask
        return grid, uh

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_matches_seed_kernel(self, n, dealias_on, kappa, form):
        grid, uh = self.state(n, dealias_on)
        band = n // 3 + 1 if dealias_on else n // 2 + 1
        tendency = wavelab.ch._rhs_form(form)(grid, kappa, dealias_on)
        got, got_u_ux = tendency(uh[:band])
        want, want_u_ux = SEED_TENDENCY[form](grid, uh, kappa, dealias_on)
        np.testing.assert_array_equal(got_u_ux, want_u_ux)
        assert got.shape == (band,)
        assert np.all(want[band:] == 0)
        if kappa == 0.0:
            np.testing.assert_array_equal(got, want[:band])
        else:
            assert np.max(np.abs(got - want[:band])) <= 1e-14 * np.max(np.abs(grid.k_half))

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_evolve_matches_seed_march(self, dealias_on, kappa, form):
        # n = 96 has a whole n/3 (band 33), n = 100 does not (band 34)
        for n in (256, 96, 100):
            grid = Grid1D(n=n, length=2 * np.pi)
            rng = np.random.default_rng(3)
            u0 = Field(grid, 0.4 + random_band_limited(grid, max_mode=n // 2 - 1, rng=rng, decay=2.0))
            params = CHParams(kappa=kappa, dt=2e-4, t_end=4e-3, dealias=dealias_on)
            want = np.fft.irfft(seed_evolve_spectrum(u0, params, form), grid.n)
            np.testing.assert_array_equal(evolve(u0, params, form=form).final.u.values, want)

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("form", ["nonlocal", "local"])
    def test_dealiased_state_stays_in_band(self, monkeypatch, n, form):
        # every spectrum a stage sees: the state of each step and the three
        # intermediate RK4 states
        seen = []
        build = wavelab.ch._RHS_FORMS[form]

        def recording(grid, kappa, dealias_on):
            tendency = build(grid, kappa, dealias_on)

            def record(uh):
                seen.append(uh.copy())
                return tendency(uh)

            return record

        monkeypatch.setitem(wavelab.ch._RHS_FORMS, form, recording)
        grid = Grid1D(n=n, length=2 * np.pi)
        rng = np.random.default_rng(n + 2)
        u0 = Field(grid, 0.4 + random_band_limited(grid, max_mode=n // 2 - 1, rng=rng, decay=2.0))
        steps = 5
        evolve(u0, CHParams(kappa=0.3, dt=2e-4, t_end=steps * 2e-4), form=form)
        assert len(seen) == 4 * steps
        for uh in seen:
            assert uh.shape == (n // 3 + 1,)
            assert np.any(uh != 0)


class TestCSV:
    def test_invariant_history_round_trip(self, tmp_path):
        grid = Grid1D(n=64, length=2 * np.pi)
        u0 = Field(grid, 0.1 * np.sin(grid.x))
        res = evolve(u0, CHParams(kappa=0.2, dt=0.01, t_end=0.1, record_every=5))
        path = tmp_path / "invariants.csv"
        invariants_to_csv(res, path)
        text = path.read_text().splitlines()
        assert text[0] == "t,H0,H1,H2"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], res.times, rtol=1e-16)
        np.testing.assert_allclose(data[:, 1:], res.invariants, rtol=1e-16)

    def test_bytes_match_per_cell_writer(self, tmp_path):
        grid = Grid1D(n=16, length=2 * np.pi)
        rng = np.random.default_rng(5)
        inv = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-20, 20, size=(5, 3))
        inv[0] = [-0.0, 1e-300, 1e300]
        inv[1] = [-1e300, -1e-300, 0.0]
        res = CHResult(
            final=CHState(t=1.0, u=Field(grid, np.zeros(grid.n))),
            times=np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1.0 / 3.0]),
            invariants=inv,
            snapshots=(),
        )
        invariants_to_csv(res, tmp_path / "new.csv")
        # the per-cell f-string writer that invariants_to_csv replaced
        with open(tmp_path / "old.csv", "w", encoding="ascii") as fh:
            fh.write("t,H0,H1,H2\n")
            for t, (h0, h1, h2) in zip(res.times, res.invariants):
                fh.write(f"{t:.17g},{h0:.17g},{h1:.17g},{h2:.17g}\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # 150 rows: two whole 64-row chunks and a partial one
    def test_bytes_match_per_cell_writer_over_chunks(self, tmp_path):
        grid = Grid1D(n=16, length=2 * np.pi)
        rng = np.random.default_rng(8)
        inv = rng.normal(size=(150, 3)) * 10.0 ** rng.integers(-20, 20, size=(150, 3))
        inv[70] = [-0.0, 1e-300, -1e300]
        res = CHResult(
            final=CHState(t=1.0, u=Field(grid, np.zeros(grid.n))),
            times=np.cumsum(rng.uniform(0.0, 0.1, size=150)),
            invariants=inv,
            snapshots=(),
        )
        invariants_to_csv(res, tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w", encoding="ascii") as fh:
            fh.write("t,H0,H1,H2\n")
            for t, (h0, h1, h2) in zip(res.times, res.invariants):
                fh.write(f"{t:.17g},{h0:.17g},{h1:.17g},{h2:.17g}\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
