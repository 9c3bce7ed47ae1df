"""Tests for the discrete variational calculus on diffeomorphism paths."""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import wavelab.variational as variational
from wavelab.ch import CHParams, evolve
from wavelab.grid import Field, Grid1D, deriv
from wavelab.variational import (
    BumpPerturbationSpec,
    DiffeoPath,
    PathPerturbation,
    SinusoidalPathSpec,
    action,
    compose_with_diffeo,
    el_residual,
    first_variation_el,
    first_variation_fd,
    first_variation_midpoint,
    inverse_diffeo,
    periodic_interp,
    spatial_velocity,
    uniform_times,
    verify_variational_identity,
)

GRID = Grid1D(n=256, length=2 * np.pi)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def identity_path(grid, times):
    return DiffeoPath(grid=grid, times=times, gamma=np.tile(grid.x, (len(times), 1)))


def translation_path(grid, times, c):
    gamma = np.array([grid.x + c * t for t in times])
    return DiffeoPath(grid=grid, times=times, gamma=gamma)


class TestDiffeoPath:
    def test_psi_is_the_periodic_displacement(self):
        times = uniform_times(1.0, 4)
        psi_rows = np.array([0.1 * t * np.sin(GRID.x) for t in times])
        path = DiffeoPath(grid=GRID, times=times, gamma=GRID.x[None, :] + psi_rows)
        np.testing.assert_allclose(path.psi, psi_rows, atol=1e-15)
        assert path.n_intervals == 4
        assert path.dt == pytest.approx(0.25)

    def test_nonmonotone_level_rejected(self):
        times = uniform_times(1.0, 4)
        gamma = np.tile(GRID.x, (5, 1)).astype(float)
        gamma[2] = GRID.x + 1.2 * np.sin(GRID.x)  # slope 1 + 1.2 cos < 0 somewhere
        with pytest.raises(ValueError, match="diffeomorphism"):
            DiffeoPath(grid=GRID, times=times, gamma=gamma)

    def test_nonuniform_times_rejected(self):
        # the spacing is checked relative to the step, however small the
        # step; the old check accepted the infinite times with a RuntimeWarning
        for times in ([0.0, 0.3, 1.0], [0.0, 1e-15, 5e-15], [-np.inf, 0.0, np.inf]):
            with pytest.raises(ValueError, match="times must be .* increasing by equal steps"):
                DiffeoPath(grid=GRID, times=times, gamma=np.tile(GRID.x, (3, 1)))

    def test_tiny_uniform_steps_accepted(self):
        times = uniform_times(1e-300, 4)
        path = DiffeoPath(grid=GRID, times=times, gamma=np.tile(GRID.x, (5, 1)))
        assert path.dt == times[1]

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="at least 2 time intervals"):
            uniform_times(1.0, 1)
        with pytest.raises(ValueError, match="at least 3 levels"):
            DiffeoPath(grid=GRID, times=[0.0, 1.0], gamma=np.tile(GRID.x, (2, 1)))

    def test_shape_mismatch_rejected(self):
        times = uniform_times(1.0, 4)
        with pytest.raises(ValueError):
            DiffeoPath(grid=GRID, times=times, gamma=np.tile(GRID.x, (4, 1)))


class TestPathPerturbation:
    def test_nonzero_endpoint_rejected(self):
        times = uniform_times(1.0, 4)
        phi = np.ones((5, GRID.n))
        with pytest.raises(ValueError, match="vanish"):
            PathPerturbation(grid=GRID, times=times, phi=phi)

    def test_spec_builds_exact_zero_endpoints(self):
        rng = np.random.default_rng(3)
        times = uniform_times(1.0, 8)
        pert = BumpPerturbationSpec.random(rng).build(GRID, times)
        assert np.all(pert.phi[0] == 0.0)
        assert np.all(pert.phi[-1] == 0.0)
        assert np.max(np.abs(pert.phi[4])) > 0.0

    def test_perturbed_path_error_mentions_eps(self):
        times = uniform_times(1.0, 8)
        path = identity_path(GRID, times)
        phi = np.zeros((9, GRID.n))
        phi[1:-1] = np.sin(GRID.x)  # slope 1 + 2 cos x < 0 at eps = 2
        pert = PathPerturbation(grid=GRID, times=times, phi=phi)
        with pytest.raises(ValueError, match="eps=2"):
            path.perturbed(pert, 2.0)

    @pytest.mark.parametrize(
        "grid, times",
        [(Grid1D(64, 2 * np.pi), uniform_times(2.0, 8)), (Grid1D(64, 3.0), uniform_times(1.0, 8))],
        ids=["other_times", "other_grid"],
    )
    @pytest.mark.parametrize(
        "route",
        [
            lambda path, pert: first_variation_fd(path, pert, 1e-3),
            first_variation_midpoint,
            first_variation_el,
            verify_variational_identity,
        ],
        ids=["fd", "midpoint", "el", "verify"],
    )
    def test_every_route_rejects_a_mismatched_perturbation(self, grid, times, route):
        rng = np.random.default_rng(5)
        path = SinusoidalPathSpec.random(rng).build(Grid1D(64, 2 * np.pi), uniform_times(1.0, 8))
        pert = BumpPerturbationSpec.random(rng).build(grid, times)
        with pytest.raises(ValueError, match="grid and times of the path"):
            route(path, pert)


def breaking_variation(case):
    """A path, a variation and an eps at which gamma + eps*phi or
    gamma - eps*phi is no diffeomorphism, and the words that
    ``path.perturbed`` names it with, on 9 levels of 64 points."""
    grid = Grid1D(n=64, length=2 * np.pi)
    times = uniform_times(1.0, 8)
    x = grid.x
    path = identity_path(grid, times)
    bent = "path is not a diffeomorphism: min d(gamma)/dx = {} at time level {}".format
    phi = np.zeros((9, grid.n))
    if case == "interior, plus":  # 1 + 2 cos x at level 5
        phi[5] = np.sin(x)
        eps, words = 2.0, "eps=2.0: " + bent(-1, 5)
    elif case == "interior, minus only":  # 1 - 0.1 cos x and 1 + 1.1 cos x at level 3
        path = DiffeoPath(grid=grid, times=times, gamma=np.tile(x + 0.5 * np.sin(x), (9, 1)))
        phi[3] = -0.3 * np.sin(x)
        eps, words = 2.0, "eps=-2.0: " + bent(-0.1, 3)
    elif case.startswith("end"):
        # phi is constant in x inside, so only an end level can break, with
        # 1 + 15 cos 3x; its end oscillation is within the 1e-12 allowance
        level = 0 if case == "end 0" else 8
        phi[1:-1] = 1e-12
        phi[level] = 5e-13 * np.sin(3.0 * x)
        eps, words = 1e13, "eps=10000000000000.0: " + bent(-14, level)
    else:  # non-finite: level 2 bends and level 6 overflows, which is named first
        phi[2] = 0.1 * np.sin(x)
        phi[6] = 2.0 * np.sin(x)
        eps, words = 1e308, "eps=1e+308: gamma has 18 non-finite entries"
    return path, PathPerturbation(grid=grid, times=times, phi=phi), eps, words


class TestVariationRejection:
    """The FD route tests the varied levels itself and hands a variation
    that fails to path.perturbed(pert, +-eps), which rules on it: the route
    raises exactly its error, same first level, same message."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "case", ["interior, plus", "interior, minus only", "end 0", "end K", "non-finite"]
    )
    def test_fd_route_rejects_as_perturbed_does(self, monkeypatch, case):
        path, pert, eps, words = breaking_variation(case)
        with pytest.raises(ValueError) as expected:
            path.perturbed(pert, eps)
            path.perturbed(pert, -eps)
        assert str(expected.value) == f"variation failed at {words}"
        for _ in forced_block_rows(monkeypatch, path.grid, len(path.times)):
            with pytest.raises(ValueError) as got:
                first_variation_fd(path, pert, eps)
            assert str(got.value) == str(expected.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "case", ["interior, plus", "interior, minus only", "end 0", "end K", "non-finite"]
    )
    def test_fd_route_hands_a_failed_variation_to_perturbed(self, monkeypatch, case):
        path, pert, eps, words = breaking_variation(case)
        sign = -1.0 if case == "interior, minus only" else 1.0
        calls = []
        perturbed = DiffeoPath.perturbed

        def recording(self, pert, eps):
            calls.append((self, pert, eps))
            return perturbed(self, pert, eps)

        monkeypatch.setattr(DiffeoPath, "perturbed", recording)
        with pytest.raises(ValueError, match="variation failed at") as got:
            first_variation_fd(path, pert, eps)
        assert str(got.value) == f"variation failed at {words}"
        assert len(calls) == 1
        assert calls[0][0] is path and calls[0][1] is pert
        assert same_bits(calls[0][2], sign * eps)

    def test_sample_config_at_eps_100_is_rejected_as_perturbed_does(self):
        grid = Grid1D(n=256, length=2 * np.pi)
        times = uniform_times(1.0, 64)
        rng = np.random.default_rng(42)
        path = SinusoidalPathSpec.random(rng).build(grid, times)
        pert = BumpPerturbationSpec.random(rng).build(grid, times)
        with pytest.raises(ValueError) as expected:
            path.perturbed(pert, 100.0)
        with pytest.raises(ValueError) as got:
            first_variation_fd(path, pert, 100.0)
        assert str(got.value) == str(expected.value) == (
            "variation failed at eps=100.0: path is not a diffeomorphism: "
            "min d(gamma)/dx = -0.0764 at time level 9"
        )


class TestInverseDiffeo:
    def test_identity_and_translation_are_exact(self):
        assert np.max(np.abs(inverse_diffeo(GRID, GRID.x) - GRID.x)) < 1e-12
        shifted = inverse_diffeo(GRID, GRID.x + 0.37)
        assert np.max(np.abs(shifted - (GRID.x - 0.37))) < 1e-12

    @pytest.mark.parametrize("n", [64, 256])
    def test_identity_inverts_to_the_grid_bit_for_bit(self, n):
        # Newton starts from the samples, where the interpolant is exact
        grid = Grid1D(n=n, length=2 * np.pi)
        assert np.array_equal(inverse_diffeo(grid, grid.x), grid.x)

    def test_matches_rootfinder_on_analytic_map(self):
        gamma = GRID.x + 0.3 * np.sin(GRID.x)
        ours = inverse_diffeo(GRID, gamma)
        oracle = np.array(
            [
                brentq(lambda s, xt=xt: s + 0.3 * np.sin(s) - xt, xt - 1.0, xt + 1.0)
                for xt in GRID.x
            ]
        )
        assert np.max(np.abs(ours - oracle)) < 2e-6

    def test_newton_residual_tolerance(self):
        gamma = GRID.x + 0.2 * np.sin(2 * GRID.x + 0.4)
        s = inverse_diffeo(GRID, gamma)
        # the inverse is defined on the interpolant; composing the sampled
        # map with its inverse must close to the Newton tolerance
        from scipy.interpolate import PchipInterpolator

        L = GRID.length
        xe = np.concatenate([GRID.x - L, GRID.x, GRID.x + L])
        ge = np.concatenate([gamma - L, gamma, gamma + L])
        assert np.max(np.abs(PchipInterpolator(xe, ge)(s) - GRID.x)) <= 1e-12


class TestPeriodicInterp:
    def test_reproduces_band_limited_function(self):
        values = np.sin(3 * GRID.x + 0.2)
        pts = np.linspace(-np.pi, np.pi, 41) + 0.013
        out = periodic_interp(GRID, values, pts)
        assert np.max(np.abs(out - np.sin(3 * pts + 0.2))) < 1e-6

    def test_wraps_points_outside_domain(self):
        values = np.cos(GRID.x)
        out = periodic_interp(GRID, values, np.array([7.0]))  # 7 - 2 pi inside
        assert out[0] == pytest.approx(np.cos(7.0), abs=1e-8)


class TestSpatialVelocity:
    def test_rigid_translation_gives_constant_velocity(self):
        times = uniform_times(1.0, 8)
        path = translation_path(GRID, times, 0.4)
        u = spatial_velocity(path, 3)
        assert np.max(np.abs(u.values - 0.4)) < 1e-12

    def test_against_rootfinder_oracle(self):
        # gamma(t, x) = x + (0.04 + 0.025 t) sin(2x + 0.3): linear in t, so
        # the centered time difference is exact and only interpolation error
        # remains
        dt = 5e-4
        times = uniform_times(2 * dt, 2)

        def a(t):
            return 0.04 + 0.025 * t

        gamma = np.array([GRID.x + a(t) * np.sin(2 * GRID.x + 0.3) for t in times])
        path = DiffeoPath(grid=GRID, times=times, gamma=gamma)
        u = spatial_velocity(path, 1).values
        t1 = times[1]
        oracle = np.empty(GRID.n)
        for j, xt in enumerate(GRID.x):
            s = brentq(
                lambda s, xt=xt: s + a(t1) * np.sin(2 * s + 0.3) - xt,
                xt - 1.0,
                xt + 1.0,
            )
            oracle[j] = 0.025 * np.sin(2 * s + 0.3)
        assert np.max(np.abs(u - oracle)) < 2e-6

    def test_boundary_levels_rejected(self):
        times = uniform_times(1.0, 8)
        path = translation_path(GRID, times, 0.1)
        with pytest.raises(IndexError):
            spatial_velocity(path, 0)
        with pytest.raises(IndexError):
            spatial_velocity(path, 8)


class TestAction:
    def test_identity_path_has_zero_action(self):
        times = uniform_times(1.0, 8)
        assert action(identity_path(GRID, times)) == 0.0

    def test_rigid_translation_closed_form(self):
        # u = c everywhere: a = (1/2) c^2 L T
        c, T = 0.4, 1.0
        times = uniform_times(T, 16)
        path = translation_path(GRID, times, c)
        expected = 0.5 * c * c * GRID.length * T
        assert abs(action(path) - expected) <= 1e-10

    def test_rigid_translation_eta_variant(self):
        c, c0, T = 0.4, 0.3, 1.0
        times = uniform_times(T, 16)
        path = translation_path(GRID, times, c)
        expected = 0.5 * (c + c0) ** 2 * GRID.length * T
        assert abs(action(path, c0) - expected) <= 1e-10


def eulerian_action(path, c0):
    """The action in the Eulerian frame: u = gamma_t o gamma^{-1} pulled
    back per block by the midpoint and EL routes' generator, then
    (1/2) iint ((u + c0)^2 + u_x^2) with the same time weights."""
    grid = path.grid
    ints = np.empty(len(path.times))
    for b, pulled in variational._interior_blocks(path, 1, path.n_intervals):
        u = pulled[:, 0]
        ux = grid.deriv_values(u)
        ints[b] = grid.integrate_values((u + c0) ** 2 + ux * ux)
    return float(sum(variational._time_weights(path.n_intervals, path.dt) * 0.5 * ints[1:-1]))


class TestLagrangianAction:
    """``action`` substitutes x = gamma(t, X); the Eulerian action, which
    interpolates u onto the grid, must converge onto it as n doubles."""

    @pytest.mark.parametrize(
        "amplitude, c0, action_gap_256, fd_gap_256",
        # measured at n = 256: 1.96e-8 and 1.49e-7; 2.89e-9 and 1.34e-6
        [(0.05, 0.0, 5e-8, 4e-7), (0.2, 0.5, 1e-8, 4e-6)],
    )
    def test_eulerian_action_converges_onto_it(self, amplitude, c0, action_gap_256, fd_gap_256):
        gaps = []
        for n in (64, 128, 256, 512):
            rng = np.random.default_rng(7)
            grid = Grid1D(n=n, length=2 * np.pi)
            times = uniform_times(1.0, 64)
            path = SinusoidalPathSpec.random(rng, amplitude=amplitude).build(grid, times)
            pert = BumpPerturbationSpec.random(rng).build(grid, times)
            lagrangian = action(path, c0)
            d_fd = first_variation_fd(path, pert, 1e-3, c0)
            d_eulerian = (
                eulerian_action(path.perturbed(pert, 1e-3), c0)
                - eulerian_action(path.perturbed(pert, -1e-3), c0)
            ) / 2e-3
            gaps.append((
                abs(eulerian_action(path, c0) - lagrangian) / abs(lagrangian),
                abs(d_eulerian - d_fd) / abs(d_fd),
            ))
        # each doubling of n cuts both gaps at least 3x (measured 4.0x to 83x)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine[0] <= coarse[0] / 3.0 and fine[1] <= coarse[1] / 3.0, gaps
        assert gaps[2][0] <= action_gap_256 and gaps[2][1] <= fd_gap_256, gaps

    def test_fd_route_neither_inverts_nor_interpolates(self, monkeypatch):
        path, pert = seeded_pair(Grid1D(n=64, length=2 * np.pi), uniform_times(1.0, 12))
        expected = first_variation_fd(path, pert, 1e-3, 0.5), action(path, 0.5)

        def forbidden(*args, **kwargs):
            raise AssertionError("the FD route pulled a field back through gamma^{-1}")

        monkeypatch.setattr(variational, "inverse_diffeo", forbidden)
        monkeypatch.setattr(variational, "periodic_interp", forbidden)
        assert (first_variation_fd(path, pert, 1e-3, 0.5), action(path, 0.5)) == expected


class TestELResidual:
    def make_solver_triple(self, kappa):
        grid = Grid1D(n=256, length=2 * np.pi)
        u0 = Field(grid, 0.2 * np.sin(grid.x))
        params = CHParams(kappa=kappa, dt=1e-3, t_end=0.05, snapshot_every=1,
                          record_every=50)
        res = evolve(u0, params)
        snaps = res.snapshots
        fields = [Field(grid, vals) for _, vals in snaps[20:23]]
        return fields, 1e-3

    def test_solver_solution_has_small_residual(self):
        (up, um, un), dt = self.make_solver_triple(kappa=0.3)
        r = el_residual(up, um, un, dt, kappa=0.3)
        assert np.max(np.abs(r.values)) <= 1e-5

    def test_dispersion_term_enters_exactly(self):
        (up, um, un), dt = self.make_solver_triple(kappa=0.0)
        c0 = 0.3
        r0 = el_residual(up, um, un, dt, kappa=0.0)
        rc = el_residual(up, um, un, dt, kappa=c0)
        gain = rc.values - r0.values
        expected = 2.0 * c0 * deriv(um).values
        scale = np.max(np.abs(rc.values)) + np.max(np.abs(expected))
        assert np.max(np.abs(gain - expected)) <= 1e-13 * max(scale, 1.0)

    def test_mismatched_grids_rejected(self):
        g1 = Grid1D(n=64, length=2 * np.pi)
        g2 = Grid1D(n=128, length=2 * np.pi)
        f1 = Field(g1, np.sin(g1.x))
        f2 = Field(g2, np.sin(g2.x))
        with pytest.raises(ValueError):
            el_residual(f1, f2, f1, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_step_rejected(self, dt):
        # an infinite step once gave a residual with u_t = 0, and a zero or
        # NaN step blamed the field's entries
        grid = Grid1D(n=64, length=2 * np.pi)
        u_sin, u_cos = Field(grid, np.sin(grid.x)), Field(grid, np.cos(grid.x))
        with pytest.raises(ValueError, match="dt must be strictly positive"):
            el_residual(u_sin, u_cos, u_sin, dt)

    @pytest.mark.parametrize("kappa", [np.inf, -np.inf, np.nan])
    def test_non_finite_kappa_rejected(self, kappa):
        # named before the residual, whose 64 entries it would make non-finite
        grid = Grid1D(n=64, length=2 * np.pi)
        u_sin, u_cos = Field(grid, np.sin(grid.x)), Field(grid, np.cos(grid.x))
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {kappa}$"):
            el_residual(u_sin, u_cos, u_sin, 1e-3, kappa=kappa)

    @pytest.mark.parametrize("kappa", [-1e300, -0.3, 0.0, 1e300])
    def test_finite_kappa_of_either_sign_is_valid(self, kappa):
        grid = Grid1D(n=64, length=2 * np.pi)
        u_sin, u_cos = Field(grid, np.sin(grid.x)), Field(grid, np.cos(grid.x))
        r = el_residual(u_sin, u_cos, u_sin, 1e-3, kappa=kappa)
        assert np.all(np.isfinite(r.values))


def seeded_pair(grid, times, seed=42):
    rng = np.random.default_rng(seed)
    path = SinusoidalPathSpec.random(rng, amplitude=0.05).build(grid, times)
    pert = BumpPerturbationSpec.random(rng, amplitude=0.1).build(grid, times)
    return path, pert


class TestFirstVariationIdentity:
    def test_three_routes_agree_at_working_resolution(self):
        times = uniform_times(1.0, 32)
        path, pert = seeded_pair(GRID, times)
        rep = verify_variational_identity(path, pert, eps=1e-3)
        assert rep["rel_fd_mid"] <= 1e-3
        assert rep["rel_fd_el"] <= 5e-3

    def test_mismatch_is_second_order_in_dt(self):
        mism_mid, mism_el = [], []
        for K in (16, 32, 64):
            times = uniform_times(1.0, K)
            path, pert = seeded_pair(GRID, times)
            rep = verify_variational_identity(path, pert, eps=1e-3)
            mism_mid.append(rep["rel_fd_mid"])
            mism_el.append(rep["rel_fd_el"])
        for seq in (mism_mid, mism_el):
            orders = [np.log2(seq[i] / seq[i + 1]) for i in range(2)]
            assert min(orders) >= 1.9, seq

    def test_fd_derivative_is_second_order_in_eps(self):
        times = uniform_times(1.0, 32)
        path, pert = seeded_pair(GRID, times)
        ds = [first_variation_fd(path, pert, eps) for eps in (4e-2, 2e-2, 1e-2)]
        order = np.log2(abs(ds[0] - ds[1]) / abs(ds[1] - ds[2]))
        assert 1.9 <= order <= 2.1

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan])
    def test_fd_rejects_a_non_positive_eps(self, eps):
        path, pert = seeded_pair(GRID, uniform_times(1.0, 4))
        with pytest.raises(ValueError, match="eps must be strictly positive"):
            first_variation_fd(path, pert, eps)

    def test_identity_path_variation_vanishes(self):
        times = uniform_times(1.0, 64)
        path = identity_path(GRID, times)
        pert = BumpPerturbationSpec.random(
            np.random.default_rng(5), amplitude=0.01
        ).build(GRID, times)
        assert abs(first_variation_fd(path, pert, 1e-3)) <= 1e-10
        assert first_variation_el(path, pert) == 0.0
        assert abs(first_variation_midpoint(path, pert)) <= 1e-15

    def test_eta_variant_identity_holds(self):
        times = uniform_times(1.0, 64)
        path, pert = seeded_pair(GRID, times)
        rep = verify_variational_identity(path, pert, eps=1e-3, c0=0.3)
        assert rep["rel_fd_el"] <= 1e-3
        assert rep["rel_fd_mid"] <= 1e-3
        assert rep["c0"] == 0.3

    def test_too_few_intervals_rejected(self):
        times = uniform_times(1.0, 2)
        path, pert = seeded_pair(GRID, times)
        with pytest.raises(ValueError):
            first_variation_el(path, pert)
        with pytest.raises(ValueError):
            first_variation_midpoint(path, pert)


def flow_map_path(u0, kappa, t_total, big_k):
    """The Lagrangian path of a CH solution: gamma_t = u(t, gamma), gamma(0) = id,
    by RK4 at the path step T/K on the solver's levels at half steps, which
    are the RK4 midpoints; u(gamma) by periodic_interp."""
    grid, dt = u0.grid, t_total / big_k
    params = CHParams(kappa=kappa, dt=0.5 * dt, t_end=t_total, record_every=10**6,
                      snapshot_every=1)
    u_half = [values for _, values in evolve(u0, params).snapshots]
    gamma = np.empty((big_k + 1, grid.n))
    gamma[0] = grid.x

    def u(j, y):
        return periodic_interp(grid, u_half[j], y)

    for k in range(big_k):
        y = gamma[k]
        k1 = u(2 * k, y)
        k2 = u(2 * k + 1, y + 0.5 * dt * k1)
        k3 = u(2 * k + 1, y + 0.5 * dt * k2)
        k4 = u(2 * k + 2, y + dt * k3)
        gamma[k + 1] = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DiffeoPath(grid=grid, times=uniform_times(t_total, big_k), gamma=gamma)


class TestCriticality:
    """The paper's claim on the lab's own solver: the flow map of a CH
    solution is a critical point of the discrete action, so its first
    variation falls at the order of the discretisation, while a path that
    solves nothing keeps a first variation of order one."""

    GRID = Grid1D(n=128, length=2 * np.pi)

    def worst(self, path, kappa, seeds):
        """Largest |D_fd| and |D_el| of ``path`` over bumps drawn from ``seeds``."""
        reps = [
            verify_variational_identity(
                path, BumpPerturbationSpec.random(np.random.default_rng(s)).build(
                    self.GRID, path.times), c0=kappa)
            for s in seeds
        ]
        return max(abs(r["D_fd"]) for r in reps), max(abs(r["D_el"]) for r in reps)

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_solver_trajectory_is_critical(self, kappa):
        grid = self.GRID
        u0 = Field(grid, 0.3 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x + 0.4))
        d_fd, d_el = [], []
        for big_k in (32, 64, 128):
            fd, el = self.worst(flow_map_path(u0, kappa, 1.0, big_k), kappa, (1, 2, 3))
            d_fd.append(fd)
            d_el.append(el)
        orders = np.log2(np.divide(d_fd[:-1], d_fd[1:]))
        assert np.all(orders >= 1.9), d_fd
        # the EL route reads the CH residual itself; no order is pinned on it
        assert np.all(np.multiply(d_el, 10.0) <= d_fd), (d_fd, d_el)
        times = uniform_times(1.0, 128)
        non_critical = []
        for s in (1, 7):
            rng = np.random.default_rng(s)
            path = SinusoidalPathSpec.random(rng, amplitude=0.3).build(grid, times)
            pert = BumpPerturbationSpec.random(rng).build(grid, times)
            non_critical.append(abs(verify_variational_identity(path, pert, c0=kappa)["D_fd"]))
        assert d_fd[-1] < 1e-2 * min(non_critical), (d_fd[-1], non_critical)


class TestRightInvariance:
    def test_velocity_and_action_unchanged_by_right_composition(self):
        times = uniform_times(1.0, 16)
        path, _ = seeded_pair(GRID, times)
        chi = GRID.x + 0.1 * np.sin(GRID.x)
        comp = compose_with_diffeo(path, chi)
        u_a = spatial_velocity(path, 8).values
        u_b = spatial_velocity(comp, 8).values
        assert np.max(np.abs(u_a - u_b)) <= 1e-6
        assert abs(action(path) - action(comp)) <= 1e-9

    def test_bad_chi_shape_rejected(self):
        times = uniform_times(1.0, 8)
        path, _ = seeded_pair(GRID, times)
        with pytest.raises(ValueError):
            compose_with_diffeo(path, np.zeros(10))


class TestSpecs:
    def test_path_spec_resamples_consistently(self):
        # n = 128 grid points are a subset of the n = 256 points, and the
        # spec is a closed form, so coarse samples must match exactly
        rng = np.random.default_rng(7)
        spec = SinusoidalPathSpec.random(rng)
        times = uniform_times(1.0, 8)
        fine = spec.build(Grid1D(n=256, length=2 * np.pi), times)
        coarse = spec.build(Grid1D(n=128, length=2 * np.pi), times)
        np.testing.assert_array_equal(coarse.gamma, fine.gamma[:, ::2])

    def test_random_specs_stay_diffeomorphisms(self):
        times = uniform_times(1.0, 6)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            SinusoidalPathSpec.random(rng).build(GRID, times)  # raises if not

    @pytest.mark.parametrize("t_total", [1e-300, 1e-150, 1.0, 3.7, 1e154, 1e300])
    def test_bump_keeps_its_closed_form_at_any_t_total(self, t_total):
        # s = t/T needs no T^2, so neither end of the float range traps
        bump = BumpPerturbationSpec.random(np.random.default_rng(4))
        t = np.linspace(0.0, t_total, 7)[:, None]
        modes = np.zeros(GRID.n)
        for m, (b, c) in enumerate(zip(bump.mode_amps, bump.phases), start=1):
            modes += b * np.sin(2.0 * np.pi * m / GRID.length * GRID.x + c)
        s = t / t_total
        expected = bump.amplitude * (s * (1.0 - s)) * modes
        phi = bump.phi(GRID.x, t, GRID.length, t_total)
        assert np.array_equal(phi, expected)
        assert not np.any(phi[0]) and not np.any(phi[-1])

    def test_bump_is_measured_from_the_first_level(self):
        # s is measured from the first level: shifted times give phi's bits
        bump = BumpPerturbationSpec.random(np.random.default_rng(4))
        times = np.linspace(1.0, 2.0, 9)
        late = bump.build(GRID, times)
        early = bump.build(GRID, times - 1.0)
        assert early.times[0] == 0.0
        assert np.array_equal(late.phi, early.phi)


# --- level-by-level oracle: the routes written one time level at a time ---


def loop_state(path, pert):
    """u and theta level by level, keyed by level; theta is zero at 0 and K."""
    grid, psi, big_k = path.grid, path.psi, path.n_intervals
    u, theta = {}, {0: np.zeros(grid.n), big_k: np.zeros(grid.n)}
    for k in range(1, big_k):
        s = inverse_diffeo(grid, path.gamma[k])
        u[k] = periodic_interp(grid, (psi[k + 1] - psi[k - 1]) / (2.0 * path.dt), s)
        if pert is not None:
            theta[k] = periodic_interp(grid, pert.phi[k], s)
    return u, theta


def loop_weights(big_k, dt):
    w = np.full(big_k - 1, dt)
    w[0] += 0.5 * dt
    w[-1] += 0.5 * dt
    return w


def loop_action(path, c0):
    """The action level by level in Lagrangian coordinates."""
    grid, psi, big_k = path.grid, path.psi, path.n_intervals
    total = 0.0
    for w, k in zip(loop_weights(big_k, path.dt), range(1, big_k)):
        psi_t = (psi[k + 1] - psi[k - 1]) / (2.0 * path.dt)
        g_x = 1.0 + grid.deriv_values(psi[k])
        g_tx = grid.deriv_values(psi_t)
        integrand = (psi_t + c0) ** 2 * g_x + g_tx * g_tx / g_x
        total += w * 0.5 * float(grid.integrate_values(integrand))
    return float(total)


def loop_midpoint(path, pert, c0):
    grid, big_k, dt = path.grid, path.n_intervals, path.dt
    u, theta = loop_state(path, pert)
    total = 0.0
    for w, k in zip(loop_weights(big_k, dt), range(1, big_k)):
        uk, th = u[k], theta[k]
        ux = grid.deriv_values(uk)
        uxx = grid.deriv_values(uk, order=2)
        thx = grid.deriv_values(th)
        thxx = grid.deriv_values(th, order=2)
        th_t = (theta[k + 1] - theta[k - 1]) / (2.0 * dt)
        th_tx = grid.deriv_values(th_t)
        integrand = (uk + c0) * (th_t + uk * thx - th * ux) + ux * (
            th_tx + uk * thxx - th * uxx
        )
        total += w * float(grid.integrate_values(integrand))
    return float(total)


def loop_el(path, pert, c0):
    grid, big_k, dt = path.grid, path.n_intervals, path.dt
    u, theta = loop_state(path, pert)
    total = 0.0
    for k in range(2, big_k - 1):
        residual = el_residual(
            Field(grid, u[k - 1]), Field(grid, u[k]), Field(grid, u[k + 1]), dt, kappa=c0
        )
        total -= dt * float(grid.integrate_values(theta[k] * residual.values))
    return float(total)


def same_bits(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


def mixed_stopping_rows(grid):
    """The identity and two sinusoidal levels of amplitude 0.05 and 0.3, in
    that order: Newton stops them at interpolant evaluations 1, 3 and 4."""
    rng = np.random.default_rng(7)
    times = uniform_times(1.0, 12)
    return np.array([grid.x] + [
        SinusoidalPathSpec.random(rng, amplitude=a).build(grid, times).gamma[5]
        for a in (0.05, 0.3)
    ])


def located_rows(grid, gamma):
    """inverse_diffeo(grid, gamma) and the number of rows that each of its
    interpolant evaluations locates points in."""
    rows = []
    locate = variational._locate

    def counting(g, points):
        rows.append(len(points))
        return locate(g, points)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variational, "_locate", counting)
        out = inverse_diffeo(grid, gamma)
    return out, rows


def regathering_oracle(grid, gamma):
    """inverse_diffeo's Newton loop with every point's cell coefficients
    gathered afresh at each interpolant evaluation, and the number of points
    whose cell moved between evaluations."""
    x = np.broadcast_to(grid.x, gamma.shape).reshape(-1, grid.n)
    cells = variational._pchip_cells(grid, gamma.reshape(x.shape))
    s = 2.0 * x - gamma.reshape(x.shape)
    moves, last = 0, None
    for _ in range(variational._NEWTON_ITERS):
        periods, j, t = variational._locate(grid, s)
        if last is not None:
            moves += np.count_nonzero(j != last)
        last = j
        coef = np.take_along_axis(cells, j[None], axis=-1)
        resid = variational._pchip_value(grid, coef, periods, t) - x
        going = ~(np.max(np.abs(resid), axis=-1) <= variational._NEWTON_TOL)
        if not going.any():
            return s.reshape(gamma.shape), moves
        step = resid / variational._pchip_slope(grid, coef, t)
        step[~going] = 0.0
        s -= step
    raise AssertionError("the oracle did not converge")


def forced_block_rows(monkeypatch, grid, levels):
    """Set the routes' level blocks to one level, three levels (blocks then
    end inside the one-level halos of the midpoint and EL sums) and all
    ``levels`` levels at once, in turn; yield each block's level count."""
    for rows in (1, 3, levels):
        monkeypatch.setattr(variational, "_BLOCK_BYTES", 8 * grid.n * rows)
        yield rows


class TestWholeArrayRoutes:
    """The routes walk the (K+1, n) arrays in blocks of time levels and must
    give the bits of the level-by-level oracle above, the sign of zero
    included, whatever the block size."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("c0", [0.0, 0.5])
    @pytest.mark.parametrize("n_modes", [0, 3])
    def test_routes_equal_level_loops(self, monkeypatch, seed, c0, n_modes):
        grid = Grid1D(n=64, length=2 * np.pi)
        times = uniform_times(1.0, 12)
        rng = np.random.default_rng(seed)
        path = SinusoidalPathSpec.random(rng, n_modes=n_modes).build(grid, times)
        pert = BumpPerturbationSpec.random(rng).build(grid, times)
        eps = 1e-3
        d_fd = (
            loop_action(path.perturbed(pert, eps), c0)
            - loop_action(path.perturbed(pert, -eps), c0)
        ) / (2.0 * eps)
        expected = {
            "D_fd": d_fd,
            "D_mid": loop_midpoint(path, pert, c0),
            "D_el": loop_el(path, pert, c0),
        }
        for _ in forced_block_rows(monkeypatch, grid, len(times)):
            rep = verify_variational_identity(path, pert, eps=eps, c0=c0)
            for key, value in expected.items():
                assert same_bits(rep[key], value), (key, rep[key], value)
            assert same_bits(first_variation_midpoint(path, pert, c0), expected["D_mid"])
            assert same_bits(first_variation_el(path, pert, c0), expected["D_el"])
            assert same_bits(action(path, c0), loop_action(path, c0))
            if n_modes == 0:
                assert same_bits(rep["D_el"], 0.0)

    def test_blocks_of_stopped_and_running_rows_equal_level_loops(self, monkeypatch):
        grid = Grid1D(n=64, length=2 * np.pi)
        times = uniform_times(1.0, 12)
        rows = mixed_stopping_rows(grid)
        assert [len(located_rows(grid, row)[1]) for row in rows] == [1, 3, 4]
        # the levels cycle through the three rows, so every block of three or
        # more levels holds rows that stop at different Newton iterations
        path = DiffeoPath(grid=grid, times=times, gamma=rows[np.arange(len(times)) % 3])
        pert = BumpPerturbationSpec.random(np.random.default_rng(3)).build(grid, times)
        eps, c0 = 1e-3, 0.5
        d_fd = (
            loop_action(path.perturbed(pert, eps), c0)
            - loop_action(path.perturbed(pert, -eps), c0)
        ) / (2.0 * eps)
        expected = {
            "D_fd": d_fd,
            "D_mid": loop_midpoint(path, pert, c0),
            "D_el": loop_el(path, pert, c0),
        }
        u, _ = loop_state(path, None)
        for _ in forced_block_rows(monkeypatch, grid, len(times)):
            rep = verify_variational_identity(path, pert, eps=eps, c0=c0)
            for key, value in expected.items():
                assert same_bits(rep[key], value), (key, rep[key], value)
            assert same_bits(action(path, c0), loop_action(path, c0))
            for k in range(1, path.n_intervals):
                assert np.array_equal(spatial_velocity(path, k).values, u[k]), k

    def test_spatial_velocity_equals_level_loop(self, monkeypatch):
        grid = Grid1D(n=64, length=2 * np.pi)
        path, _ = seeded_pair(grid, uniform_times(1.0, 12))
        u, _ = loop_state(path, None)
        for _ in forced_block_rows(monkeypatch, grid, len(path.times)):
            for k in range(1, path.n_intervals):
                assert np.array_equal(spatial_velocity(path, k).values, u[k]), k

    def test_fd_route_builds_no_path(self, monkeypatch):
        grid = Grid1D(n=64, length=2 * np.pi)
        times = uniform_times(1.0, 12)
        path, pert = seeded_pair(grid, times)
        eps, c0 = 1e-3, 0.5
        d_fd = (
            loop_action(path.perturbed(pert, eps), c0)
            - loop_action(path.perturbed(pert, -eps), c0)
        ) / (2.0 * eps)

        def forbidden(self):
            raise AssertionError("the FD route built a DiffeoPath")

        for _ in forced_block_rows(monkeypatch, grid, len(times)):
            with monkeypatch.context() as patch:
                patch.setattr(DiffeoPath, "__post_init__", forbidden)
                got = first_variation_fd(path, pert, eps, c0)
            assert same_bits(got, d_fd), (got, d_fd)

    def test_interior_state_is_inverted_once_per_level(self, monkeypatch):
        calls = []

        def recording(grid, gamma, *args, **kwargs):
            calls.append(np.array(gamma, ndmin=2))
            return inverse_diffeo(grid, gamma, *args, **kwargs)

        monkeypatch.setattr(variational, "inverse_diffeo", recording)
        big_k = 10
        grid = Grid1D(n=64, length=2 * np.pi)
        path, pert = seeded_pair(grid, uniform_times(1.0, big_k))
        eps = 1e-3
        # the K-1 interior levels of the path that the midpoint and EL routes
        # share; the FD route evaluates its action without gamma^{-1}
        for rows in forced_block_rows(monkeypatch, grid, big_k + 1):
            calls.clear()
            verify_variational_identity(path, pert, eps=eps)
            assert max(len(levels) for levels in calls) <= rows
            assert np.array_equal(np.concatenate(calls), path.gamma[1:-1])

    def test_specs_build_the_rows_of_their_closed_forms(self):
        rng = np.random.default_rng(11)
        times = uniform_times(1.0, 6)
        for n_modes in (0, 3):
            spec = SinusoidalPathSpec.random(rng, n_modes=n_modes)
            rows = np.array([GRID.x + spec.psi(GRID.x, t, GRID.length) for t in times])
            assert np.array_equal(spec.build(GRID, times).gamma, rows)
            bump = BumpPerturbationSpec.random(rng, n_modes=n_modes)
            rows = np.array([bump.phi(GRID.x, t, GRID.length, 1.0) for t in times])
            assert np.array_equal(bump.build(GRID, times).phi, rows)

    def test_periodic_interp_takes_a_stack(self):
        stack = np.random.default_rng(2).standard_normal((2, 3, GRID.n))
        pts = np.linspace(-4.0, 4.0, 17)
        out = periodic_interp(GRID, stack, pts)
        assert out.shape == (2, 3, 17)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], periodic_interp(GRID, stack[i, j], pts))

    def test_compose_equals_level_loop(self):
        path, _ = seeded_pair(GRID, uniform_times(1.0, 8))
        chi = GRID.x + 0.1 * np.sin(GRID.x)
        rows = np.array([chi + periodic_interp(GRID, d, chi) for d in path.psi])
        assert np.array_equal(compose_with_diffeo(path, chi).gamma, rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_slope_rejected(self):
        # finite samples whose spectral derivative overflows to NaN
        times = uniform_times(1.0, 4)
        gamma = GRID.x + 1e308 * np.sin(GRID.x)[None, :] * np.ones((5, 1))
        with pytest.raises(ValueError, match="diffeomorphism.*nan"):
            DiffeoPath(grid=GRID, times=times, gamma=gamma)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_variation_rejected(self):
        path, pert = seeded_pair(Grid1D(n=64, length=2 * np.pi), uniform_times(1.0, 8))
        with pytest.raises(ValueError, match="not finite"):
            verify_variational_identity(path, pert, c0=1e308)


class TestKernelsAgainstScipy:
    """The numpy interpolation kernels against scipy's classes as the oracle."""

    @pytest.mark.parametrize("noise", [False, True])
    def test_periodic_interp_matches_periodic_cubic_spline(self, noise):
        from scipy.interpolate import CubicSpline

        grid = Grid1D(n=64, length=5.0)
        rng = np.random.default_rng(3)
        if noise:
            values = 4.0 * rng.standard_normal((3, 2, grid.n))
        else:
            values = np.array([np.sin(m * 2 * np.pi * grid.x / grid.length + m) for m in (1, 2, 5)])
        # points well outside the period, on both sides, and the grid points
        pts = np.concatenate([rng.uniform(-3 * grid.length, 3 * grid.length, 300), grid.x])
        x_aug = np.append(grid.x, grid.x[0] + grid.length)
        v_aug = np.concatenate([values, values[..., :1]], axis=-1)
        oracle = CubicSpline(x_aug, v_aug, axis=-1, bc_type="periodic")
        expected = oracle((pts - grid.x[0]) % grid.length + grid.x[0])
        out = periodic_interp(grid, values, pts)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(values))

    def test_pchip_matches_scipy_on_the_extension(self):
        from scipy.interpolate import PchipInterpolator

        from wavelab.variational import _locate, _pchip_cells, _pchip_slope, _pchip_value

        grid = Grid1D(n=32, length=2 * np.pi)
        L, h = grid.length, grid.h
        rows = [grid.x + 0.3 * np.sin(grid.x), grid.x + 0.1 * np.cos(3 * grid.x + 1.0)]
        odd = grid.x + 0.2 * np.sin(2 * grid.x)
        odd[5] = odd[4]  # a zero secant
        odd[10] = odd[9] - 0.05  # a negative secant
        rows.append(odd)
        gamma = np.array(rows)
        cells = _pchip_cells(grid, gamma)
        # scipy's end cells use one-sided slopes; stay one cell inside them
        pts = np.linspace(grid.x[0] - L + h, grid.x[0] + 2 * L - 2 * h, 997)
        periods, j, t = _locate(grid, np.tile(pts, (len(gamma), 1)))
        coef = np.take_along_axis(cells, j[None], axis=-1)
        value = _pchip_value(grid, coef, periods, t)
        slope = _pchip_slope(grid, coef, t)
        xe = np.concatenate([grid.x - L, grid.x, grid.x + L])
        for row, val, der in zip(gamma, value, slope):
            ge = np.concatenate([row - L, row, row + L])
            oracle = PchipInterpolator(xe, ge)
            scale = np.max(np.abs(ge))
            assert np.max(np.abs(val - oracle(pts))) <= 1e-13 * scale
            slope_scale = np.max(np.abs(np.diff(ge))) / h
            assert np.max(np.abs(der - oracle.derivative()(pts))) <= 1e-13 * slope_scale
        # flat slopes at both ends of the zero and the negative secant
        assert np.all(cells[2, 2, [4, 5, 9, 10]] == 0.0)


class TestBatchedKernels:
    def test_stacked_inverse_rows_equal_single_rows(self):
        rng = np.random.default_rng(5)
        times = uniform_times(1.0, 12)
        gamma = SinusoidalPathSpec.random(rng, amplitude=0.15).build(GRID, times).gamma
        stack = inverse_diffeo(GRID, gamma)
        assert stack.shape == gamma.shape
        for row, out in zip(gamma, stack):
            assert np.array_equal(out, inverse_diffeo(GRID, row))

    def test_rows_stopping_at_different_iterations_equal_single_rows(self):
        gamma = mixed_stopping_rows(GRID)
        assert [len(located_rows(GRID, row)[1]) for row in gamma] == [1, 3, 4]
        stack, rows_per_eval = located_rows(GRID, gamma)
        # a stopped row takes a zero step, so each evaluation covers every row
        # until the last row stops
        assert rows_per_eval == [3] * 4
        for row, out in zip(gamma, stack):
            assert np.array_equal(out, inverse_diffeo(GRID, row))

    def test_regathering_moved_cells_keeps_the_bits_of_a_fresh_gather(self):
        rng = np.random.default_rng(9)
        wide = SinusoidalPathSpec.random(rng, amplitude=0.3).build(GRID, uniform_times(1.0, 8))
        mixed = mixed_stopping_rows(GRID)
        for gamma in (mixed, wide.gamma, mixed[2]):
            expected, moves = regathering_oracle(GRID, gamma)
            # some point changes cell, so the partial gather runs
            assert moves > 0
            assert np.array_equal(inverse_diffeo(GRID, gamma), expected)

    def test_locate_clamps_its_cell(self):
        from types import SimpleNamespace

        with np.errstate(invalid="ignore"):
            periods, j, t = variational._locate(GRID, np.array([np.nan, np.inf, -np.inf]))
        assert np.all((0 <= j) & (j <= GRID.n - 1))
        assert np.all(np.isnan(t))
        # On a Grid1D, x_0 = -L/2, so a finite point below x_0 lies at least
        # an ulp of x_0 (more than 2^-54 periods) below it and its scaled
        # offset stays below n.  With an origin x_0 = 0, a point 1e-300 below
        # it ends the period before, to rounding, and scales to exactly n.
        origin = SimpleNamespace(x=np.zeros(1), length=GRID.length, n=GRID.n)
        periods, j, t = variational._locate(origin, np.array([-1e-300]))
        assert (periods[0], j[0], t[0]) == (-1.0, GRID.n - 1, 1.0)

    def test_three_interpolant_evaluations_per_block_of_the_sample_config(self, monkeypatch):
        from wavelab.scenarios import load_config

        inputs = load_config(CONFIGS / "variational_check.json").inputs
        path, pert, eps = inputs["path"], inputs["pert"], inputs["eps"]
        evals = []
        locate = variational._locate

        def counting(grid, points):
            evals[-1] += 1
            return locate(grid, points)

        monkeypatch.setattr(variational, "_locate", counting)
        for varied in (path.perturbed(pert, eps), path.perturbed(pert, -eps), path):
            for b in variational._blocks(1, path.n_intervals, path.grid.n):
                evals.append(0)
                inverse_diffeo(path.grid, varied.gamma[b])
        # the start comes from the samples; Newton then takes two steps
        assert evals == [3] * 6

    def test_periodic_interp_takes_points_per_row(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((4, 2, GRID.n))
        pts = rng.uniform(-8.0, 8.0, (4, 1, 9))
        out = periodic_interp(GRID, values, pts)
        assert out.shape == (4, 2, 9)
        for i in range(4):
            for j in range(2):
                assert np.array_equal(out[i, j], periodic_interp(GRID, values[i, j], pts[i, 0]))

    def test_nan_row_raises(self):
        gamma = np.tile(GRID.x + 0.1 * np.sin(GRID.x), (3, 1))
        gamma[1, 7] = np.nan
        with pytest.raises(RuntimeError, match="did not reach 1e-12 in 50 iterations"):
            inverse_diffeo(GRID, gamma)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(variational, "_NEWTON_TOL", 0.0)
        monkeypatch.setattr(variational, "_NEWTON_ITERS", 3)
        with pytest.raises(RuntimeError, match="did not reach 0 in 3 iterations"):
            inverse_diffeo(GRID, GRID.x + 0.3 * np.sin(GRID.x))

    def test_nan_point_gives_nan(self):
        out = periodic_interp(GRID, np.cos(GRID.x), np.array([np.nan, 0.5]))
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(np.cos(0.5), abs=1e-8)

    def test_compose_with_nan_chi_rejected(self):
        path, _ = seeded_pair(GRID, uniform_times(1.0, 4))
        chi = GRID.x.copy()
        chi[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compose_with_diffeo(path, chi)
