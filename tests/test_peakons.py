"""Tests for the interacting-peak particle system and its field samplers."""

from fractions import Fraction

import numpy as np
import pytest

from wavelab import grid
from wavelab.ch import CHParams, evolve, invariants
from wavelab.grid import Field, Grid1D, peak_position
from wavelab.peakons import (
    CollisionError,
    PeakonEnsemble,
    PeakonTrajectory,
    evolve_peakons,
    hamiltonian,
    mollified_field,
    ode_rhs,
    sample_field,
    trajectory_to_csv,
)
from wavelab.peakons import _rhs_values, _sorted_sums


def random_state(rng, n_peaks, min_sep=1e-2):
    """Random ensemble with all pairwise separations above min_sep."""
    while True:
        q = np.sort(rng.uniform(-10.0, 10.0, n_peaks))
        if n_peaks == 1 or np.min(np.diff(q)) > min_sep:
            break
    p = rng.uniform(-2.0, 2.0, n_peaks)
    return PeakonEnsemble(q=q, p=p)


def dense_rhs(q, p):
    """The dense N x N right-hand side: the oracle for the O(N) kernel."""
    d = q[:, None] - q[None, :]
    e = np.exp(-np.abs(d))
    return e @ p, p * ((np.sign(d) * e) @ p)


def kernel_scale(q, p):
    """sum_j |p_j| exp(-|q_i - q_j|), the size of the terms behind row i."""
    return np.exp(-np.abs(q[:, None] - q[None, :])) @ np.abs(p)


def dense_evolve(q, p, dt, t_end, record_every=1, collision_sep=1e-6):
    """Dense-RHS RK4 with an all-pairs collision scan: the reference evolve.

    Returns (times, q rows, p rows, H) or raises CollisionError.
    """
    steps = int(round(t_end / dt))
    iu, ju = np.triu_indices(len(q), k=1)

    def ham(q, p):
        return 0.5 * p @ np.exp(-np.abs(q[:, None] - q[None, :])) @ p

    times, qs, ps, hs = [0.0], [q.copy()], [p.copy()], [ham(q, p)]
    for s in range(1, steps + 1):
        q_prev = q
        k1q, k1p = dense_rhs(q, p)
        k2q, k2p = dense_rhs(q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p = dense_rhs(q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p = dense_rhs(q + dt * k3q, p + dt * k3p)
        q = q + (dt / 6.0) * (k1q + 2.0 * (k2q + k3q) + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
        t = s * dt
        s_old = q_prev[iu] - q_prev[ju]
        s_new = q[iu] - q[ju]
        flipped = s_old * s_new < 0
        if np.any(flipped):
            k = int(np.argmax(flipped))
            frac = abs(s_old[k]) / (abs(s_old[k]) + abs(s_new[k]))
            raise CollisionError(
                (s - 1) * dt + frac * dt, (int(iu[k]), int(ju[k])), float(abs(s_new[k]))
            )
        closing = (np.abs(s_new) < collision_sep) & (p[iu] * p[ju] < 0)
        if np.any(closing):
            k = int(np.argmax(closing))
            raise CollisionError(t, (int(iu[k]), int(ju[k])), float(abs(s_new[k])))
        if s % record_every == 0 or s == steps:
            times.append(t)
            qs.append(q.copy())
            ps.append(p.copy())
            hs.append(ham(q, p))
    return np.array(times), np.array(qs), np.array(ps), np.array(hs)


def kernel_cases(rng, n):
    """Unsorted ensembles of n peaks with mixed-sign momenta: compact, wide
    (span > the kernel's block span), clustered with empty blocks between
    clusters, and spanning one ulp below and one above the 512 block span
    (one block and two), each also with a two-way and a three-way tie."""
    cases = [
        rng.uniform(-10.0, 10.0, n),
        rng.uniform(0.0, 3000.0, n),
        rng.choice([-2500.0, 0.0, 900.0, 4000.0], n) + rng.uniform(-3.0, 3.0, n),
    ]
    if n >= 2:
        for span in (np.nextafter(512.0, 0.0), np.nextafter(512.0, np.inf)):
            q = rng.uniform(0.0, span, n)
            q[rng.permutation(n)[:2]] = (0.0, span)
            cases.append(q - 0.5 * span)
    for q in cases[:]:
        if n >= 2:
            tied = q.copy()
            idx = rng.permutation(n)
            tied[idx[1]] = tied[idx[0]]
            if n >= 5:
                tied[idx[3]] = tied[idx[4]] = tied[idx[2]]
            cases.append(tied)
    return [(q, rng.uniform(-2.0, 2.0, n)) for q in cases]


class TestRHS:
    def test_single_peak_travels_at_its_momentum(self):
        ens = PeakonEnsemble(q=[3.0], p=[1.7])
        qdot, pdot = ode_rhs(ens)
        assert qdot[0] == pytest.approx(1.7, rel=1e-15)
        assert pdot[0] == 0.0

    def test_well_separated_pair_values(self):
        # q = (-5, 5), p = (1, 1): interaction terms carry exp(-10)
        ens = PeakonEnsemble(q=[-5.0, 5.0], p=[1.0, 1.0])
        qdot, pdot = ode_rhs(ens)
        assert qdot[0] == pytest.approx(1.0 + np.exp(-10.0), rel=1e-15)
        assert qdot[1] == pytest.approx(1.0 + np.exp(-10.0), rel=1e-15)
        assert pdot[0] == pytest.approx(-np.exp(-10.0), rel=1e-15)
        assert pdot[1] == pytest.approx(np.exp(-10.0), rel=1e-15)

    def test_momentum_exchange_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ens = random_state(rng, 4)
            _, pdot = ode_rhs(ens)
            assert abs(np.sum(pdot)) < 1e-14

    def test_coincident_peaks_use_sign_zero(self):
        ens = PeakonEnsemble(q=[1.0, 1.0], p=[0.5, -0.5])
        qdot, pdot = ode_rhs(ens)
        assert np.all(pdot == 0.0)
        assert qdot[0] == pytest.approx(0.0, abs=1e-16)


class TestGradientStructure:
    def test_rhs_is_canonical_gradient_of_h(self):
        # independent oracle: central finite differences of H
        rng = np.random.default_rng(23)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            ens = random_state(rng, int(rng.integers(2, 6)), min_sep=1e-3)
            qdot, pdot = ode_rhs(ens)
            for i in range(ens.n):
                for arr, want, sgn in ((ens.p, qdot, 1.0), (ens.q, pdot, -1.0)):
                    bumped = arr.copy()
                    bumped[i] = arr[i] + step
                    hi = (
                        hamiltonian(PeakonEnsemble(q=ens.q, p=bumped))
                        if arr is ens.p
                        else hamiltonian(PeakonEnsemble(q=bumped, p=ens.p))
                    )
                    bumped[i] = arr[i] - step
                    lo = (
                        hamiltonian(PeakonEnsemble(q=ens.q, p=bumped))
                        if arr is ens.p
                        else hamiltonian(PeakonEnsemble(q=bumped, p=ens.p))
                    )
                    fd = sgn * (hi - lo) / (2.0 * step)
                    worst = max(worst, abs(fd - want[i]))
        assert worst <= 1e-8


class TestEvolution:
    def test_three_peak_run_conserves_h_and_p(self):
        ens = PeakonEnsemble(q=[-6.0, 0.0, 5.0], p=[1.2, 0.8, 0.5])
        traj = evolve_peakons(ens, dt=1e-3, t_end=5.0, record_every=100)
        h_drift = np.max(np.abs(traj.H - traj.H[0])) / abs(traj.H[0])
        p_drift = np.max(np.abs(traj.P - traj.P[0])) / abs(traj.P[0])
        assert h_drift <= 1e-8
        assert p_drift <= 1e-13

    def test_overtaking_exchanges_momenta_without_crossing(self):
        # fast peak behind a slow one: labels never cross, the asymptotic
        # speed set {2, 1} is preserved and handed over
        ens = PeakonEnsemble(q=[-10.0, 0.0], p=[2.0, 1.0])
        traj = evolve_peakons(ens, dt=5e-3, t_end=40.0, record_every=20)
        sep = traj.q[:, 1] - traj.q[:, 0]
        assert np.min(sep) > 0.1
        assert traj.p[-1, 0] == pytest.approx(1.0, abs=1e-4)
        assert traj.p[-1, 1] == pytest.approx(2.0, abs=1e-4)
        h_drift = np.max(np.abs(traj.H - traj.H[0])) / abs(traj.H[0])
        assert h_drift <= 1e-9

    def test_recording_layout_and_final(self):
        ens = PeakonEnsemble(q=[-2.0, 3.0], p=[1.0, 0.3])
        traj = evolve_peakons(ens, dt=0.01, t_end=0.1, record_every=4)
        np.testing.assert_allclose(traj.times, [0.0, 0.04, 0.08, 0.1], atol=1e-15)
        assert traj.q.shape == (4, 2)
        assert traj.final.n == 2
        np.testing.assert_array_equal(traj.final.q, traj.q[-1])

    def test_fractional_step_count_rejected(self):
        ens = PeakonEnsemble(q=[0.0], p=[1.0])
        with pytest.raises(ValueError):
            evolve_peakons(ens, dt=0.3, t_end=1.0)


class TestCollision:
    def test_head_on_pair_halts_with_estimate(self):
        ens = PeakonEnsemble(q=[-5.0, 5.0], p=[1.0, -1.0])
        with pytest.raises(CollisionError) as excinfo:
            evolve_peakons(ens, dt=1e-3, t_end=20.0, record_every=100)
        err = excinfo.value
        assert err.pair == (0, 1)
        assert 0.0 < err.t_estimate <= 20.0
        assert "collision" in str(err)

    def test_non_finite_state_halts_with_no_pair(self):
        # one RK4 step of a peak with p = 1e308 overflows q, alone and in an
        # ensemble wider than the kernel's 512 block span
        for q, p in (([0.0], [1e308]), ([0.0, 600.0], [1e308, 1.0])):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(CollisionError, match="ensemble separation nan") as excinfo:
                    evolve_peakons(PeakonEnsemble(q, p), dt=1.0, t_end=1.0)
            assert excinfo.value.pair is None
            assert np.isnan(excinfo.value.separation)

    def test_same_sign_pair_does_not_false_alarm(self):
        ens = PeakonEnsemble(q=[-3.0, 0.0], p=[1.5, 0.5])
        traj = evolve_peakons(ens, dt=5e-3, t_end=10.0, record_every=100)
        assert traj.times[-1] == pytest.approx(10.0)


def exact_det(rows):
    """Determinant of a square list of Fraction rows, by cofactors along
    the first row; the empty matrix has determinant 1."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * exact_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def peakon_closed_form(lam, b, t):
    """Exact N-peakon positions and momenta, each of shape t.shape + (N,)
    with the left peak first (Beals, Sattinger & Szmigielski, Adv. Math. 154,
    2000, in this module's convention u = sum p exp(-|x - q|)).  The spectral
    data are lam_j != 0 and b_j > 0, with b_j(t) = b_j exp(t / lam_j), and
    A_i = sum_j lam_j^i b_j(t); then P = sum 1/lam_j and H = 1/2 sum 1/lam_j^2.
    With the Hankel determinants D(k, l) = det[A_{i+j+l}], i, j < k, and
    D(0, l) = 1, the k-th peak from the right sits at
    q = log(D(k, 0) / D(k-1, 2)) and has p = D(k, 0) D(k-1, 2) / (D(k, 1) D(k-1, 1)).
    The determinants cancel heavily for N >= 3, so they are taken exactly,
    in fractions of the float b_j(t)."""
    lam = np.asarray(lam, dtype=float)
    bt = np.asarray(b, dtype=float) * np.exp(np.multiply.outer(t, 1.0 / lam))
    n = len(lam)
    q, p = np.empty(bt.shape), np.empty(bt.shape)
    for level in np.ndindex(bt.shape[:-1]):
        weights = [Fraction(w) for w in bt[level]]
        a = [sum(Fraction(x) ** i * w for x, w in zip(lam, weights)) for i in range(2 * n)]

        def hankel(k, l):
            return exact_det([a[i + l:i + l + k] for i in range(k)])

        for k in range(1, n + 1):
            top, below = hankel(k, 0), hankel(k - 1, 2)
            q[level + (n - k,)] = np.log(float(top / below))
            p[level + (n - k,)] = float(top * below / (hankel(k, 1) * hankel(k - 1, 1)))
    return q, p


class TestClosedForm:
    def test_overtaking_pair_converges_at_fourth_order(self):
        # lam = (1, 1/2), b = (1, 3): q = (-0.847, 1.386), p = (1.4, 1.6) at
        # t = 0, the faster peak behind; by T = 4 p is near (1.012, 1.988)
        lam, b = (1.0, 0.5), (1.0, 3.0)
        q0, p0 = peakon_closed_form(lam, b, 0.0)
        np.testing.assert_allclose(p0, [1.4, 1.6], rtol=1e-15)
        errors = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            traj = evolve_peakons(PeakonEnsemble(q0, p0), dt=dt, t_end=4.0)
            q, p = peakon_closed_form(lam, b, traj.times)
            errors.append(max(np.max(np.abs(traj.q - q)), np.max(np.abs(traj.p - p))))
            # measured: H[0] and P[0] exact, P then within 1e-15
            assert traj.H[0] == pytest.approx(0.5 * (1.0 + 4.0), rel=1e-15)
            assert np.max(np.abs(traj.P - (1.0 + 2.0))) <= 1e-14
        # measured: 1.54e-6, 9.75e-8, 6.12e-9, 3.83e-10; orders 3.98-4.00
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 3.9), orders
        assert errors[-1] <= 5e-10

    @pytest.mark.parametrize(
        "lam, b, t_end",
        [((1.0, 0.5, 0.25), (1.0, 2.0, 40.0), 4.0),
         ((1.0, 0.6, 0.3, 0.2), (1.0, 3.0, 20.0, 400.0), 3.0)],
        ids=["N3", "N4"],
    )
    def test_multipeakon_converges_at_fourth_order(self, lam, b, t_end):
        # N = 3: q = (-0.828, 1.946, 3.761) at t = 0, p = (1.981, 1.436,
        # 3.583); N = 4: q = (-0.815, 1.208, 3.309, 6.050), p = (2.676,
        # 2.087, 1.462, 4.775); the peaks overtake and sort by speed 1/lam
        q0, p0 = peakon_closed_form(lam, b, 0.0)
        q_end, p_end = peakon_closed_form(lam, b, t_end)
        inv = 1.0 / np.array(lam)
        errors = []
        for dt in (4e-3, 2e-3, 1e-3):
            steps = round(t_end / dt)
            traj = evolve_peakons(PeakonEnsemble(q0, p0), dt=dt, t_end=t_end, record_every=steps)
            errors.append(max(np.max(np.abs(traj.q[-1] - q_end)),
                              np.max(np.abs(traj.p[-1] - p_end))))
            # measured: H[0] exact, P within 1.3e-14
            assert traj.H[0] == pytest.approx(0.5 * np.sum(inv**2), rel=1e-15)
            assert np.max(np.abs(traj.P - np.sum(inv))) <= 1e-13
        # measured: 1.31e-11, 8.24e-13, 1.78e-14 (N = 3) and 1.10e-11,
        # 7.00e-13, 5.33e-14 (N = 4); the last error is roundoff, so only
        # the first pair pins the order (3.996 and 3.973)
        assert np.log2(errors[0] / errors[1]) >= 3.9, errors
        assert errors[-1] <= 2e-13, errors

    def test_peakon_antipeakon_halts_just_before_the_collision(self):
        # lam = (1, -1/2), b = (0.2, 1): p = (3, -4), and the separation
        # closes at t* = ln(2.5)/3 = 0.305430.  Near t* it is quadratic in
        # t - t*, so the halt at collision_sep 1e-6 comes about sqrt(1e-6)
        # early: measured t_estimate 0.304721, 7.09e-4 early
        lam, b = (1.0, -0.5), (0.2, 1.0)
        q0, p0 = peakon_closed_form(lam, b, 0.0)
        np.testing.assert_allclose(p0, [3.0, -4.0], rtol=1e-14)
        with pytest.raises(CollisionError) as excinfo:
            evolve_peakons(PeakonEnsemble(q0, p0), dt=1e-3, t_end=1.0)
        assert excinfo.value.pair == (0, 1)
        assert 0.0 < np.log(2.5) / 3.0 - excinfo.value.t_estimate <= 8e-4

    @pytest.mark.parametrize(
        "lam, b, bound",
        [((1.0, -0.5, 0.25), (0.2, 1.0, 5.0), 8e-4),
         ((1.0, 0.5, -0.5), (1.0, 3.0, 2.0), 8.5e-4)],
        ids=["lam_1_-0.5_0.25", "lam_1_0.5_-0.5"],
    )
    def test_three_peakons_halt_just_before_the_collision(self, lam, b, bound):
        # first case: q = (1.313, 1.613, 1.825), p = (3.516, -7.042, 6.526)
        # at t = 0; second: q = (0.693, 1.609, 1.792), p = (2, -5, 4).  The
        # exact separation q_1 - q_0 touches 0 at t* without crossing it, so
        # t* is its minimum, not a root.  Measured t* - t_estimate: 7.62e-4
        # and 8.07e-4, against 7.09e-4 for the pair above
        q0, p0 = peakon_closed_form(lam, b, 0.0)
        with pytest.raises(CollisionError) as excinfo:
            evolve_peakons(PeakonEnsemble(q0, p0), dt=1e-3, t_end=2.0)
        assert excinfo.value.pair == (0, 1)
        t_estimate = excinfo.value.t_estimate

        def separation(t):
            q, _ = peakon_closed_form(lam, b, np.array([t]))
            return q[0, 1] - q[0, 0]

        # golden-section search for the minimum within 1e-2 after the halt
        lo, hi = t_estimate, t_estimate + 1e-2
        ratio = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(60):
            left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if separation(left) < separation(right):
                hi = right
            else:
                lo = left
        t_star = 0.5 * (lo + hi)
        # measured minima 4.4e-16 and 2.2e-16: a touch at roundoff
        assert separation(t_star) <= 1e-14
        assert 0.0 < t_star - t_estimate <= bound


class TestSortedKernel:
    """The O(N) sorted-sum kernel against the dense N x N formula.

    Float64 bound set beforehand: each term's exponent x - c is rounded at
    |x - c| <= 256, a relative 3e-14, and the sums add a few ulps, so every
    row is within 1e-13 of the size of its terms.
    """

    @pytest.mark.parametrize("n", [*range(1, 41), 257, 2000])
    def test_rhs_matches_dense(self, n):
        rng = np.random.default_rng(n)
        for q, p in kernel_cases(rng, n):
            qdot, pdot = ode_rhs(PeakonEnsemble(q=q, p=p))
            want_q, want_p = dense_rhs(q, p)
            scale = kernel_scale(q, p)
            assert np.all(np.abs(qdot - want_q) <= 1e-13 * scale)
            assert np.all(np.abs(pdot - want_p) <= 1e-13 * np.abs(p) * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 257, 2000])
    def test_hamiltonian_matches_dense(self, n):
        rng = np.random.default_rng(100 + n)
        for q, p in kernel_cases(rng, n):
            want = 0.5 * p @ np.exp(-np.abs(q[:, None] - q[None, :])) @ p
            scale = 0.5 * np.abs(p) @ kernel_scale(q, p)
            assert abs(hamiltonian(PeakonEnsemble(q=q, p=p)) - want) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 257])
    def test_hamiltonian_is_the_recorded_h(self, n):
        # one H formula: hamiltonian returns, bit for bit, the H that
        # evolve_peakons records at t = 0, on unsorted, sorted and tied
        # ensembles (collision_sep = 0 lets a tie of opposite signs step)
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            for q, p in kernel_cases(rng, n):
                order = np.argsort(q)
                for ens in (PeakonEnsemble(q=q, p=p), PeakonEnsemble(q=q[order], p=p[order])):
                    traj = evolve_peakons(ens, dt=1e-12, t_end=1e-12, collision_sep=0.0)
                    assert hamiltonian(ens) == traj.H[0]

    def test_tied_peaks_move_as_one(self):
        # equal speeds bit for bit, so a tie never opens by roundoff
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.uniform(-5.0, 5.0, 12)
            q[[1, 4, 6, 7, 10]] = q[4]
            qdot, _ = ode_rhs(PeakonEnsemble(q=q, p=rng.uniform(-2.0, 2.0, 12)))
            assert np.all(qdot[[1, 6, 7, 10]] == qdot[4])

    @pytest.mark.parametrize("gap", range(450, 800, 25))
    @pytest.mark.parametrize("mirror", [False, True])
    def test_sum_carried_across_a_wide_gap(self, gap, mirror):
        # peaks 0, 1, 2 carry all the momentum; the two peaks beyond the gap
        # feel them only through the sum carried into their block (at
        # gap 600, q = [0, 1, 2, 602, 1020], e^-600 ~ 4e-261 at q = 602),
        # and in that block's frame the carried term would underflow
        q = np.cumsum([0.0, 1.0, 1.0, gap, 418.0])
        p = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        if mirror:
            q, p = -q[::-1], p[::-1]
        qdot, pdot = ode_rhs(PeakonEnsemble(q=q, p=p))
        want_q, want_p = dense_rhs(q, p)
        scale = kernel_scale(q, p)
        assert np.all(np.abs(qdot - want_q) <= 1e-13 * scale)
        assert np.all(np.abs(pdot - want_p) <= 1e-13 * np.abs(p) * scale)

    @pytest.mark.parametrize(
        "q",
        [
            [0.0, np.nan, 600.0],
            [0.0, 300.0, 700.0, np.nan],
            [np.nan, 0.0, 600.0, 1300.0],
            [0.0, 600.0, 1200.0, np.nan, 1900.0],
            [0.0, 1.0, 2.0, 3.0, np.nan, 5.0, 700.0, 1400.0],
            [0.0, 600.0, np.inf],
        ],
    )
    def test_non_finite_positions_give_non_finite_rows(self, q):
        # what an RK stage can hand the kernel once the state has overflowed:
        # no exception, and no finite row that would hide it
        y = np.array((q, np.ones(len(q))))
        with np.errstate(over="ignore", invalid="ignore"):
            out = _rhs_values(y)
        assert not np.isfinite(out).any()

    def test_one_block_keeps_the_block_formula_bits(self):
        # a span of at most 512 is one block, summed by exactly this
        # formula, so the N <= 3 ensembles of the sample configs keep
        # every bit whatever happens to wider spans
        def block_sums(x, w):
            e = np.exp(x - 0.5 * (x[0] + x[-1]))
            lo = np.add.accumulate(w * e)
            lo /= e
            hi = np.add.accumulate((w / e)[::-1])[::-1]
            hi *= e
            return lo, hi

        rng = np.random.default_rng(9)
        for n in range(1, 41):
            for span in (rng.uniform(0.0, 512.0), 512.0):
                x = np.unique(rng.uniform(-3.0, -3.0 + span, n))
                if n >= 2:
                    x[[0, -1]] = (-3.0, -3.0 + span)
                w = rng.uniform(-2.0, 2.0, len(x))
                for got, want in zip(_sorted_sums(x, w), block_sums(x, w)):
                    assert np.array_equal(got, want)

    def test_hundred_thousand_peaks(self):
        rng = np.random.default_rng(5)
        n = 100_000
        q = rng.permutation(np.cumsum(rng.uniform(0.01, 2.0, n)))
        p = rng.uniform(-2.0, 2.0, n)
        qdot, pdot = ode_rhs(PeakonEnsemble(q=q, p=p))
        assert np.all(np.isfinite(qdot)) and np.all(np.isfinite(pdot))
        for i in rng.choice(n, 50, replace=False):
            e = np.exp(-np.abs(q[i] - q))
            scale = e @ np.abs(p)
            assert abs(qdot[i] - e @ p) <= 1e-13 * scale
            assert abs(pdot[i] - p[i] * ((np.sign(q[i] - q) * e) @ p)) <= (
                1e-13 * abs(p[i]) * scale
            )


class TestSortedEvolve:
    """evolve_peakons against the dense reference evolve."""

    def test_swarm_trajectory_matches_dense(self):
        rng = np.random.default_rng(64)
        q = rng.permutation(np.cumsum(rng.uniform(0.5, 4.0, 64)))
        p = rng.uniform(0.3, 2.0, 64)
        traj = evolve_peakons(PeakonEnsemble(q=q, p=p), dt=0.01, t_end=1.0, record_every=7)
        times, qs, ps, hs = dense_evolve(q, p, 0.01, 1.0, record_every=7)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(traj.q, qs, rtol=0, atol=1e-12 * np.max(np.abs(qs)))
        np.testing.assert_allclose(traj.p, ps, rtol=0, atol=1e-12 * np.max(np.abs(ps)))
        np.testing.assert_allclose(traj.H, hs, rtol=1e-12)

    def test_tied_start_matches_dense(self):
        # the second tie's momenta sum to zero, so its merged peak carries
        # none; collision_sep = 0 lets such a tie of opposite signs step
        for q, p, (a, b) in (
            ([3.0, 1.0, -2.0, 1.0], [0.2, 0.5, 0.9, 0.7], (1, 3)),
            ([-1.0, 2.0, 2.0, 5.0], [0.7, 0.5, -0.5, 0.3], (1, 2)),
        ):
            q, p = np.array(q), np.array(p)
            traj = evolve_peakons(
                PeakonEnsemble(q=q, p=p), dt=0.01, t_end=2.0, record_every=20, collision_sep=0.0
            )
            _, qs, ps, hs = dense_evolve(q, p, 0.01, 2.0, record_every=20, collision_sep=0.0)
            np.testing.assert_allclose(traj.q, qs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.p, ps, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.H, hs, rtol=1e-12)
            assert np.all(traj.q[:, a] == traj.q[:, b])

    @pytest.mark.parametrize(
        "q, p, collision_sep",
        [
            ([-5.0, 5.0], [1.0, -1.0], 1e-6),
            ([5.0, -6.0, 0.0], [0.5, 1.2, -0.8], 1e-6),
            ([4.0, -4.0, 0.5], [-1.0, 1.0, 0.0], 1e-6),
            ([-4.0, 0.0, 4.0], [1.0, 0.0, -1.0], 1e-6),
            ([-5.0, 5.0], [1.0, -1.0], 0.5),
            ([4.0, -4.0, 0.5], [-1.0, 1.0, 0.0], 0.5),
        ],
    )
    def test_head_on_halts_like_dense(self, q, p, collision_sep):
        q, p = np.array(q), np.array(p)
        with pytest.raises(CollisionError) as want:
            dense_evolve(q, p, 1e-3, 20.0, record_every=100, collision_sep=collision_sep)
        with pytest.raises(CollisionError) as got:
            evolve_peakons(
                PeakonEnsemble(q=q, p=p), dt=1e-3, t_end=20.0, record_every=100,
                collision_sep=collision_sep,
            )
        assert got.value.pair == want.value.pair
        assert got.value.t_estimate == pytest.approx(want.value.t_estimate, rel=0, abs=1e-12)
        assert got.value.separation == pytest.approx(want.value.separation, rel=1e-6)

    @pytest.mark.parametrize("collision_sep", [-1.0, np.nan, np.inf])
    def test_bad_collision_sep_rejected(self, collision_sep):
        ens = PeakonEnsemble(q=[-1.0, 1.0], p=[1.0, -1.0])
        with pytest.raises(ValueError, match="collision_sep"):
            evolve_peakons(ens, dt=0.01, t_end=0.1, collision_sep=collision_sep)


class TestSampling:
    def test_exact_kernel_equals_long_image_series(self):
        grid = Grid1D(n=128, length=2 * np.pi)
        ens = PeakonEnsemble(q=[0.3], p=[1.0])
        exact = sample_field(ens, grid).values
        d = (grid.x - 0.3 + np.pi) % (2 * np.pi) - np.pi
        series = sum(
            np.exp(-np.abs(d - m * grid.length)) for m in range(-20, 21)
        )
        assert np.max(np.abs(exact - series)) < 1e-14

    def test_finite_on_very_long_domain(self):
        # exp(-L) underflows, so the kernel is exp(-|d|) to the last bit
        grid = Grid1D(n=4096, length=2000.0)
        q, p = np.array([-600.0, 5.0]), np.array([1.0, 0.5])
        u = sample_field(PeakonEnsemble(q=q, p=p), grid).values
        assert np.all(np.isfinite(u))
        d = np.abs((grid.x[:, None] - q + 1000.0) % 2000.0 - 1000.0)
        assert np.max(np.abs(u - np.exp(-d) @ p)) <= 1e-15

    def test_periodized_peak_height(self):
        length = 2 * np.pi
        grid = Grid1D(n=4096, length=length)
        ens = PeakonEnsemble(q=[0.0], p=[1.0])
        u = sample_field(ens, grid)
        assert np.max(u.values) == pytest.approx(
            np.cosh(length / 2) / np.sinh(length / 2), rel=1e-6
        )


class TestMollified:
    def test_close_to_sampled_profile(self):
        grid = Grid1D(n=2048, length=40.0)
        ens = PeakonEnsemble(q=[-3.0, 4.0], p=[1.0, 0.5])
        moll = mollified_field(ens, grid).values
        samp = sample_field(ens, grid).values
        assert np.max(np.abs(moll - samp)) <= 2e-2

    def test_h1_matches_twice_the_particle_hamiltonian(self):
        grid = Grid1D(n=4096, length=40.0)
        ens = PeakonEnsemble(q=[-5.0, 3.0], p=[1.0, 0.5])
        _, h1, _ = invariants(mollified_field(ens, grid), kappa=0.0)
        assert h1 == pytest.approx(2.0 * hamiltonian(ens), rel=1e-2)

    def test_spectrum_is_band_limited(self):
        grid = Grid1D(n=256, length=20.0)
        moll = mollified_field(PeakonEnsemble(q=[1.0], p=[1.0]), grid)
        c = np.fft.fft(moll.values)
        assert abs(c[grid.n // 2]) < 1e-12  # Nyquist removed


class TestAgainstPDE:
    def test_single_peak_travels_at_unit_speed(self):
        # c = 1 peak on a long domain: after t = 1 the crest sits near q0 + 1
        grid = Grid1D(n=1024, length=40.0)
        ens = PeakonEnsemble(q=[-10.0], p=[1.0])
        u0 = mollified_field(ens, grid)
        params = CHParams(kappa=0.0, dt=2e-3, t_end=1.0, record_every=500)
        res = evolve(u0, params)
        pos = peak_position(res.final.u)
        assert pos == pytest.approx(-9.0, abs=0.05)
        # the profile should still look like the translated initial peak
        expected = mollified_field(PeakonEnsemble(q=[-9.0], p=[1.0]), grid)
        assert np.max(np.abs(res.final.u.values - expected.values)) <= 2e-2


def per_cell_csv(traj, path):
    """The per-cell f-string writer that trajectory_to_csv replaced."""
    n = traj.q.shape[1]
    header = (
        "t," + ",".join(f"q{i + 1}" for i in range(n)) + ","
        + ",".join(f"p{i + 1}" for i in range(n)) + ",H,P"
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in range(len(traj.times)):
            cells = [f"{traj.times[row]:.17g}"]
            cells += [f"{v:.17g}" for v in traj.q[row]]
            cells += [f"{v:.17g}" for v in traj.p[row]]
            cells += [f"{traj.H[row]:.17g}", f"{traj.P[row]:.17g}"]
            fh.write(",".join(cells) + "\n")


class TestCSV:
    def test_trajectory_round_trip(self, tmp_path):
        ens = PeakonEnsemble(q=[-2.0, 3.0], p=[1.0, 0.3])
        traj = evolve_peakons(ens, dt=0.01, t_end=0.1, record_every=5)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H,P"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], traj.times, rtol=1e-16)
        np.testing.assert_allclose(data[:, 1:3], traj.q, rtol=1e-16)
        np.testing.assert_allclose(data[:, 3:5], traj.p, rtol=1e-16)
        np.testing.assert_allclose(data[:, 5], traj.H, rtol=1e-16)
        np.testing.assert_allclose(data[:, 6], traj.P, rtol=1e-16)

    def test_bytes_match_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-20, 20, size=(5, 4))
        q[0, :3] = [-0.0, 1e-300, 1e300]
        p = rng.normal(size=(5, 4))
        p[1, :3] = [-1e300, -1e-300, 0.0]
        traj = PeakonTrajectory(
            times=np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1.0 / 3.0]),
            q=q, p=p, H=rng.normal(size=5), P=np.array([-0.0, 1e-300, 1e300, 2.5, -7.0]),
        )
        trajectory_to_csv(traj, tmp_path / "new.csv")
        per_cell_csv(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # rows over several 64-row chunks; 256 peaks give peakon_swarm's 515 columns
    @pytest.mark.parametrize("rows, peaks", [(64, 3), (130, 4), (129, 256)])
    def test_bytes_match_per_cell_writer_over_chunks(self, tmp_path, rows, peaks):
        rng = np.random.default_rng(rows + peaks)
        q = rng.normal(size=(rows, peaks)) * 10.0 ** rng.integers(-20, 20, size=(rows, peaks))
        q[rows // 2, :3] = [-0.0, 1e-300, 1e300]
        traj = PeakonTrajectory(
            times=np.cumsum(rng.uniform(0.0, 0.1, size=rows)),
            q=q, p=rng.normal(size=(rows, peaks)), H=rng.normal(size=rows),
            P=rng.normal(size=rows),
        )
        trajectory_to_csv(traj, tmp_path / "new.csv")
        per_cell_csv(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().count("\n") == rows + 1

    def test_swarm_trajectory_matches_per_cell_writer(self, tmp_path):
        # 256 right-moving peaks as in the peakon_swarm benchmark: 11 rows of
        # 515 cells, a table that the vectorized cell kernel writes
        rng = np.random.default_rng(256)
        q = np.cumsum(rng.uniform(2.5, 4.0, 256))
        traj = evolve_peakons(PeakonEnsemble(q=q - 0.5 * (q[0] + q[-1]),
                                             p=rng.uniform(0.5, 1.5, 256)),
                              dt=0.01, t_end=0.1)
        trajectory_to_csv(traj, tmp_path / "new.csv")
        per_cell_csv(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert traj.q.size + traj.p.size >= grid._EXACT_MIN_CELLS


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PeakonEnsemble(q=[0.0, 1.0], p=[1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PeakonEnsemble(q=[0.0, np.nan], p=[1.0, 1.0])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one peak"):
            PeakonEnsemble(q=[], p=[])
