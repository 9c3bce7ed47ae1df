"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; without ``-s`` pytest shows them for failing criteria only.  Each
criterion prints its measured numbers next to the pinned tolerance so a
regression is diagnosable from the one line.
"""

import numpy as np

from wavelab.ch import CHParams, evolve, rhs_local, rhs_nonlocal
from wavelab.grid import (
    Field,
    Grid1D,
    deriv,
    helmholtz_inv,
    peak_position,
    spectral_shift,
)
from wavelab.peakons import (
    PeakonEnsemble,
    evolve_peakons,
    hamiltonian,
    mollified_field,
    ode_rhs,
    sample_field,
)
from wavelab.scaling import (
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
from wavelab.variational import (
    BumpPerturbationSpec,
    SinusoidalPathSpec,
    el_residual,
    first_variation_fd,
    uniform_times,
    verify_variational_identity,
)


def line(num, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {title}: {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def band_limited(grid, max_mode, rng):
    vals = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        k = 2.0 * np.pi * m / grid.length
        vals += rng.normal() / m * np.cos(k * grid.x + rng.uniform(0.0, 2.0 * np.pi))
    return Field(grid, vals / np.max(np.abs(vals)))


def test_01_helmholtz_inversion():
    grid = Grid1D(n=256, length=2 * np.pi)
    worst = 0.0
    for k in range(1, 11):
        u = Field(grid, np.cos(k * grid.x))
        expected = np.cos(k * grid.x) / (1.0 + k * k)
        worst = max(worst, float(np.max(np.abs(helmholtz_inv(u).values - expected))))
    line(1, "Helmholtz inversion k=1..10", worst <= 1e-12,
         f"max error {worst:.3e} (tol 1e-12)")


def test_02_rhs_equivalence():
    grid = Grid1D(n=512, length=2 * np.pi)
    worst = 0.0
    for seed in range(20):
        u = band_limited(grid, 80, np.random.default_rng(seed))
        gap = np.max(np.abs(rhs_local(u, 0.4).values - rhs_nonlocal(u, 0.4).values))
        worst = max(worst, float(gap))
    line(2, "local vs nonlocal RHS, 20 random fields", worst <= 1e-8,
         f"max gap {worst:.3e} (tol 1e-8)")


def test_03_dispersion_speed():
    grid = Grid1D(n=128, length=2 * np.pi)
    u0 = Field(grid, 1e-6 * np.sin(grid.x))
    params = CHParams(kappa=0.5, dt=1e-3, t_end=5.0, record_every=1000,
                      snapshot_every=100)
    res = evolve(u0, params)
    ts = np.array([t for t, _ in res.snapshots])
    phases = np.unwrap([np.angle(np.fft.fft(vals)[1]) for _, vals in res.snapshots])
    speed = -np.polyfit(ts, phases, 1)[0]
    rel = abs(speed - 0.5) / 0.5
    line(3, "infinitesimal crest speed 2k/(1+k^2)", rel <= 5e-3,
         f"speed {speed:.6f} vs 0.5, rel error {rel:.2e} (tol 5e-3)")


def test_04_conservation():
    grid = Grid1D(n=1024, length=40.0)
    u0 = Field(grid, np.cosh(grid.x / 3.0) ** -2)
    res = evolve(u0, CHParams(kappa=0.0, dt=1e-3, t_end=10.0, record_every=1000))
    inv = res.invariants
    drifts = np.abs(inv[-1] - inv[0]) / np.abs(inv[0])
    ok = drifts[0] <= 1e-10 and drifts[1] <= 1e-6 and drifts[2] <= 1e-5
    line(4, "smooth-bump invariant drift over t=10", ok,
         f"H0 {drifts[0]:.2e} (1e-10), H1 {drifts[1]:.2e} (1e-6), "
         f"H2 {drifts[2]:.2e} (1e-5)")


def test_05_single_peakon_transport():
    grid = Grid1D(n=2048, length=40.0)
    start = PeakonEnsemble(q=np.array([0.0]), p=np.array([1.0]))
    u0 = mollified_field(start, grid)
    res = evolve(u0, CHParams(kappa=0.0, dt=2e-3, t_end=5.0, record_every=500))
    pos = peak_position(res.final.u)
    # shape is compared at the measured crest; the phase error is already
    # bounded by the position check and would otherwise count twice
    ref = sample_field(PeakonEnsemble(q=np.array([pos]), p=np.array([1.0])), grid)
    gap = float(np.max(np.abs(res.final.u.values - ref.values)))
    ok = abs(pos - 5.0) <= 0.05 and gap <= 2e-2
    line(5, "mollified peakon transport c=1, t=5", ok,
         f"peak at {pos:.4f} (5 +/- 0.05), profile gap {gap:.3e} (tol 2e-2)")


def test_06_ode_pde_cross_validation():
    grid = Grid1D(n=4096, length=60.0)
    ens = PeakonEnsemble(q=np.array([-7.5, 7.5]), p=np.array([1.0, 0.5]))
    traj = evolve_peakons(ens, 2e-3, 5.0, record_every=250)
    res = evolve(mollified_field(ens, grid),
                 CHParams(kappa=0.0, dt=2e-3, t_end=5.0, record_every=500))
    gap = float(np.max(np.abs(res.final.u.values
                              - sample_field(traj.final, grid).values)))
    line(6, "2-peakon ODE vs PDE over t=5", gap <= 2e-2,
         f"L-inf gap {gap:.3e} (tol 2e-2)")


def test_07_hamiltonian_structure():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = np.sort(rng.uniform(-10.0, 10.0, n))
        while np.min(np.diff(q)) < 1e-3:
            q = np.sort(rng.uniform(-10.0, 10.0, n))
        p = rng.uniform(-2.0, 2.0, n)
        ens = PeakonEnsemble(q=q, p=p)
        qdot, pdot = ode_rhs(ens)
        step = 1e-6
        grad_p = np.empty(n)
        grad_q = np.empty(n)
        for i in range(n):
            dp = np.zeros(n)
            dp[i] = step
            grad_p[i] = (hamiltonian(PeakonEnsemble(q=q, p=p + dp))
                         - hamiltonian(PeakonEnsemble(q=q, p=p - dp))) / (2 * step)
            grad_q[i] = (hamiltonian(PeakonEnsemble(q=q + dp, p=p))
                         - hamiltonian(PeakonEnsemble(q=q - dp, p=p))) / (2 * step)
        worst = max(worst,
                    float(np.max(np.abs(qdot - grad_p))),
                    float(np.max(np.abs(pdot + grad_q))))

    ens = PeakonEnsemble(q=np.array([-8.0, 0.0, 7.0]), p=np.array([1.0, 0.6, 0.3]))
    traj = evolve_peakons(ens, 1e-3, 20.0, record_every=1000)
    h_drift = abs(traj.H[-1] - traj.H[0]) / abs(traj.H[0])
    p_drift = abs(traj.P[-1] - traj.P[0]) / abs(traj.P[0])
    ok = worst <= 1e-8 and h_drift <= 1e-8 and p_drift <= 1e-8
    line(7, "peakon Hamiltonian structure", ok,
         f"FD-gradient gap {worst:.3e} (1e-8), H drift {h_drift:.2e}, "
         f"P drift {p_drift:.2e} (1e-8)")


def seeded_pair(grid, times):
    rng = np.random.default_rng(42)
    path = SinusoidalPathSpec.random(rng, amplitude=0.05).build(grid, times)
    pert = BumpPerturbationSpec.random(rng, amplitude=0.1).build(grid, times)
    return path, pert


def test_08_variational_identity():
    grid = Grid1D(n=256, length=2 * np.pi)

    rels = []
    for K in (16, 32, 64):
        path, pert = seeded_pair(grid, uniform_times(1.0, K))
        rels.append(verify_variational_identity(path, pert, eps=1e-3)["rel_fd_el"])
    dt_orders = [np.log2(rels[i] / rels[i + 1]) for i in range(2)]

    path, pert = seeded_pair(grid, uniform_times(1.0, 32))
    ds = [first_variation_fd(path, pert, eps) for eps in (4e-2, 2e-2, 1e-2)]
    eps_order = float(np.log2(abs(ds[0] - ds[1]) / abs(ds[1] - ds[2])))

    path, pert = seeded_pair(grid, uniform_times(1.0, 64))
    rel_eta = verify_variational_identity(path, pert, eps=1e-3, c0=0.3)["rel_fd_el"]

    # the eta-action only shifts the residual by the dispersive term 2*c0*eta_x
    c0 = 0.3
    fields = [Field(grid, 0.2 * np.sin(grid.x + 0.1 * s) + 0.05 * np.cos(2 * grid.x))
              for s in (-1.0, 0.0, 1.0)]
    r0 = el_residual(*fields, 1e-3, kappa=0.0)
    rc = el_residual(*fields, 1e-3, kappa=c0)
    gain = rc.values - r0.values
    expected = 2.0 * c0 * deriv(fields[1]).values
    scale = max(np.max(np.abs(rc.values)), np.max(np.abs(expected)), 1.0)
    gain_err = float(np.max(np.abs(gain - expected)) / scale)

    ok = (rels[-1] <= 1e-3 and min(dt_orders) >= 1.9
          and 1.9 <= eps_order <= 2.1 and rel_eta <= 1e-3 and gain_err <= 1e-13)
    line(8, "discrete variational identity", ok,
         f"rel gap {rels[-1]:.3e} (1e-3), dt orders {dt_orders[0]:.2f}/"
         f"{dt_orders[1]:.2f} (>=1.9), eps order {eps_order:.3f}, "
         f"eta-case {rel_eta:.2e}, 2c0*eta_x exactness {gain_err:.1e} (1e-13)")


def test_09_limit_system_audit():
    grid = Grid1D(n=256, length=40.0)
    x = grid.x
    nz = 9
    z = np.linspace(0.0, 1.0, nz)
    t0, dt = 0.5, 1e-4
    ts = np.array([t0 - dt, t0, t0 + dt])

    def f(s):
        return 0.8 * np.exp(-((s / 2.0) ** 2))

    def fp(s):
        return -0.5 * s * f(s)

    def g(s):
        return 0.5 * np.exp(-(((s + 5.0) / 3.0) ** 2))

    def gp(s):
        return -2.0 * (s + 5.0) / 9.0 * g(s)

    eta = np.stack([f(x - t) + g(x + t) for t in ts])
    u = np.stack([np.broadcast_to(f(x - t) - g(x + t), (nz, grid.n)).copy()
                  for t in ts])
    v = -z[:, None] * (fp(x - t0) - gp(x + t0))[None, :]
    p = np.broadcast_to(eta[1], (nz, grid.n)).copy()
    bundle = VariableBundle(frame="delta_removed", x=x, z=z, t=ts,
                            u=u, v=v, p=p, eta=eta)
    residual = max(audit_limit_system(bundle).values())

    wave = Field(grid, f(x))
    relayed = spectral_shift(spectral_shift(wave, 0.7), 1.3)
    direct = spectral_shift(wave, 2.0)
    semigroup = float(np.max(np.abs(relayed.values - direct.values)))
    ok = residual <= 1e-8 and semigroup <= 1e-12
    line(9, "small-amplitude limit audit", ok,
         f"max residual {residual:.3e} (1e-8), semigroup gap {semigroup:.2e} (1e-12)")


def test_10_scaling_round_trip():
    sp = ScalingParams(h0=1.0, lam=10.0, a=0.1)
    rng = np.random.default_rng(0)
    n, nz = 64, 5
    c = sp.c_horizontal
    z = np.linspace(0.0, sp.h0, nz)
    physical = VariableBundle(
        frame="physical",
        x=np.linspace(0.0, sp.lam, n, endpoint=False),
        z=z,
        t=np.linspace(0.0, sp.lam / c, 4),
        u=sp.eps * c * rng.standard_normal((nz, n)),
        v=sp.eps * sp.delta * c * rng.standard_normal((nz, n)),
        p=sp.p0 + sp.rho * sp.g * (sp.h0 - z)[:, None]
        + sp.eps * sp.rho * sp.g * sp.h0 * rng.standard_normal((nz, n)),
        eta=sp.a * rng.standard_normal(n),
    )
    scaled = scale_small_amplitude(to_nondim(physical, sp), sp.eps)
    removed = remove_delta(scaled, sp.eps, sp.delta)
    back = from_nondim(
        unscale_small_amplitude(restore_delta(removed, sp.eps, sp.delta), sp.eps), sp
    )
    residual = 0.0
    for name in ("x", "z", "t", "u", "v", "p", "eta"):
        a, b = getattr(physical, name), getattr(back, name)
        residual = max(residual, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))

    probe = remove_delta(scaled, sp.delta * sp.delta, sp.delta)
    exact = (np.array_equal(probe.x, scaled.x)
             and np.array_equal(probe.t, scaled.t)
             and np.array_equal(probe.v, scaled.v))
    ok = residual <= 1e-13 and exact
    line(10, "scaling pipeline round trip", ok,
         f"max rel residual {residual:.3e} (1e-13), eps=delta^2 exact: {exact}")
