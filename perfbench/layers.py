"""Per-layer microtimings on fixed inputs, one warm median per metric.

Each probe calls one public function of one wavelab module.  Inputs are
fixed (they do not depend on the workload seed) and sized like the
workload that the layer serves: n = 4096 as in xval_large_n, N = 256 peaks
as in peakon_swarm, n = 256 for the variational layer.  grid.fft_s and the
variational counts come from probe calls made with the tracer active.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass

import numpy as np

from stats import Summary, microtime, summarize

SIZES = (256, 1024, 4096, 16384)
PEAK_COUNTS = (10, 100, 1000)
UNIT_SCALE = {"us": 1e6, "s": 1.0}


@dataclass
class Metric:
    name: str
    value: float | None  # None: the function it measures is absent
    unit: str
    summary: Summary | None = None  # seconds per call, for timings


class Probes:
    """Runs the probes and collects :class:`Metric` rows."""

    def __init__(self, scratch_dir, budget_s: float):
        self.scratch = scratch_dir
        self.budget = budget_s
        self.metrics: list[Metric] = []
        self.absent: list[str] = []
        self.m = {short: importlib.import_module(f"wavelab.{short}")
                  for short in ("grid", "ch", "peakons", "linear_sw", "scaling",
                                "variational", "scenarios")}
        # xval_large_n's grid, kappa and step; 20 RK4 steps
        self.evolve_params = self.m["ch"].CHParams(kappa=0.0, dt=2e-3, t_end=0.04,
                                                   record_every=10)

    def time(self, name, unit, fn, budget=None) -> Summary | None:
        try:
            summary = microtime(fn, self.budget if budget is None else budget,
                                min_samples=3 if budget else 5)
        except AttributeError as exc:
            self.missing(name, unit, exc)
            return None
        self.metrics.append(Metric(name, summary.median * UNIT_SCALE[unit], unit, summary))
        return summary

    def value(self, name, unit, value) -> None:
        self.metrics.append(Metric(name, value, unit))

    def missing(self, name, unit, exc) -> None:
        self.metrics.append(Metric(name, None, unit))
        self.absent.append(f"{name}: {exc}")

    # --- inputs ---

    def field(self, n, length=2.0 * np.pi):
        g = self.m["grid"]
        grid = g.Grid1D(n=n, length=length)
        x = 2.0 * np.pi * grid.x / length
        return g.Field(grid, 0.3 * np.sin(x) + 0.1 * np.cos(3.0 * x + 0.4))

    def ensemble(self, count):
        rng = np.random.default_rng(count)
        q = np.cumsum(rng.uniform(2.5, 4.0, count))
        return self.m["peakons"].PeakonEnsemble(q=q - q.mean(), p=rng.uniform(0.5, 1.5, count))

    def variational_pair(self, k_intervals=32):
        g, v = self.m["grid"], self.m["variational"]
        grid = g.Grid1D(n=256, length=2.0 * np.pi)
        times = v.uniform_times(1.0, k_intervals)
        rng = np.random.default_rng(42)
        path = v.SinusoidalPathSpec.random(rng).build(grid, times)
        pert = v.BumpPerturbationSpec.random(rng).build(grid, times)
        return path, pert

    # --- layers ---

    def grid(self):
        g = self.m["grid"]
        for n in SIZES:
            f = self.field(n)
            self.time(f"grid.deriv_us.n{n}", "us", lambda: g.deriv(f))
            self.time(f"grid.helmholtz_us.n{n}", "us", lambda: g.helmholtz_inv(f))
            self.time(f"grid.dealias_us.n{n}", "us", lambda: g.dealias(f))
        path = os.path.join(self.scratch, "probe_field.csv")
        f = self.field(4096, 60.0)
        self.time("grid.csv_write_s", "s", lambda: g.field_to_csv(f, path))
        self.value("grid.csv_bytes", "bytes", os.path.getsize(path))

    def ch(self):
        ch = self.m["ch"]
        for n in SIZES:
            f = self.field(n)
            self.time(f"ch.rhs_nonlocal_us.n{n}", "us", lambda: ch.rhs_nonlocal(f, 0.3))
            self.time(f"ch.rhs_local_us.n{n}", "us", lambda: ch.rhs_local(f, 0.3))
        f = self.field(4096, 60.0)
        params = self.evolve_params
        state = ch.CHState(t=0.0, u=f)
        self.time("ch.step_rk4_us", "us", lambda: ch.step_rk4(state, params))
        self.time("ch.invariants_us", "us", lambda: ch.invariants(f, 0.0))
        evolve = self.time("ch.evolve_s", "s", lambda: ch.evolve(f, params), budget=0.3)
        if evolve is not None:
            self.value("ch.steps_per_s", "1/s", params.n_steps / evolve.median)
        else:
            self.value("ch.steps_per_s", "1/s", None)

    def peakons(self):
        pk = self.m["peakons"]
        for count in PEAK_COUNTS:
            ens = self.ensemble(count)
            self.time(f"peakons.rhs_us.N{count}", "us", lambda: pk.ode_rhs(ens))
        ens = self.ensemble(256)
        self.time("peakons.hamiltonian_us", "us", lambda: pk.hamiltonian(ens))
        dt, t_end = 0.01, 0.2
        evolve = self.time("peakons.evolve_s", "s",
                           lambda: pk.evolve_peakons(ens, dt, t_end), budget=0.3)
        if evolve is not None:
            steps = round(t_end / dt)
            self.value("peakons.particle_steps_per_s", "1/s", ens.n * steps / evolve.median)
            traj = pk.evolve_peakons(ens, dt, t_end)
            path = os.path.join(self.scratch, "probe_trajectory.csv")
            self.time("peakons.csv_write_s", "s", lambda: pk.trajectory_to_csv(traj, path))
        else:
            self.value("peakons.particle_steps_per_s", "1/s", None)
            self.value("peakons.csv_write_s", "s", None)
        grid = self.m["grid"].Grid1D(n=4096, length=60.0)
        few = pk.PeakonEnsemble(q=np.array([-10.0, 0.0, 10.0]), p=np.array([0.9, 0.6, 0.4]))
        self.time("peakons.mollified_s", "s", lambda: pk.mollified_field(few, grid))
        self.time("peakons.sample_field_s", "s", lambda: pk.sample_field(few, grid))

    def linear_sw_and_scaling(self):
        g, lsw, sc = self.m["grid"], self.m["linear_sw"], self.m["scaling"]
        grid = g.Grid1D(n=256, length=40.0)
        f = g.Field(grid, 0.8 * np.exp(-((grid.x / 2.0) ** 2)))
        profile = lsw.SurfaceProfile(f=f)
        self.time("linear_sw.dalembert_us", "us", lambda: lsw.evolve_dalembert(profile, 1.0))

        t, dt, nz = 1.0, 1e-4, 9
        eta = np.array([lsw.evolve_dalembert(profile, tk).values for tk in (t - dt, t, t + dt)])
        z = np.linspace(0.0, 1.0, nz)
        bundle = sc.VariableBundle(
            frame="delta_removed", x=grid.x, z=z, t=np.array([t - dt, t, t + dt]),
            u=np.broadcast_to(eta[:, None, :], (3, nz, grid.n)).copy(),
            v=-z[:, None] * grid.deriv_values(eta[1])[None, :],
            p=np.broadcast_to(eta[1], (nz, grid.n)).copy(), eta=eta,
        )
        self.time("scaling.audit_us", "us", lambda: sc.audit_limit_system(bundle))

        sp = sc.ScalingParams(h0=1.0, lam=10.0, a=0.1)
        rng = np.random.default_rng(0)
        n, nz = 64, 5
        c = sp.c_horizontal
        zs = np.linspace(0.0, sp.h0, nz)
        physical = sc.VariableBundle(
            frame="physical", x=np.linspace(0.0, sp.lam, n, endpoint=False), z=zs,
            t=np.linspace(0.0, sp.lam / c, 4),
            u=sp.eps * c * rng.standard_normal((nz, n)),
            v=sp.eps * sp.delta * c * rng.standard_normal((nz, n)),
            p=sp.p0 + sp.rho * sp.g * (sp.h0 - zs)[:, None]
            + sp.eps * sp.rho * sp.g * sp.h0 * rng.standard_normal((nz, n)),
            eta=sp.a * rng.standard_normal(n),
        )

        def roundtrip():
            removed = sc.remove_delta(
                sc.scale_small_amplitude(sc.to_nondim(physical, sp), sp.eps), sp.eps, sp.delta)
            return sc.from_nondim(sc.unscale_small_amplitude(
                sc.restore_delta(removed, sp.eps, sp.delta), sp.eps), sp)

        self.time("scaling.roundtrip_us", "us", roundtrip)

    def variational(self):
        v = self.m["variational"]
        path, pert = self.variational_pair()
        row = path.gamma[path.n_intervals // 2]
        self.time("variational.inverse_diffeo_us", "us",
                  lambda: v.inverse_diffeo(path.grid, row))
        self.time("variational.fd_s", "s", lambda: v.first_variation_fd(path, pert, 1e-3),
                  budget=0.2)
        self.time("variational.midpoint_s", "s",
                  lambda: v.first_variation_midpoint(path, pert), budget=0.2)
        self.time("variational.el_s", "s", lambda: v.first_variation_el(path, pert),
                  budget=0.2)

    def traced(self, tracer, name, fn, *args, **kwargs) -> list:
        """Stored spans of one call of ``fn`` with the tracer active; the
        call's own span comes first."""
        start = len(tracer.spans)
        tracer.active = True
        try:
            tracer.call(name, "probe", fn, *args, **kwargs)
        finally:
            tracer.active = False
        return tracer.spans[start:]

    def fft_time(self, tracer):
        """Seconds inside numpy.fft/scipy.fft during the ch.evolve_s probe."""
        ch = self.m["ch"]
        f = self.field(4096, 60.0)
        ch.evolve(f, self.evolve_params)
        samples = [self.traced(tracer, "probe.evolve", ch.evolve, f, self.evolve_params)[0]
                   .counts.get("fft_s", 0.0) for _ in range(5)]
        summary = summarize(samples)
        self.metrics.append(Metric("grid.fft_s", summary.median, "s", summary))

    def variational_counts(self, tracer):
        """Inversions and PCHIP evaluations per inversion in one identity
        check."""
        path, pert = self.variational_pair()
        spans = [s for s in self.traced(tracer, "probe.variational",
                                        self.m["variational"].verify_variational_identity,
                                        path, pert, eps=1e-3)
                 if s.name == "variational.inverse_diffeo"]
        evals = sum(s.counts.get("pchip_evals", 0) for s in spans)
        if spans:
            self.value("variational.inverse_calls", "count", len(spans))
            self.value("variational.interp_evals_per_inverse", "count", evals / len(spans))
        else:
            self.missing("variational.inverse_calls", "count", "inverse_diffeo not traced")
            self.missing("variational.interp_evals_per_inverse", "count",
                         "inverse_diffeo not traced")

    def scenarios(self, config_path):
        sc = self.m["scenarios"]
        self.time("scenarios.load_config_us", "us", lambda: sc.load_config(config_path))
