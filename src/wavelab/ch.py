"""Pseudospectral solver for the dispersive shallow-water wave equation.

The equation, for a periodic profile u(x, t) and dispersion coefficient
kappa >= 0, reads

    u_t + 2*kappa*u_x + 3*u*u_x - u_txx = 2*u_x*u_xx + u*u_xxx.

Two algebraically equivalent right-hand sides are provided for the method
of lines:

* local form

      u_t = (1 - dxx)^{-1} [ -2*kappa*u_x - 3*u*u_x + 2*u_x*u_xx + u*u_xxx ]

* nonlocal form

      u_t = -u*u_x - dx (1 - dxx)^{-1} [ u^2 + u_x^2 / 2 + 2*kappa*u ]

The nonlocal form differentiates u only once outside the smoothing inverse,
so it is the production path; the local form is kept as an independent
cross-check.  Each form is one fused pass over the half spectrum with the
multipliers cached on the grid: the nonlocal form takes rfft(u), one
inverse transform for u_x, forward transforms of u*u_x and
u^2 + u_x^2/2, and a single inverse transform of the combined, masked
spectrum (5 real transforms); the local form takes 6.

Time stepping is classical RK4 with a fixed step.  Slopes are monitored at
every time level, on the u_x that the first RK4 stage of the next step
computes anyway (the final level takes its own derivative), and a
:class:`WaveBreakingError` halts the run when max |u_x| crosses the
configured ceiling.  The step count follows the fixed-step rule shared with
the peakon integrator (:data:`wavelab.grid.MAX_STEPS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid1D, _fixed_steps, _write_csv, irfft, rfft

__all__ = [
    "CHParams",
    "CHState",
    "CHResult",
    "WaveBreakingError",
    "rhs_local",
    "rhs_nonlocal",
    "step_rk4",
    "evolve",
    "invariants",
    "invariants_to_csv",
]


class WaveBreakingError(RuntimeError):
    """The solution steepened past the configured slope ceiling.

    Carries ``t`` (time of detection), ``max_slope`` and ``ceiling`` so
    callers can report a structured diagnostic instead of a stack trace.
    """

    def __init__(self, t: float, max_slope: float, ceiling: float):
        super().__init__(
            f"wave breaking: max |u_x| = {max_slope:.6g} exceeded "
            f"ceiling {ceiling:.6g} at t = {t:.6g}"
        )
        self.t = t
        self.max_slope = max_slope
        self.ceiling = ceiling


@dataclass(frozen=True)
class CHParams:
    """Run parameters for :func:`evolve`.

    ``record_every`` controls how often (in steps) invariants are appended
    to the history; ``snapshot_every`` likewise for full profiles, with 0
    disabling snapshots.  ``dt`` and ``t_end`` must give a whole number of
    steps :attr:`n_steps`, at least one and at most
    :data:`wavelab.grid.MAX_STEPS`; construction checks it.
    """

    kappa: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    dealias: bool = True
    slope_ceiling: float = 1e3
    record_every: int = 10
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        _fixed_steps(self.dt, self.t_end)
        if not (np.isfinite(self.slope_ceiling) and self.slope_ceiling > 0):
            raise ValueError(f"slope_ceiling must be > 0, got {self.slope_ceiling}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive step count")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    @property
    def n_steps(self) -> int:
        return _fixed_steps(self.dt, self.t_end)


@dataclass(frozen=True)
class CHState:
    """Solution profile at a single time."""

    t: float
    u: Field


@dataclass(frozen=True)
class CHResult:
    """Output of :func:`evolve`.

    ``times`` and ``invariants`` hold the recorded history (invariants rows
    are (H0, H1, H2)); ``snapshots`` is a tuple of (t, values) pairs when
    snapshot recording was enabled.
    """

    params: CHParams
    grid: Grid1D
    final: CHState
    times: np.ndarray
    invariants: np.ndarray
    snapshots: tuple


def _rhs_nonlocal_values(
    grid: Grid1D, u: np.ndarray, kappa: float, dealias: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlocal tendency and u_x in one pass of five half-size transforms.

    Both products are taken to the half spectrum, masked, combined with
    2*kappa*u_hat and finished by a single inverse transform.  Returns
    ``(du/dt, u_x)``; the caller reuses u_x for the slope check.
    """
    n = grid.n
    uh = rfft(u)
    ux = irfft(grid.ik * uh, n)
    adv = rfft(u * ux)
    q = rfft(u * u + 0.5 * ux * ux)
    if dealias:
        adv *= grid.dealias_mask
        q *= grid.dealias_mask
    q += (2.0 * kappa) * uh
    q *= grid.ik_helmholtz
    q += adv
    return -irfft(q, n), ux


def _rhs_local_values(
    grid: Grid1D, u: np.ndarray, kappa: float, dealias: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Local tendency and u_x in one pass of six half-size transforms."""
    n = grid.n
    sym = grid.deriv_symbols
    uh = rfft(u)
    ux = irfft(sym[1] * uh, n)
    uxx = irfft(sym[2] * uh, n)
    uxxx = irfft(sym[3] * uh, n)
    quad = rfft(-3.0 * u * ux + 2.0 * ux * uxx + u * uxxx)
    if dealias:
        quad *= grid.dealias_mask
    quad -= (2.0 * kappa) * sym[1] * uh
    quad *= grid.helmholtz_symbol
    return irfft(quad, n), ux


_RHS_FORMS = {"nonlocal": _rhs_nonlocal_values, "local": _rhs_local_values}


def rhs_nonlocal(u: Field, kappa: float = 0.0, dealias: bool = True) -> Field:
    """Tendency du/dt in the nonlocal (transport + smoothed gradient) form."""
    du, _ = _rhs_nonlocal_values(u.grid, u.values, kappa, dealias)
    return Field(grid=u.grid, values=du)


def rhs_local(u: Field, kappa: float = 0.0, dealias: bool = True) -> Field:
    """Tendency du/dt in the local (third-derivative) form."""
    du, _ = _rhs_local_values(u.grid, u.values, kappa, dealias)
    return Field(grid=u.grid, values=du)


def _rk4_finish(grid, u, k1, dt, kappa, dealias, rhs_values):
    """Complete an RK4 step from ``u`` whose first stage ``k1`` is known."""
    k2 = rhs_values(grid, u + (0.5 * dt) * k1, kappa, dealias)[0]
    k3 = rhs_values(grid, u + (0.5 * dt) * k2, kappa, dealias)[0]
    k4 = rhs_values(grid, u + dt * k3, kappa, dealias)[0]
    return u + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def step_rk4(state: CHState, params: CHParams, form: str = "nonlocal") -> CHState:
    """Advance one RK4 step of size ``params.dt``."""
    rhs_values = _rhs_form(form)
    grid, u = state.u.grid, state.u.values
    k1 = rhs_values(grid, u, params.kappa, params.dealias)[0]
    u_new = _rk4_finish(grid, u, k1, params.dt, params.kappa, params.dealias, rhs_values)
    return CHState(t=state.t + params.dt, u=Field(grid=grid, values=u_new))


def _rhs_form(form: str):
    try:
        return _RHS_FORMS[form]
    except KeyError:
        raise ValueError(
            f"unknown rhs form {form!r}, expected one of {sorted(_RHS_FORMS)}"
        ) from None


def _invariants_values(grid: Grid1D, u: np.ndarray, ux: np.ndarray, kappa: float):
    h0 = grid.integrate_values(u)
    h1 = 0.5 * grid.integrate_values(u * u + ux * ux)
    h2 = 0.5 * grid.integrate_values(u**3 + u * ux * ux + (2.0 * kappa) * u * u)
    return float(h0), float(h1), float(h2)


def invariants(u: Field, kappa: float = 0.0) -> tuple[float, float, float]:
    """Conserved functionals (H0, H1, H2) of the evolution.

    H0 = int u dx
    H1 = (1/2) int (u^2 + u_x^2) dx
    H2 = (1/2) int (u^3 + u*u_x^2 + 2*kappa*u^2) dx
    """
    return _invariants_values(u.grid, u.values, u.grid.deriv_values(u.values), kappa)


def evolve(u0: Field, params: CHParams, form: str = "nonlocal") -> CHResult:
    """March ``u0`` to ``params.t_end``, recording invariant history.

    Raises :class:`WaveBreakingError` as soon as max |u_x| exceeds
    ``params.slope_ceiling``.  The slope of each time level is the u_x that
    the first RK4 stage of the next step computes anyway; only the final
    level takes its own derivative.  When dealiasing is on, the initial
    profile is projected onto the retained band first so the recorded t=0
    invariants refer to the field actually evolved.
    """
    rhs_values = _rhs_form(form)
    grid = u0.grid
    u = np.array(u0.values, dtype=float)
    if params.dealias:
        u = grid.dealias_values(u)

    steps = params.n_steps
    dt, kappa, dealias = params.dt, params.kappa, params.dealias

    times = []
    inv_rows = []
    snaps = []
    for s in range(steps + 1):
        t = s * dt
        if s < steps:
            k1, ux = rhs_values(grid, u, kappa, dealias)
        else:
            ux = grid.deriv_values(u)
        max_slope = float(np.max(np.abs(ux)))
        if max_slope > params.slope_ceiling:
            raise WaveBreakingError(t, max_slope, params.slope_ceiling)
        if s % params.record_every == 0 or s == steps:
            times.append(t)
            inv_rows.append(_invariants_values(grid, u, ux, kappa))
        if params.snapshot_every and (s % params.snapshot_every == 0 or s == steps):
            snaps.append((t, u.copy()))
        if s == steps:
            break
        u = _rk4_finish(grid, u, k1, dt, kappa, dealias, rhs_values)
        if not np.all(np.isfinite(u)):
            raise WaveBreakingError((s + 1) * dt, float("inf"), params.slope_ceiling)

    final = CHState(t=steps * dt, u=Field(grid=grid, values=u))
    return CHResult(
        params=params,
        grid=grid,
        final=final,
        times=np.array(times),
        invariants=np.array(inv_rows),
        snapshots=tuple(snaps),
    )


def invariants_to_csv(result: CHResult, path) -> None:
    """Write the recorded invariant history as CSV rows t,H0,H1,H2."""
    _write_csv(path, "t,H0,H1,H2", (result.times, result.invariants))
