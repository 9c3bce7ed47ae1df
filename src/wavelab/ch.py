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
cross-check.

The RK4 state is the half spectrum uh of u, so each right-hand-side stage
maps a spectrum to a tendency spectrum with one batched inverse call and one
batched forward call.  Every entry (:func:`evolve`, :func:`step_rk4`,
:func:`rhs_nonlocal`, :func:`rhs_local`) starts from :func:`_start`: the
stage kernel of its form, built once with the dealias mask, the sign and
the Helmholtz symbol folded into its multipliers, and rfft(u), projected
onto the retained band (modes above n/3 set to 0) when dealiasing is on.
Per stage:

* nonlocal, multiplier stack M = -mask * (1, ik/(1+k^2)):
  irfft of uh*(1, ik) gives (u, u_x); one multiply u*(u_x, u) and one add
  of u_x^2/2 to row 1 give (u*u_x, u^2 + u_x^2/2); rfft of that stack; an
  add of 2*kappa*uh to row 1 (kappa != 0 only); one multiply by M; row 0
  += row 1.  2 calls, 4 transforms, 7 elementwise calls (9 with kappa).
* local, multipliers mask/(1+k^2) and 2*kappa*ik:
  irfft of uh*(ik)^p, p = 0..3; the combined product; rfft of it; a
  subtraction of 2*kappa*ik*uh (kappa != 0 only); one real multiply.
  2 calls, 5 transforms.

Folding the mask past the 2*kappa*uh term is exact because every spectrum
a dealiased kernel sees lies in the retained band: the start is projected
and every tendency is masked.

An RK4 step is thus 8 calls, 16 transforms (nonlocal) or 20 (local); the
stage inputs uh + c*k are formed out of place and the final combination
accumulates in place into k2.

Time stepping is classical RK4 with a fixed step.  Slopes are monitored at
every time level, on the u_x that the first RK4 stage of the next step
synthesises anyway (the final level takes one inverse call of its own), and
a :class:`WaveBreakingError` halts the run when max |u_x| crosses the
configured ceiling or the state turns non-finite.  The step count and the
RK4 step are the rules shared with the peakon integrator
(:data:`wavelab.grid.MAX_STEPS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid1D, NumericalHaltError, _fixed_steps, _rk4_finish, _write_csv
from .grid import _require_positive, irfft, rfft

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


class WaveBreakingError(NumericalHaltError):
    """The solution steepened past the configured slope ceiling.

    A halt of stage ``"ch.evolve"`` carrying ``t`` (time of detection),
    ``max_slope`` and ``ceiling`` for a structured diagnostic.
    """

    def __init__(self, t: float, max_slope: float, ceiling: float):
        super().__init__("ch.evolve", f"wave breaking: max |u_x| = {max_slope:.6g} exceeded "
                         f"ceiling {ceiling:.6g} at t = {t:.6g}")
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
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        _fixed_steps(self.dt, self.t_end, self.record_every)
        _require_positive(slope_ceiling=self.slope_ceiling)
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    @property
    def n_steps(self) -> int:
        return _fixed_steps(self.dt, self.t_end, self.record_every)


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

    final: CHState
    times: np.ndarray
    invariants: np.ndarray
    snapshots: tuple


def _nonlocal_stage(grid: Grid1D, kappa: float, dealias: bool):
    """The nonlocal stage kernel of one run: ``tendency(uh)`` returns the
    tendency spectrum of the half spectrum ``uh`` and the ``(u, u_x)``
    samples it was built from (see the module docstring for its steps and
    for why its folded mask is exact)."""
    n = grid.n
    synth = grid.deriv_symbols[:2]
    rows = np.stack((np.ones_like(grid.ik), grid.ik * grid.helmholtz_symbol))
    mult = -(rows * grid.dealias_mask) if dealias else -rows
    two_kappa = 2.0 * kappa

    def tendency(uh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u_ux = irfft(uh * synth, n)
        u, ux = u_ux
        products = u * u_ux[::-1]
        products[1] += 0.5 * ux * ux
        spec = rfft(products)
        if two_kappa:
            spec[1] += two_kappa * uh
        spec *= mult
        spec[0] += spec[1]
        return spec[0], u_ux

    return tendency


def _local_stage(grid: Grid1D, kappa: float, dealias: bool):
    """The local stage kernel of one run, with the contract of
    :func:`_nonlocal_stage`."""
    n = grid.n
    synth = grid.deriv_symbols
    smooth = grid.helmholtz_symbol * grid.dealias_mask if dealias else grid.helmholtz_symbol
    dispersion = (2.0 * kappa) * grid.ik if kappa else None

    def tendency(uh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        derivs = irfft(uh * synth, n)
        u, ux, uxx, uxxx = derivs
        quad = rfft(-3.0 * u * ux + 2.0 * ux * uxx + u * uxxx)
        if dispersion is not None:
            quad -= dispersion * uh
        quad *= smooth
        return quad, derivs[:2]

    return tendency


_RHS_FORMS = {"nonlocal": _nonlocal_stage, "local": _local_stage}


def _rhs_form(form: str):
    """The stage-kernel builder of ``form``; ValueError for an unknown one."""
    try:
        return _RHS_FORMS[form]
    except KeyError:
        raise ValueError(
            f"unknown rhs form {form!r}, expected one of {sorted(_RHS_FORMS)}"
        ) from None


def _start(u: Field, form: str, kappa: float, dealias: bool):
    """The stage kernel of ``form`` and the half spectrum every entry starts
    from: rfft(u), projected onto the retained band when ``dealias`` is on."""
    grid = u.grid
    tendency = _rhs_form(form)(grid, kappa, dealias)
    uh = rfft(u.values)
    if dealias:
        uh *= grid.dealias_mask
    return tendency, uh


def _rhs_samples(form: str, u: Field, kappa: float, dealias: bool) -> Field:
    tendency, uh = _start(u, form, kappa, dealias)
    return Field(grid=u.grid, values=irfft(tendency(uh)[0], u.grid.n))


def rhs_nonlocal(u: Field, kappa: float = 0.0, dealias: bool = True) -> Field:
    """The first-stage tendency du/dt of :func:`evolve` at u, nonlocal form."""
    return _rhs_samples("nonlocal", u, kappa, dealias)


def rhs_local(u: Field, kappa: float = 0.0, dealias: bool = True) -> Field:
    """The first-stage tendency du/dt of :func:`evolve` at u, local form."""
    return _rhs_samples("local", u, kappa, dealias)


def step_rk4(state: CHState, params: CHParams, form: str = "nonlocal") -> CHState:
    """The first RK4 step of :func:`evolve` from ``state``, bit for bit."""
    grid = state.u.grid
    tendency, uh = _start(state.u, form, params.kappa, params.dealias)
    uh = _rk4_finish(lambda v: tendency(v)[0], uh, tendency(uh)[0], params.dt)
    return CHState(t=state.t + params.dt, u=Field(grid=grid, values=irfft(uh, grid.n)))


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

    The RK4 state is the half spectrum of u.  Raises
    :class:`WaveBreakingError` as soon as max |u_x| exceeds
    ``params.slope_ceiling``, or when the state turns non-finite.  The
    slope and the invariants of each time level read the u and u_x that the
    first RK4 stage of the next step synthesises anyway; only the final
    level takes its own inverse call.  The march starts from
    :func:`_start`'s spectrum, projected when dealiasing is on, so the
    recorded t=0 invariants refer to the field actually evolved.
    """
    grid = u0.grid
    tendency, uh = _start(u0, form, params.kappa, params.dealias)
    slope = lambda v: tendency(v)[0]  # the RK4 stages read the spectrum only

    steps = params.n_steps
    dt, kappa = params.dt, params.kappa

    times = []
    inv_rows = []
    snaps = []
    for s in range(steps + 1):
        t = s * dt
        if s < steps:
            k1, (u, ux) = tendency(uh)
        else:
            u, ux = irfft(uh * grid.deriv_symbols[:2], grid.n)
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
        uh = _rk4_finish(slope, uh, k1, dt)
        if not np.all(np.isfinite(uh)):
            raise WaveBreakingError((s + 1) * dt, float("inf"), params.slope_ceiling)

    final = CHState(t=steps * dt, u=Field(grid=grid, values=u))
    return CHResult(
        final=final,
        times=np.array(times),
        invariants=np.array(inv_rows),
        snapshots=tuple(snaps),
    )


def invariants_to_csv(result: CHResult, path) -> None:
    """Write the recorded invariant history as CSV rows t,H0,H1,H2."""
    _write_csv(path, "t,H0,H1,H2", (result.times, result.invariants))
