"""Discrete variational calculus on paths of periodic diffeomorphisms.

A path gamma(t, x) = x + psi(t, x), with psi periodic in x and d(gamma)/dx
strictly positive, carries the kinetic-energy action

    a(gamma)      = (1/2) int_0^T int ( u^2 + u_x^2 ) dx dt,
    a_c0(gamma)   = (1/2) int_0^T int ( (u + c0)^2 + u_x^2 ) dx dt,

where u = gamma_t o gamma^{-1} is the spatial velocity.  Three independent
discretizations of the first variation in a direction phi (periodic, zero
at t = 0 and t = T) are provided:

* ``first_variation_fd``        central difference of the action in eps,
  the action evaluated in Lagrangian coordinates x = gamma(t, X),

      a_c0(gamma) = (1/2) int_0^T int ( (gamma_t + c0)^2 gamma_X
                                        + gamma_tX^2 / gamma_X ) dX dt,

  which takes spectral X-derivatives only: no gamma^{-1} and no spline;
  no varied :class:`DiffeoPath` is built either: each action reads
  gamma +- eps*phi block by block and tests gamma_X > 0 on the levels it
  integrates, and on levels 0 and K; a variation that fails a test is
  ruled on by ``path.perturbed``, which raises its error;
* ``first_variation_midpoint``  the integrated-by-parts-in-eps integrand,
  using theta = phi o gamma^{-1};
* ``first_variation_el``        minus the integral of theta against the
  Euler-Lagrange residual

      R = u_t + 2*c0*u_x + 3*u*u_x - u_txx - 2*u_x*u_xx - u*u_xxx.

The midpoint and EL routes work in the Eulerian frame, so the FD route
shares no interpolation code with the two routes it checks.  Agreement of
the three, and its improvement under refinement in eps and in the time
step, is what :func:`verify_variational_identity` reports.

Discretization choices, load-bearing for the observed orders:

* gamma_t is centered in time, so velocities exist only at interior time
  levels; the action quadrature therefore runs over k = 1..K-1 with
  end-corrected weights dt*[3/2, 1, ..., 1, 3/2] that sum exactly to T and
  keep the quadrature second order in dt.
* the midpoint sum runs over k = 1..K-1 with the same end-corrected
  weights (its integrand does not vanish at the endpoints, the theta_t
  terms survive there); the EL sum runs over k = 2..K-2 with flat dt
  weights, since theta vanishes linearly at the endpoints and the omitted
  strips cost only O(dt^2).  Each field's x-derivatives there share one
  forward transform (``Grid1D.deriv_values`` with several orders).
* for the midpoint and EL routes and :func:`spatial_velocity`, gamma^{-1}
  is computed by Newton iteration to residual 1e-12 on the monotone PCHIP
  interpolant (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980; scipy's
  harmonic-mean slopes) of gamma(x + L) = gamma(x) + L,
  started from the samples' x - psi(x) and taking no slope on its last
  evaluation; a block's rows iterate together, and a row that has stopped
  takes a zero step; each point's cell coefficients are gathered once per
  block, and a later evaluation gathers again only the points whose cell
  moved (about 1% of them), which changes no bit; off-grid evaluation
  of periodic samples uses the periodic cubic spline, whose B-spline
  coefficients come from one circulant solve.

Both interpolation kernels follow the grid's last-axis convention: a
``(..., n)`` stack of rows takes one call and gives each row the bits of a
single-row call.  Every per-level stack is ``(K+1, n)`` and indexed by
time level 0..K (u's rows 0 and K hold NaN).  The routes walk the levels
in blocks of about 64 KiB per level array (32 levels at n = 256), not
whole stacks: whole-stack temporaries are large enough that the allocator
maps, trims and faults them back in on every pass.  Every kernel is
row-independent, so the blocking leaves every bit unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid1D, NumericalHaltError, _require_positive, _require_samples
from .grid import _uniform_step, irfft, rfft

__all__ = [
    "DiffeoPath",
    "PathPerturbation",
    "SinusoidalPathSpec",
    "BumpPerturbationSpec",
    "uniform_times",
    "inverse_diffeo",
    "periodic_interp",
    "spatial_velocity",
    "action",
    "el_residual",
    "first_variation_fd",
    "first_variation_midpoint",
    "first_variation_el",
    "verify_variational_identity",
    "compose_with_diffeo",
]


def uniform_times(t_total: float, n_intervals: int) -> np.ndarray:
    """K+1 equally spaced sample times on [0, T]."""
    _require_positive(t_total=t_total)
    if n_intervals < 2:
        raise ValueError("need at least 2 time intervals")
    return np.linspace(0.0, t_total, n_intervals + 1)


_MIN_INTERVALS = 4  # the midpoint and EL routes need two interior summation levels

# bytes of one per-level temporary of a route: see _blocks
_BLOCK_BYTES = 64 * 1024


def _blocks(first: int, stop: int, n: int) -> list:
    """Consecutive slices covering levels ``first..stop-1``, each at most
    max(1, _BLOCK_BYTES // (8 n)) levels of n float64 samples."""
    step = max(1, _BLOCK_BYTES // (8 * n))
    return [slice(i, min(i + step, stop)) for i in range(first, stop, step)]


def _check_levels(grid: Grid1D, times, values, name: str):
    """``times`` and the samples ``values`` as float arrays, checked: at
    least 3 uniformly increasing times and one finite row of n samples per
    time; ``name`` names the samples in the error."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 3:
        raise ValueError("times must hold at least 3 levels (K >= 2)")
    _uniform_step("times", times)
    return times, _require_samples(name, values, (len(times), grid.n))


@dataclass(frozen=True, eq=False)
class DiffeoPath:
    """Sampled path gamma(t_k, x_j) of periodic diffeomorphisms.

    ``gamma`` has shape (K+1, n); each row must be x + (periodic part) with
    strictly positive spectral derivative.
    """

    grid: Grid1D
    times: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        times, gamma = _check_levels(self.grid, self.times, self.gamma, "gamma")
        low = np.empty(len(times))
        for b in _blocks(0, len(times), self.grid.n):
            low[b] = np.min(1.0 + self.grid.deriv_values(gamma[b] - self.grid.x), axis=-1)
        bad = np.flatnonzero(~(low > 0.0))  # a NaN slope is no diffeomorphism either
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"path is not a diffeomorphism: min d(gamma)/dx = {low[k]:.3g} at time level {k}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "gamma", gamma)

    @property
    def psi(self) -> np.ndarray:
        """Periodic displacement gamma - x, shape (K+1, n)."""
        return self.gamma - self.grid.x[None, :]

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def perturbed(self, pert: "PathPerturbation", eps: float) -> "DiffeoPath":
        """The varied path gamma + eps*phi (checked to stay a diffeo)."""
        _check_match(self, pert)
        try:
            return DiffeoPath(
                grid=self.grid, times=self.times, gamma=self.gamma + eps * pert.phi
            )
        except ValueError as exc:
            raise ValueError(f"variation failed at eps={eps}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PathPerturbation:
    """Variation direction phi(t_k, x_j), periodic, zero at t=0 and t=T."""

    grid: Grid1D
    times: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        times, phi = _check_levels(self.grid, self.times, self.phi, "phi")
        scale = max(float(np.max(np.abs(phi))), 1.0)
        if np.max(np.abs(phi[0])) > 1e-12 * scale or np.max(np.abs(phi[-1])) > 1e-12 * scale:
            raise ValueError("phi must vanish at both endpoint time levels")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "phi", phi)


def _check_match(path: DiffeoPath, pert: PathPerturbation) -> None:
    """ValueError unless ``pert`` lives on the grid and times of ``path``."""
    if pert.grid != path.grid or not np.array_equal(pert.times, path.times):
        raise ValueError("perturbation does not live on the grid and times of the path")


def _locate(grid: Grid1D, points: np.ndarray):
    """Whole periods q, cell j in 0..n-1 and fraction t in [0, 1] with
    points = x_0 + q*L + (j + t)*h.  A non-finite point takes any cell and a
    NaN fraction."""
    offset = (np.asarray(points, dtype=float) - grid.x[0]) / grid.length
    with np.errstate(invalid="ignore"):
        periods = np.floor(offset)
        u = (offset - periods) * grid.n
        j = u.astype(np.intp)
    # in place: np.clip's wrapper costs more than both passes
    np.maximum(j, 0, out=j)
    np.minimum(j, grid.n - 1, out=j)
    return periods, j, u - j


def _pchip_cells(grid: Grid1D, gamma: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0), shape (4, ..., n), of the PCHIP
    interpolant of the periodic extension gamma(x + L) = gamma(x) + L: on
    cell j it is c3*t^3 + c2*t^2 + c1*t + c0 at x = x_j + t*h."""
    following = np.concatenate([gamma[..., 1:], gamma[..., :1] + grid.length], axis=-1)
    rise = following - gamma
    before = np.concatenate([rise[..., -1:], rise[..., :-1]], axis=-1)
    # node slopes times h: zero where the neighbouring secants differ in
    # sign or one is zero, their harmonic mean elsewhere
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = 2.0 / (1.0 / before + 1.0 / rise)
    slope[(np.sign(before) != np.sign(rise)) | (before == 0.0) | (rise == 0.0)] = 0.0
    after = np.concatenate([slope[..., 1:], slope[..., :1]], axis=-1)
    return np.stack([slope + after - 2.0 * rise, 3.0 * rise - 2.0 * slope - after, slope, gamma])


def _pchip_value(grid: Grid1D, coef: np.ndarray, periods: np.ndarray, t: np.ndarray):
    """Value of the PCHIP interpolants at points that :func:`_locate` put
    ``periods`` whole periods and fractions ``t`` into their cells, given
    ``coef``, shape (4, ...), the :func:`_pchip_cells` coefficients of each
    point's cell; a non-finite point gives NaN."""
    c3, c2, c1, c0 = coef
    return ((c3 * t + c2) * t + c1) * t + c0 + periods * grid.length


def _pchip_slope(grid: Grid1D, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative at the points that :func:`_pchip_value` takes with the same coef and t."""
    return ((3.0 * coef[0] * t + 2.0 * coef[1]) * t + coef[2]) / grid.h


_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 50


def inverse_diffeo(grid: Grid1D, gamma: np.ndarray) -> np.ndarray:
    """Solve gamma(s) = x at each grid point x, one row of ``gamma`` at a time.

    ``gamma`` holds samples on its last axis, shape (..., n).  Each row is
    extended periodically, gamma(x + L) = gamma(x) + L, interpolated
    monotonically with PCHIP, and inverted by Newton iteration from the samples'
    x - psi(x), with no slope on the last evaluation.  A block's rows (see
    :func:`_blocks`) iterate together; a row that has stopped, its largest
    residual at most ``_NEWTON_TOL``, takes a zero step, so it keeps the bits
    of a single-row call and a zero slope there never reaches it.
    """
    gamma = np.asarray(gamma, dtype=float)
    x = np.broadcast_to(grid.x, gamma.shape).reshape(-1, grid.n)
    cells = _pchip_cells(grid, gamma.reshape(x.shape)).reshape(4, -1)
    s = 2.0 * x - gamma.reshape(x.shape)
    periods, j, t = _locate(grid, s)
    # each point's cell coefficients, gathered once; a later evaluation
    # gathers only the points whose cell moved
    coef = cells.take(np.arange(0, cells.shape[1], grid.n)[:, None] + j, axis=1)
    for _ in range(_NEWTON_ITERS):
        resid = _pchip_value(grid, coef, periods, t) - x
        # a NaN residual keeps its row going, so it ends in the error below
        going = ~(np.max(np.abs(resid), axis=-1) <= _NEWTON_TOL)
        if not going.any():
            return s.reshape(gamma.shape)
        # a zero slope sends a running row to NaN, which ends in the error below
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / _pchip_slope(grid, coef, t)
        step[~going] = 0.0
        s -= step
        periods, cell, t = _locate(grid, s)
        # flat point index p lies in the row that starts at cell p - p % n
        moved = np.flatnonzero(cell != j)
        coef.reshape(4, -1)[:, moved] = cells.take(
            moved - moved % grid.n + cell.take(moved), axis=1
        )
        j = cell
    resid = float(np.max(np.abs(_pchip_value(grid, coef, periods, t) - x)))
    raise NumericalHaltError(
        "inverse_diffeo",
        f"diffeomorphism inversion did not reach {_NEWTON_TOL:g} in {_NEWTON_ITERS} "
        f"iterations (residual {resid:.3g})",
    )


def periodic_interp(grid: Grid1D, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate periodic samples at arbitrary points via a periodic cubic spline.

    ``values`` holds samples on its last axis, shape (..., n), and
    ``points`` (shape (..., m)) broadcasts against it: one set shared by
    every row, or one per row.  The result has the broadcast leading shape
    and m points; a non-finite point gives NaN.
    """
    values = np.asarray(values, dtype=float)
    # B-spline coefficients: (c[j-1] + 4 c[j] + c[j+1]) / 6 = v[j], one
    # circulant solve on the half spectrum
    symbol = (4.0 + 2.0 * np.cos(grid.k_half * grid.h)) / 6.0
    coef = irfft(rfft(values) / symbol, grid.n)
    # c[j-1], ..., c[j+2] of cell j sit at j, ..., j+3 of the padded row
    coef = np.concatenate([coef[..., -1:], coef, coef[..., :2]], axis=-1)
    _, j, t = _locate(grid, points)
    # flat index of each point's cell in its row; rows and points broadcast
    cell = np.arange(0, coef.size, coef.shape[-1]).reshape(coef.shape[:-1] + (1,)) + j
    flat = coef.ravel()
    c0, c1, c2, c3 = (flat[tap:].take(cell) for tap in range(4))
    s = 1.0 - t
    t2, s2 = t * t, s * s
    # the cubic B-spline's four weights
    return (s2 * s * c0 + (4.0 - 6.0 * t2 + 3.0 * t2 * t) * c1
            + (4.0 - 6.0 * s2 + 3.0 * s2 * s) * c2 + t2 * t * c3) / 6.0


def _levels(path: DiffeoPath, rows: slice, pert=None, eps: float = 0.0) -> np.ndarray:
    """The levels ``rows`` of gamma, or given ``pert`` of the varied
    gamma + eps*phi, with the bits of those rows of the whole-stack sum."""
    gamma = path.gamma[rows]
    return gamma if pert is None else gamma + eps * pert.phi[rows]


def _displacement_levels(path: DiffeoPath, b: slice, pert=None, eps: float = 0.0):
    """psi and its centred time derivative psi_t at the interior levels of
    the block ``b``, each shape (B, n); of the varied path given ``pert``."""
    psi = _levels(path, slice(b.start - 1, b.stop + 1), pert, eps) - path.grid.x
    return psi[1:-1], (psi[2:] - psi[:-2]) / (2.0 * path.dt)


def _interior_blocks(path: DiffeoPath, first: int, stop: int, *fields):
    """Per block of the interior levels first..stop-1: the block as a slice
    of levels and ``pulled``, shape (B, 1 + F, n).  One stacked call per
    block composes u and any per-level fields (each shape (K+1, n)) with
    gamma^{-1}: u is ``pulled[:, 0]`` and field i is ``pulled[:, 1 + i]``."""
    grid = path.grid
    for b in _blocks(first, stop, grid.n):
        _, psi_t = _displacement_levels(path, b)
        s = inverse_diffeo(grid, path.gamma[b])
        # every field of a level is read through the same inverse; this stack
        # lives until the next block's exists, so the heap top is not trimmed
        yield b, periodic_interp(
            grid, np.stack([psi_t, *(f[b] for f in fields)], axis=1), s[:, None, :]
        )


def _interior_state(path: DiffeoPath, pert: PathPerturbation):
    """Velocity u and theta = phi o gamma^{-1}, both shape (K+1, n) and
    indexed by level: u is NaN and theta zero at levels 0 and K."""
    _check_match(path, pert)
    if path.n_intervals < _MIN_INTERVALS:
        raise ValueError(f"the midpoint and EL variations need K >= {_MIN_INTERVALS} intervals")
    u = np.empty_like(pert.phi)
    u[0] = u[-1] = np.nan
    theta = np.zeros_like(pert.phi)
    for b, pulled in _interior_blocks(path, 1, path.n_intervals, pert.phi):
        u[b] = pulled[:, 0]
        theta[b] = pulled[:, 1]
    return u, theta


def spatial_velocity(path: DiffeoPath, k: int) -> Field:
    """u(t_k) = gamma_t o gamma^{-1} at an interior time level."""
    if not 1 <= k <= path.n_intervals - 1:
        raise IndexError(
            f"spatial velocity needs an interior level 1..{path.n_intervals - 1}, got {k}"
        )
    [(_, pulled)] = _interior_blocks(path, k, k + 1)
    return Field(path.grid, pulled[0, 0])


def _time_weights(big_k: int, dt: float) -> np.ndarray:
    # interior levels 1..K-1; half-cell corrections at both ends make the
    # weights sum to exactly K*dt = T
    w = np.full(big_k - 1, dt)
    w[0] += 0.5 * dt
    w[-1] += 0.5 * dt
    return w


def action(path: DiffeoPath, c0: float = 0.0) -> float:
    """Kinetic action (1/2) iint ((u + c0)^2 + u_x^2) dx dt: a(gamma) at
    c0 = 0, a_c0(gamma) otherwise.

    Evaluated in Lagrangian coordinates: x = gamma(t, X) turns it into

        (1/2) iint ( (gamma_t + c0)^2 gamma_X + gamma_tX^2 / gamma_X ) dX dt,

    with gamma_t = psi_t centred in time and gamma_X = 1 + psi_X, gamma_tX
    spectral X-derivatives, so no gamma^{-1} and no spline enter; gamma_X
    is positive on every :class:`DiffeoPath`."""
    return _action(path, c0)


def _action(path: DiffeoPath, c0: float, pert=None, eps: float = 0.0) -> float:
    """:func:`action` of ``path``, or given ``pert`` of the varied path
    gamma + eps*phi, read block by block and never built whole.  A varied
    path is tested on the levels the action reads, with the gamma_X that
    it takes anyway at the interior levels and one derivative of levels 0
    and K; where a test fails, ``path.perturbed(pert, eps)`` rules on the
    variation and raises its error."""
    grid, big_k = path.grid, path.n_intervals
    # these slopes have the bits of DiffeoPath's (the same rows, row-wise
    # transforms, and g_x += 1.0 is 1.0 + deriv), so path.perturbed raises its
    # error where a test fails; were it ever to accept, carrying on is right
    if pert is not None:
        ends = _levels(path, slice(None, None, big_k), pert, eps)
        if not np.min(1.0 + grid.deriv_values(ends - grid.x)) > 0.0:  # a NaN fails
            path.perturbed(pert, eps)
    ints = np.empty(len(path.times))
    for b in _blocks(1, big_k, grid.n):
        psi, psi_t = _displacement_levels(path, b, pert, eps)
        g_x, g_tx = grid.deriv_values(np.stack([psi, psi_t]))
        g_x += 1.0
        if pert is not None and not np.min(g_x) > 0.0:
            path.perturbed(pert, eps)
        ints[b] = grid.integrate_values((psi_t + c0) ** 2 * g_x + g_tx * g_tx / g_x)
    # sum() adds the levels one at a time in time order; np.sum's pairwise
    # order would round the reported values differently
    return float(sum(_time_weights(big_k, path.dt) * 0.5 * ints[1:-1]))


def el_residual(
    u_prev: Field, u_mid: Field, u_next: Field, dt: float, kappa: float = 0.0
) -> Field:
    """Euler-Lagrange residual at the middle of a snapshot triple.

    R = u_t + 2*kappa*u_x + 3*u*u_x - u_txx - 2*u_x*u_xx - u*u_xxx, with
    the time derivative centered over (u_prev, u_next).
    """
    _require_positive(dt=dt)
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    grid = u_mid.grid
    if u_prev.grid != grid or u_next.grid != grid:
        raise ValueError("snapshot triple must share one grid")
    return Field(
        grid, _el_residual_values(grid, u_prev.values, u_mid.values, u_next.values, dt, kappa)
    )


def _el_residual_values(grid: Grid1D, u_prev, u, u_next, dt: float, kappa: float) -> np.ndarray:
    """:func:`el_residual` on sample arrays; stacked levels on leading axes."""
    u_t = (u_next - u_prev) / (2.0 * dt)
    ux, uxx, uxxx = grid.deriv_values(u, 1, 2, 3)
    u_txx = grid.deriv_values(u_t, 2)
    base = u_t + 3.0 * u * ux - u_txx - 2.0 * ux * uxx - u * uxxx
    return base + (2.0 * kappa) * ux


def first_variation_fd(
    path: DiffeoPath, pert: PathPerturbation, eps: float, c0: float = 0.0
) -> float:
    """Central difference (a(gamma + eps*phi) - a(gamma - eps*phi)) / (2 eps).

    No varied :class:`DiffeoPath` is built: each action reads
    gamma +- eps*phi block by block and tests gamma_X on the levels it
    integrates (and levels 0 and K); a variation that fails a test is
    handed to ``path.perturbed(pert, +-eps)``, which raises its error."""
    _require_positive(eps=eps)
    _check_match(path, pert)
    a_plus = _action(path, c0, pert, eps)
    a_minus = _action(path, c0, pert, -eps)
    return (a_plus - a_minus) / (2.0 * eps)


def _midpoint_sum(grid: Grid1D, u_all, theta_all, dt: float, c0: float) -> float:
    # levels 1..K-1; a block of u reads theta one level beyond each side
    big_k = len(theta_all) - 1
    ints = np.empty(big_k + 1)
    for b in _blocks(1, big_k, grid.n):
        u, th = u_all[b], theta_all[b]
        theta = theta_all[b.start - 1:b.stop + 1]
        ux, uxx = grid.deriv_values(u, 1, 2)
        thx, thxx = grid.deriv_values(th, 1, 2)
        th_t = (theta[2:] - theta[:-2]) / (2.0 * dt)
        th_tx = grid.deriv_values(th_t)
        integrand = (u + c0) * (th_t + u * thx - th * ux)
        integrand += ux * (th_tx + u * thxx - th * uxx)
        ints[b] = grid.integrate_values(integrand)
    return float(sum(_time_weights(big_k, dt) * ints[1:-1]))


def _el_sum(grid: Grid1D, u_all, theta_all, dt: float, c0: float) -> float:
    # levels 2..K-2; a block of theta reads u one level beyond each side
    big_k = len(u_all) - 1
    ints = np.empty(big_k + 1)
    for b in _blocks(2, big_k - 1, grid.n):
        u = u_all[b.start - 1:b.stop + 1]
        residual = _el_residual_values(grid, u[:-2], u[1:-1], u[2:], dt, c0)
        ints[b] = grid.integrate_values(theta_all[b] * residual)
    # each term is negated before the sum so a zero variation stays +0.0
    return float(sum(-dt * ints[2:-2]))


def first_variation_midpoint(
    path: DiffeoPath, pert: PathPerturbation, c0: float = 0.0
) -> float:
    """The variation written against theta = phi o gamma^{-1} before any
    integration by parts:

        iint { (u + c0) [theta_t + u theta_x - theta u_x]
               + u_x [theta_tx + u theta_xx - theta u_xx] } dx dt
    """
    u, theta = _interior_state(path, pert)
    return _midpoint_sum(path.grid, u, theta, path.dt, c0)


def first_variation_el(
    path: DiffeoPath, pert: PathPerturbation, c0: float = 0.0
) -> float:
    """- iint theta * R dx dt with R the Euler-Lagrange residual (kappa=c0)."""
    u, theta = _interior_state(path, pert)
    return _el_sum(path.grid, u, theta, path.dt, c0)


def verify_variational_identity(
    path: DiffeoPath, pert: PathPerturbation, eps: float = 1e-3, c0: float = 0.0
) -> dict:
    """Compare the three discretizations of the first variation.

    Returns a report with D_fd, D_mid, D_el and the relative mismatches of
    the midpoint and EL routes against the finite-difference route.
    """
    d_fd = first_variation_fd(path, pert, eps, c0)
    # the midpoint and EL routes read the same u and theta
    u, theta = _interior_state(path, pert)
    d_mid = _midpoint_sum(path.grid, u, theta, path.dt, c0)
    d_el = _el_sum(path.grid, u, theta, path.dt, c0)
    if not np.all(np.isfinite([d_fd, d_mid, d_el])):
        raise NumericalHaltError(
            "verify_variational_identity",
            f"first variation is not finite: D_fd={d_fd}, D_mid={d_mid}, D_el={d_el}",
        )
    scale = max(abs(d_fd), 1e-300)
    return {
        "D_fd": d_fd,
        "D_mid": d_mid,
        "D_el": d_el,
        "rel_fd_mid": abs(d_fd - d_mid) / scale,
        "rel_fd_el": abs(d_fd - d_el) / scale,
        "eps": float(eps),
        "c0": float(c0),
        "n": path.grid.n,
        "K": path.n_intervals,
    }


def compose_with_diffeo(path: DiffeoPath, chi: np.ndarray) -> DiffeoPath:
    """Right-translate the path: samples of gamma(t, chi(x)).

    ``chi`` holds samples of a fixed (time-independent) diffeomorphism at
    the grid points; the periodic displacement of gamma is re-evaluated at
    chi by spline interpolation.  The spatial velocity of the composed path
    equals that of the original (right invariance), up to interpolation
    error.
    """
    grid = path.grid
    chi = _require_samples("chi", chi, (grid.n,))
    gamma = chi + periodic_interp(grid, path.psi, chi)
    return DiffeoPath(grid=grid, times=path.times, gamma=gamma)


@dataclass(frozen=True)
class SinusoidalPathSpec:
    """Analytic path generator psi(t, x) = amp * sum_m a_m sin(k_m x - w_m t + p_m).

    Being closed-form, the same spec can be sampled on any (n, K) pair, so
    refinement studies compare discretizations of one underlying path.
    """

    mode_amps: tuple
    omegas: tuple
    phases: tuple
    amplitude: float

    @classmethod
    def random(cls, rng, n_modes: int = 3, amplitude: float = 0.05):
        amps = tuple(rng.uniform(0.5, 1.0, n_modes) / np.arange(1, n_modes + 1) ** 2)
        omegas = tuple(rng.uniform(0.5, 1.5, n_modes))
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, n_modes))
        return cls(amps, omegas, phases, amplitude)

    def psi(self, x: np.ndarray, t: float, length: float) -> np.ndarray:
        # x and t broadcast: a column of times gives one row per time
        out = np.zeros(np.broadcast(x, t).shape)
        for m, (a, w, p) in enumerate(
            zip(self.mode_amps, self.omegas, self.phases), start=1
        ):
            km = 2.0 * np.pi * m / length
            out += a * np.sin(km * x - w * t + p)
        return self.amplitude * out

    def build(self, grid: Grid1D, times: np.ndarray) -> DiffeoPath:
        gamma = grid.x + self.psi(grid.x, np.asarray(times)[:, None], grid.length)
        return DiffeoPath(grid=grid, times=times, gamma=gamma)


@dataclass(frozen=True)
class BumpPerturbationSpec:
    """phi(t, x) = amp * s(1-s) * sum_m b_m sin(k_m x + c_m), s = (t - t_0)/T: 0 at both ends."""

    mode_amps: tuple
    phases: tuple
    amplitude: float

    @classmethod
    def random(cls, rng, n_modes: int = 3, amplitude: float = 0.1):
        amps = tuple(rng.uniform(0.5, 1.0, n_modes) / np.arange(1, n_modes + 1) ** 2)
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, n_modes))
        return cls(amps, phases, amplitude)

    def phi(self, x: np.ndarray, t: float, length: float, t_total: float) -> np.ndarray:
        s = t / t_total
        modes = SinusoidalPathSpec(self.mode_amps, (0.0,) * len(self.phases), self.phases, 1.0)
        return self.amplitude * (s * (1.0 - s)) * modes.psi(x, 0.0, length)

    def build(self, grid: Grid1D, times: np.ndarray) -> PathPerturbation:
        t = np.asarray(times)[:, None] - times[0]  # one row per level, from the first
        return PathPerturbation(grid, times, self.phi(grid.x, t, grid.length, float(t[-1, 0])))
