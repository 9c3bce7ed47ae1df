"""Peaked solitary waves as an interacting particle system.

An N-peak profile u(x) = sum_i p_i exp(-|x - q_i|) stays in that family
under the kappa = 0 dispersive shallow-water flow; the peak positions and
momenta obey the canonical system

    dq_i/dt = sum_j p_j exp(-|q_i - q_j|)                       =  dH/dp_i
    dp_i/dt = sum_j p_i p_j sgn(q_i - q_j) exp(-|q_i - q_j|)    = -dH/dq_i

with H = (1/2) sum_ij p_i p_j exp(-|q_i - q_j|) and the convention
sgn(0) = 0.  Total momentum P = sum_i p_i is conserved exactly by any
Runge-Kutta step (it is a linear invariant); H is conserved by the flow
and tracks the quadratic invariant of the PDE: H1 of the sampled profile
equals 2 H up to periodization error.

Both sums over j cost O(N), not O(N^2): on positions sorted ascending the
kernel splits into exp(+-q) factors, so every right-hand side and H come
from one prefix and one suffix sum (the fast summation of Camassa, Huang
and Lee, J. Comput. Phys. 216, 2006), taken in blocks so that no
exponential overflows, each block's scans starting from the sums carried
in from the blocks before and after it.  Coincident peaks merge: the
kernel sees one peak carrying their summed momentum, so tied peaks move
as one and a tie never opens.

Peaks of opposite sign collide in finite time with momenta blowing up.
Peak order is preserved until then, so the integrator keeps the state
sorted, watches only neighbouring separations every step and raises
:class:`CollisionError` with a time estimate instead of integrating into
the singularity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid1D, NumericalHaltError, _fixed_steps, _rk4_finish, _write_csv
from .grid import _require_samples, _wrap, irfft

__all__ = [
    "PeakonEnsemble",
    "PeakonTrajectory",
    "CollisionError",
    "ode_rhs",
    "hamiltonian",
    "evolve_peakons",
    "sample_field",
    "mollified_field",
    "trajectory_to_csv",
]


class CollisionError(NumericalHaltError):
    """Two peaks of opposite sign are about to collide.

    A halt of stage ``"peakons.evolve_peakons"`` carrying ``t_estimate``
    (when the separation closes), ``pair`` (indices, or None if the state
    degenerated to non-finite values first) and ``separation`` (last gap).
    """

    def __init__(self, t_estimate: float, pair, separation: float):
        where = f"pair {pair}" if pair is not None else "ensemble"
        super().__init__("peakons.evolve_peakons", f"peak collision: {where} separation "
                         f"{separation:.3g} near t = {t_estimate:.6g}")
        self.t_estimate = t_estimate
        self.pair = pair
        self.separation = separation


@dataclass(frozen=True, eq=False)
class PeakonEnsemble:
    """Positions q and momenta p of N interacting peaks."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        q = _require_samples("q", np.atleast_1d(self.q))
        if q.ndim != 1 or q.size < 1:
            raise ValueError(f"q must be 1-d with at least one peak, got shape {q.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", _require_samples("p", np.atleast_1d(self.p), q.shape))

    @property
    def n(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class PeakonTrajectory:
    """Recorded history of an ensemble run: rows of q, p plus H and P."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H: np.ndarray
    P: np.ndarray

    @property
    def final(self) -> PeakonEnsemble:
        return PeakonEnsemble(q=self.q[-1], p=self.p[-1])


# Widest span of positions that shares one exponential scale.  About the
# midpoint c of such a block |x - c| <= 256, so exp(x - c) stays within
# e^{+-256}, far inside float64, and the rounding of x - c, at most 2^-45,
# is the largest error of the kernel: a relative 3e-14 per term.  A sum
# carried into a block enters its scan as one term in that frame, kept
# only while that term is a normal float (at least _TINY).
_BLOCK_SPAN = 512.0
_TINY = np.finfo(float).tiny


def _block_sums(x: np.ndarray, w: np.ndarray):
    """_sorted_sums for a span of at most _BLOCK_SPAN: cumsum(w e) / e and
    the reversed cumsum(w / e) * e with e = exp(x - c) about the midpoint c."""
    e = np.exp(x - 0.5 * (x[0] + x[-1]))
    # np.add.accumulate is np.cumsum without its per-call overhead, which
    # shows at the N <= 3 of the cross-validation scenarios
    lo = np.add.accumulate(w * e)
    lo /= e
    hi = np.add.accumulate((w / e)[::-1])[::-1]
    hi *= e
    return lo, hi


def _seeded_scan(
    x: np.ndarray, t: np.ndarray, e: np.ndarray, blocks: list, unscale
) -> np.ndarray:
    """Running sums of the terms t along x, block by block in the order of
    blocks: (a, b, c) sums t[a:b] in the frame of its midpoint c.  The
    sums, taken back out of their frames by the in-place unscale(sums, e),
    are returned in t itself.  x ascends for lo and, as mirrored views,
    descends for hi.

    Every block after the first starts from the sum s carried in from the
    point x[a - 1] just before it, entered in its own frame as one term
    s exp(-|x[a - 1] - c|) ahead of t[a].  After a gap of several hundred
    that term would underflow while the true s exp(-|x[a - 1] - x|) of the
    block's points need not, so there s is added after the scan in that
    form, which underflows only where the true term does.  What such a
    block carries on is then smaller than the underflowed term, so its
    loss is below the smallest normal float.
    """
    carry = 0.0  # the sum at the last point of the block before
    late = []
    for k, (a, b, c) in enumerate(blocks):
        if k:
            seed = carry * math.exp(-abs(x[a - 1] - c))
            if not abs(seed) < _TINY:  # a NaN enters too, and marks the rest
                t[a] += seed
            elif carry:
                late.append((a, b, carry))
        block = t[a:b]
        np.add.accumulate(block, out=block)
        carry = unscale(block[-1], e[b - 1])
    sums = unscale(t, e)
    for a, b, carry in late:
        sums[a:b] += carry * np.exp(-np.abs(x[a - 1] - x[a:b]))
    return sums


def _sorted_sums(x: np.ndarray, w: np.ndarray):
    """One-sided kernel sums over ascending positions x with weights w, in O(N).

    Returns the inclusive sums lo_i = sum_{j<=i} w_j exp(-(x_i - x_j)) and
    hi_i = sum_{j>=i} w_j exp(-(x_j - x_i)).  A longer span is cut into
    blocks of span at most _BLOCK_SPAN, each reaching from its first point
    to the last one within _BLOCK_SPAN of it, and scanned as in _block_sums
    with its own midpoint.  The prefix scan of each block starts from the
    lo carried in from the blocks before it, the suffix scan from the hi of
    the blocks after it (see _seeded_scan), so a carry costs one term, not
    a pass over the block.  No exponent exceeds 256, so nothing overflows;
    far terms underflow to 0, below roundoff anyway.
    """
    if x[-1] - x[0] <= _BLOCK_SPAN:
        return _block_sums(x, w)
    n = len(x)
    blocks = []
    a = 0
    while x[-1] - x[a] > _BLOCK_SPAN:  # False on NaN: the rest is one block
        # searched past a, so that a NaN among x cannot stall the loop
        b = a + 1 + x[a + 1:].searchsorted(x[a] + _BLOCK_SPAN, "right")
        blocks.append((a, b, 0.5 * (x[a] + x[b - 1])))
        a = b
    blocks.append((a, n, 0.5 * (x[a] + x[-1])))
    e = x.copy()
    for a, b, c in blocks:
        e[a:b] -= c
    np.exp(e, out=e)
    lo = _seeded_scan(x, w * e, e, blocks, operator.itruediv)
    mirrored = [(n - b, n - a, c) for a, b, c in reversed(blocks)]
    hi = _seeded_scan(x[::-1], (w / e)[::-1], e[::-1], mirrored, operator.imul)
    return lo, hi[::-1]


def _sorted_rhs(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(lo + hi - w, lo - hi) as one (2, N) array for strictly ascending
    positions x with weights w: dq/dt, and dp/dt before each peak's own
    momentum multiplies it."""
    lo, hi = _sorted_sums(x, w)
    out = np.empty((2, len(x)))
    np.add(lo, hi, out=out[0])
    out[0] -= w
    np.subtract(lo, hi, out=out[1])
    return out


def _rhs_values(y: np.ndarray) -> np.ndarray:
    """Derivatives of the (2, N) state y = (q, p), as a (2, N) array.

    Strictly ascending q (every stage inside evolve_peakons until a
    collision) goes straight to the kernel.  Any other state goes through
    its distinct positions, each carrying the summed momentum of the peaks
    on it: every member of a tie takes its group's dq/dt and, with
    sgn(0) = 0, feels only the peaks outside its group.
    """
    q, p = y[0], y[1]
    # count_nonzero is the cheapest all-true test at small N
    if not np.count_nonzero(q[1:] <= q[:-1]):
        out = _sorted_rhs(q, p)
    else:
        x, group = np.unique(q, return_inverse=True)
        out = _sorted_rhs(x, np.bincount(group, weights=p))[:, group]
    out[1] *= p
    return out


def ode_rhs(ens: PeakonEnsemble):
    """Time derivatives (dq/dt, dp/dt) of the particle system."""
    dq, dp = _rhs_values(np.array((ens.q, ens.p)))
    return dq, dp


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i by numpy's own loop, not a BLAS ddot, whose kernel (and
    so the last bits of H) depends on the CPU it runs on."""
    return np.einsum("i,i->", a, b)


def hamiltonian(ens: PeakonEnsemble) -> float:
    """H = (1/2) sum_ij p_i p_j exp(-|q_i - q_j|), as (1/2) p . dq/dt on the
    position-sorted state: the value evolve_peakons records at t = 0."""
    order = np.argsort(ens.q)
    y = np.array((ens.q[order], ens.p[order]))
    return float(0.5 * _dot(y[1], _rhs_values(y)[0]))


def _evolve_steps(dt, t_end, record_every, collision_sep) -> int:
    """Step count of an evolve_peakons run; ValueError for any argument
    that evolve_peakons rejects."""
    steps = _fixed_steps(dt, t_end, record_every)
    if not (np.isfinite(collision_sep) and collision_sep >= 0):
        raise ValueError(f"collision_sep must be finite and >= 0, got {collision_sep}")
    return steps


def _pair(perm: np.ndarray, a: int, b: int) -> tuple:
    """Ensemble labels (i, j), i < j, of the peaks in sorted slots a and b."""
    i, j = int(perm[a]), int(perm[b])
    return (i, j) if i < j else (j, i)


def evolve_peakons(
    ens: PeakonEnsemble,
    dt: float,
    t_end: float,
    record_every: int = 1,
    collision_sep: float = 1e-6,
) -> PeakonTrajectory:
    """March the particle system with fixed-step RK4.

    Raises :class:`CollisionError` when a pair separation changes sign
    across a step, or closes below ``collision_sep`` with opposite-sign
    momenta, or the state stops being finite.  Raises ValueError when
    t_end is not a whole number of steps dt (at least one, at most
    :data:`wavelab.grid.MAX_STEPS`), record_every < 1 or collision_sep is
    negative or not finite.

    The state is kept as one (2, N) array sorted by position.  Peak order
    cannot change before a collision, so every stage without a tie is a
    straight kernel call and only neighbours can collide: a flip is an
    adjacent gap going from > 0 to < 0, a near contact two consecutive
    peaks with p != 0 of opposite sign closer than collision_sep.  Rows are
    put back in the ensemble's order only when recorded.
    """
    steps = _evolve_steps(dt, t_end, record_every, collision_sep)
    perm = np.argsort(ens.q)  # sorted slot -> ensemble label
    inv = np.argsort(perm)
    y = np.array((ens.q[perm], ens.p[perm]))
    gap = np.diff(y[0])
    slope = _rhs_values(y)  # first stage of the next step; H reads it too

    times, qs, ps, hs, Ps = [], [], [], [], []

    def record(t, y, slope):
        times.append(t)
        qs.append(y[0, inv])
        ps.append(y[1, inv])
        hs.append(float(0.5 * _dot(y[1], slope[0])))
        Ps.append(float(np.sum(ps[-1])))

    record(0.0, y, slope)
    for s in range(1, steps + 1):
        y = _rk4_finish(_rhs_values, y, slope, dt)
        t = s * dt
        if not np.isfinite(y).all():
            raise CollisionError(t, None, float("nan"))
        gap_old, gap = gap, y[0, 1:] - y[0, :-1]
        flipped = gap < 0  # tied peaks move as one, so gap_old > 0 here
        if flipped.any():
            k = int(np.argmax(flipped))
            frac = abs(gap_old[k]) / (abs(gap_old[k]) + abs(gap[k]))
            raise CollisionError(
                (s - 1) * dt + frac * dt,
                _pair(perm, k, k + 1),
                float(abs(gap[k])),
            )
        if (gap < collision_sep).any():
            moving = np.flatnonzero(y[1])
            side = np.signbit(y[1, moving])
            near = (np.diff(y[0, moving]) < collision_sep) & (side[1:] != side[:-1])
            if near.any():
                k = int(np.argmax(near))
                a, b = moving[k], moving[k + 1]
                raise CollisionError(t, _pair(perm, a, b), float(y[0, b] - y[0, a]))
        slope = _rhs_values(y)
        if s % record_every == 0 or s == steps:
            record(t, y, slope)

    return PeakonTrajectory(
        times=np.array(times),
        q=np.array(qs),
        p=np.array(ps),
        H=np.array(hs),
        P=np.array(Ps),
    )


def sample_field(ens: PeakonEnsemble, grid: Grid1D) -> Field:
    """Pointwise samples of u(x) = sum_i p_i K(x - q_i) on the grid.

    K is exp(-|x|) periodized over the domain length L, the full image
    series sum_m exp(-|d + m L|).  On |d| <= L/2 it sums in closed form to
    (exp(-|d|) + exp(|d| - L)) / (1 - exp(-L)), in which no exponent is
    positive, so it stays finite on any domain length.
    """
    length = grid.length
    u = np.zeros(grid.n)
    for qi, pi in zip(ens.q, ens.p):
        d = np.abs(_wrap(grid.x - qi, length))
        u += pi * (np.exp(-d) + np.exp(d - length))
    return Field(grid, u / -np.expm1(-length))


def mollified_field(ens: PeakonEnsemble, grid: Grid1D) -> Field:
    """Band-limited version of the sampled profile.

    Builds the Fourier series of the periodized kernel directly: mode k of
    a unit peak at q carries coefficient (2/L) exp(-i k q)/(1 + k^2).  The
    series is truncated at the grid band (Nyquist zeroed), which removes
    the slope discontinuity so spectral differentiation does not ring.
    """
    # grid samples start at x = -L/2 while the irfft indexes from 0, so the
    # synthesis phase carries q + L/2 rather than q
    waves = np.exp(-1j * grid.k_half * (ens.q[:, None] + 0.5 * grid.length))
    # an einsum, not ``ens.p @ waves``: a BLAS matrix-vector product would
    # wake a BLAS thread pool that then spins beside the next CH run
    phases = np.einsum("j,jm->m", ens.p, waves)
    c = grid.n * (2.0 / grid.length) * phases * grid.helmholtz_symbol
    c[-1] = 0.0
    return Field(grid, irfft(c, grid.n))


def trajectory_to_csv(traj: PeakonTrajectory, path) -> None:
    """Write rows t,q1..qN,p1..pN,H,P with 17 significant digits."""
    n = traj.q.shape[1]
    names = [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    header = ",".join(["t", *names, "H", "P"])
    _write_csv(path, header, (traj.times, traj.q, traj.p, traj.H, traj.P))
