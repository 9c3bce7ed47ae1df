"""Periodic grid, sampled fields, and the spectral operators shared by all solvers.

Everything lives on a uniform grid x_j = -L/2 + j*h, j = 0..n-1, with periodic
identification x_n == x_0.  Derivatives, the Helmholtz inverse (1 - d_xx)^-1,
translations, and dealiasing are all diagonal in Fourier space and therefore
exact for band-limited data.

Samples are real, so every operator runs on the half spectrum: one real
forward transform, a multiplier cached on the grid, one real inverse
transform.

Each operator is applied by one free function (``deriv``,
``helmholtz_inv``, ``dealias``, ...) on a :class:`Field`, the checked 1-D
boundary: shape and finiteness are enforced there.  Derivatives also have
an array spelling that checks only the order, ``Grid1D.deriv_values``, and
the period integral has only that one, ``Grid1D.integrate_values``, because
the solvers call them on raw samples.  Both act on the last axis of any
array, so a ``(B, n)`` stack of samples (time levels, say) takes one call
and gives, row for row, the same bits as ``B`` calls on single rows.
``deriv_values`` also takes several orders, which share one forward
transform and each take one inverse.

The CH solver and the peakon module import ``rfft``/``irfft`` from here, so the
import below is the one place that picks the spectral kernels' FFT backend.
``numpy.fft`` is used: ``scipy.fft`` was faster at n >= 4096 but slower at
n = 256 and touched about 0.4 MB more resident memory.

Both solvers also take three shared rules from here: the step count of a
run within the budget :data:`MAX_STEPS`, the classical RK4 step
(:func:`_rk4_finish`), and how a table is written as CSV.  Every module
checks a strictly positive input with :func:`_require_positive`, an
axis of equal steps with :func:`_uniform_step`, and a sampled array's
shape and finiteness with :func:`_require_samples`; every numerical halt is
a :class:`NumericalHaltError`, the marchers' own included (CLI exit 3).

A CSV table is written with 17 significant digits per cell, the bytes of
``"%.17g" % v``.  A table of at least 512 cells goes through one vectorized
kernel, :func:`_exact_text`, in chunks of whole rows of about 2,048 cells:
the cells with 1e-4 <= |v| < 1e17, which ``%.17g`` writes without an
exponent, from Dekker's exact two-product and digit tables, every other
cell with ``%``.  A smaller table is written from ``%`` row templates, at
most 128 cells per call; :func:`field_to_csv` uses templates cached on the
grid (``Grid1D._csv_rows``) with x already written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "Grid1D",
    "Field",
    "deriv",
    "helmholtz_inv",
    "dealias",
    "spectral_shift",
    "peak_position",
    "MAX_STEPS",
    "NumericalHaltError",
    "field_to_csv",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L/2, L/2).

    Parameters
    ----------
    n : int
        Number of grid points.  Must be even (spectral symmetry) and >= 16.
    length : float
        Domain length L.
    """

    n: int
    length: float

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid needs an even point count >= 16, got n={self.n}")
        _require_positive(length=self.length)
        # a tiny length can underflow the spacing to 0 or overflow the
        # Nyquist wavenumber pi/h, and the spectral operators need both
        h = self.length / self.n
        k_nyquist = np.pi / h if h > 0 else np.inf
        if not np.isfinite(k_nyquist):
            raise ValueError(
                f"domain length {self.length} is too small for n={self.n}: spacing {h:.3g}, "
                f"Nyquist wavenumber {k_nyquist:.3g}"
            )

    @property
    def h(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.h * np.arange(self.n)

    @cached_property
    def _csv_rows(self) -> tuple[str, ...]:
        """The rows of :func:`field_to_csv` as one %-template per block of
        ``_FIELD_ROWS`` points: x already written with ``%.17g``, each value
        a ``%.17g`` slot, so a write formats only the values."""
        return tuple(
            "%.17g,%%.17g\n" * len(block) % tuple(block.tolist())
            for block in _blocks(self.x, _FIELD_ROWS)
        )

    # --- half-spectrum multipliers (rfft ordering, modes m = 0..n/2) ---

    @cached_property
    def k_half(self) -> np.ndarray:
        """Non-negative angular wavenumbers 2*pi*m/L, m = 0..n/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)

    @cached_property
    def ik(self) -> np.ndarray:
        """First-derivative symbol i*k with the Nyquist mode zeroed.

        The Nyquist mode has no well-defined odd derivative on a real grid.
        """
        ik = 1j * self.k_half
        ik[-1] = 0.0
        return ik

    @cached_property
    def helmholtz_symbol(self) -> np.ndarray:
        """Symbol 1/(1 + k^2) of the Helmholtz inverse (1 - d_xx)^-1."""
        return 1.0 / (1.0 + self.k_half**2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the half spectrum: keep m <= n/3 so quadratic
        products cannot alias."""
        return np.arange(self.n // 2 + 1) <= self.n // 3

    @cached_property
    def deriv_symbols(self) -> np.ndarray:
        """Derivative symbols (i*k)^p as the rows p = 0..3 of one
        ``(4, n/2+1)`` array; the odd ones inherit the zeroed Nyquist mode of
        :attr:`ik`.  One product with a half spectrum gives the spectra of f
        and its first three derivatives."""
        ik = self.ik
        return np.stack((np.ones_like(ik), ik, -(self.k_half**2), ik * ik * ik))

    # --- array-level spectral operators: last axis, no sample checks, hot path ---

    def deriv_values(self, values: np.ndarray, order: int = 1, *orders: int):
        """Derivative of the given order (1..3) along the last axis.

        Given further orders, the tuple of one derivative per order, all
        from one forward transform: ``ux, uxx = grid.deriv_values(u, 1, 2)``.
        Each has the bits of its single-order call."""
        for p in (order, *orders):
            if p not in (1, 2, 3):
                raise ValueError(f"derivative order must be 1, 2 or 3, got {p}")
        spectrum = rfft(values)
        if not orders:
            return irfft(spectrum * self.deriv_symbols[order], self.n)
        return tuple(irfft(spectrum * self.deriv_symbols[p], self.n) for p in (order, *orders))

    def integrate_values(self, values: np.ndarray) -> np.ndarray:
        """Integral over one period along the last axis, of shape
        ``values.shape[:-1]`` (a numpy scalar for 1-D input).  Trapezoid ==
        rectangle rule on a periodic grid; spectrally accurate."""
        return self.h * values.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar field sampled on a :class:`Grid1D`."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _require_samples("field", self.values, (self.grid.n,)))


def deriv(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (order in {1, 2, 3})."""
    return Field(f.grid, f.grid.deriv_values(f.values, order))


def helmholtz_inv(f: Field) -> Field:
    """Solve (1 - d_xx) w = f; in Fourier space w_k = f_k / (1 + k^2)."""
    return Field(f.grid, irfft(rfft(f.values) * f.grid.helmholtz_symbol, f.grid.n))


def dealias(f: Field) -> Field:
    """Zero the top third of the spectrum (2/3 rule)."""
    return Field(f.grid, irfft(rfft(f.values) * f.grid.dealias_mask, f.grid.n))


def spectral_shift(f: Field, s: float) -> Field:
    """Translate: returns samples of x -> f(x - s)."""
    return Field(f.grid, irfft(rfft(f.values) * np.exp(-1j * f.grid.k_half * s), f.grid.n))


def peak_position(f: Field) -> float:
    """Locate the maximum of ``f`` to subgrid accuracy.

    Finds the largest sample and refines it with a quadratic fit through the
    sample and its two periodic neighbours.  The result is wrapped into
    [-L/2, L/2).  For a flat field the leftmost maximal sample is returned.
    """
    g = f.grid
    j = int(np.argmax(f.values))
    ym = f.values[(j - 1) % g.n]
    y0 = f.values[j]
    yp = f.values[(j + 1) % g.n]
    denom = ym - 2.0 * y0 + yp
    offset = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
    return float(_wrap(g.x[j] + offset * g.h, g.length))


def _wrap(d, length: float):
    """``d`` moved by whole periods into [-L/2, L/2), the grid's domain."""
    return (d + 0.5 * length) % length - 0.5 * length


def _require_positive(**values: float) -> None:
    """ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be strictly positive, got {value}")


def _require_samples(name: str, values, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array of ``shape`` (any shape if None) with
    every entry finite, or a ValueError naming it."""
    values = np.asarray(values, dtype=float)
    if shape is not None and values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(f"{name} has {bad} non-finite entries")
    return values


def _uniform_step(name: str, values: np.ndarray) -> float:
    """The step of the axis ``values``: 2 or more finite samples increasing by
    equal steps, each within 1e-10 of the first, or a ValueError naming it."""
    with np.errstate(all="ignore"):  # an infinite sample gives a non-finite step
        steps = np.diff(values)
    if not (len(steps) and np.all(np.isfinite(steps)) and steps[0] > 0
            and np.allclose(steps, steps[0], rtol=1e-10, atol=1e-10 * steps[0])):
        raise ValueError(f"{name} must be 2 or more finite samples increasing by equal steps, "
                         f"got {values[:4].tolist()}{' ...' * (len(values) > 4)}")
    return steps[0]


class NumericalHaltError(ValueError, RuntimeError):
    """A computation stopped because its numbers did: a result turned
    non-finite, an iteration did not converge or a march broke down.

    ``stage`` names the computation that stopped.  It derives from both
    ValueError and RuntimeError, so a caller that catches either type
    catches it.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


# Largest step count a fixed-step run may take.  The largest sample config
# takes 2,500 steps and the largest test run 20,000; a step such as 1e-300
# would otherwise be accepted and then loop for ~1e298 steps.
MAX_STEPS = 10**6


def _fixed_steps(dt: float, t_end: float, record_every: int) -> int:
    """Step count of a fixed-step march from 0 to ``t_end`` with step ``dt``.

    The one rule of both marchers (:func:`wavelab.ch.evolve` and
    :func:`wavelab.peakons.evolve_peakons`): dt and t_end finite and > 0,
    t_end a whole number of steps to within 1e-8 * max(t_end, 1), between
    1 and :data:`MAX_STEPS` steps, and a record every ``record_every`` >= 1
    steps.  Raises ValueError otherwise.
    """
    _require_positive(dt=dt, t_end=t_end)
    ratio = t_end / dt
    # checked before rounding: the ratio may be inf, which round rejects
    if not ratio < MAX_STEPS + 0.5:
        raise ValueError(f"t_end / dt = {ratio:.6g} exceeds the budget of {MAX_STEPS} steps")
    steps = round(ratio)
    if abs(steps * dt - t_end) > 1e-8 * max(t_end, 1.0) or steps < 1:
        raise ValueError(f"t_end {t_end} is not a whole number >= 1 of steps dt {dt}")
    if record_every < 1:
        raise ValueError("record_every must be a positive step count")
    return steps


def _rk4_finish(slope, y: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step from the state ``y`` whose first stage
    ``k1 = slope(y)`` is known; ``slope`` maps a state to an array of its
    shape.  The combination accumulates in place into the second stage."""
    half = 0.5 * dt
    k2 = slope(y + half * k1)
    k3 = slope(y + half * k2)
    k4 = slope(y + dt * k3)
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


# Cells per % call: joining rows paid off up to about 64 rows of an x,value
# table.  No table's text or Python floats are held whole.
_CHUNK_CELLS = 128
_FIELD_ROWS = _CHUNK_CELLS // 2

# _exact_text against the % templates: 1.1-1.9x the time at 256 cells,
# 0.65-0.8x at 512 and 0.36x on a chunk of 3 rows of 515 cells.
_EXACT_MIN_CELLS = 512
_EXACT_CHUNK_CELLS = 2048


def _blocks(table: np.ndarray, rows: int):
    """Consecutive blocks of ``rows`` rows of ``table``; the last may be shorter."""
    return (table[i:i + rows] for i in range(0, len(table), rows))


@cache
def _cell_tables():
    """Tables of :func:`_exact_text`, built on its first call by fills and
    copies (integer arithmetic would fault in more of numpy's code).  A slot
    is 32 bytes, the separator last: "000" + D shifted 2 bytes before the
    point and 3 after it, the point at byte 22 - k, and the sign and a 0
    before the point as needed, by row 2k + negative of ``masks``; row
    ``last`` of ``upto`` keeps bytes 0..last-1 and 31."""
    pairs = np.frombuffer(bytes(48 + c for i in range(100) for c in divmod(i, 10)), np.uint16)
    four = np.empty((100, 100, 2), np.uint16)
    four[..., 0], four[..., 1] = pairs[:, None], pairs  # "0000".."9999"
    zeros = np.zeros(10000, np.uint8)  # trailing zeros of 1..9999
    zeros[::10], zeros[::100], zeros[::1000] = 1, 2, 3
    masks, upto = np.zeros((3, 42, 32), np.uint8), np.zeros((32, 32), np.uint8)
    for k in range(21):  # rows 2k and 2k + 1
        start, (before, after, added) = min(5, 21 - k), masks[:, 2 * k:2 * k + 2]
        before[:, 5:22 - k] = after[:, 23 - k:23] = 255
        added[:, 22 - k], added[:, start] = 46, 48 * (k > 16)  # point, 0 of 0.xx
        added[1, start - 1] = 45  # sign
    for last in range(32):
        upto[last, :last] = upto[last, 31] = 255
    # no double lies between 10**e and the power read here, so the count of
    # powers 1e-3..1e16 at or below |v| is floor(log10|v|) + 4, exactly
    powers = np.array([float(f"1e{e}") for e in range(-3, 21)])
    return (powers[:20], powers[23:2:-1], np.arange(20.0, -1.0, -1.0),
            four.view(np.uint32).ravel(), zeros, masks.view("<u8"), upto.view("<u8"))


def _two_product(a: np.ndarray, b: np.ndarray):
    """The rounded product p = a * b and its exact error: Dekker's
    two-product with Veltkamp's 26-bit split (Numer. Math. 18, 1971)."""
    def split(x):
        c = x * 134217729.0
        return (high := c - (c - x)), x - high

    (ah, al), (bh, bl) = split(a), split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _divide(x: np.ndarray, unit: float):
    """``(q, x - q * unit)``, q = floor(x / unit) for whole x < 10**15; for
    larger x q may be one off, leaving the remainder in [-unit, 2 unit)."""
    q = np.floor(x * (1.0 / unit))
    return q, x - q * unit


def _exact_text(block: np.ndarray) -> str:
    """The rows of the float64 ``block`` as CSV text, each cell the bytes of
    ``"%.17g" % v``.  A cell with 1e-4 <= |v| < 1e17 is the 17 digits D of
    round(|v| * 10**k), k = 16 - floor(log10|v|) in 0..20, with k decimals,
    trailing zeros stripped.  10**k is exact, so the two-product gives
    |v| * 10**k as hi + lo exactly, and D = hi + rint(lo) rounds half to
    even (hi >= 1e16 is even); 17 digits tell doubles apart, so D < 10**17.
    The other cells (0, tiny, huge, inf, nan) are written by ``%``."""
    bounds, pow10, decimal_places, digits, zeros, masks, upto = _cell_tables()
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0  # a harmless stand-in; these cells are written by % below
    e = np.searchsorted(bounds, a, side="right")
    k = np.take(decimal_places, e)
    hi, lo = _two_product(a, np.take(pow10, e))
    top, bottom = _divide(hi, 1e8)
    carry, bottom = _divide(bottom + np.rint(lo), 1e8)  # carry -1, 0 or 1
    lead, middle = _divide(top + carry, 1e8)
    p = np.full((len(v), 8), digits[0], np.uint32)  # "000" + lead, 4 groups, "0000"s
    p[:, 0] = np.take(digits, lead.astype(np.intp))
    tz = 0.0
    for i, g in enumerate((*_divide(middle, 1e4), *_divide(bottom, 1e4)), 1):
        p[:, i] = np.take(digits, g.astype(np.intp))
        tz = np.where(g == 0, tz + 4, np.take(zeros, g.astype(np.intp)))
    row = (2 * k + (fast & (v < 0))).astype(np.intp)
    p = p.view("<u8").ravel()  # 4 words per cell
    text, tail = p << 16, p << 24
    text[1:] |= p[:-1] >> 48
    text &= np.take(masks[0], row, axis=0).ravel()
    tail[1:] |= p[:-1] >> 40
    tail &= np.take(masks[1], row, axis=0).ravel()
    text |= tail
    text |= np.take(masks[2], row, axis=0).ravel()
    last = np.where(k > tz, 23 - tz, 22 - k)  # the end of the text in its slot
    text = text.astype("<u8", copy=False)  # the slot bytes in text order on any host
    slots = text.view(np.uint8).reshape(*block.shape, 32)
    slots[..., 31] = 44
    slots[:, -1, 31] = 10
    slots = slots.reshape(len(v), 32)
    slow = np.flatnonzero(~fast)
    if slow.size:
        padded = "%-25.17g" * slow.size % tuple(v[slow].tolist())  # %.17g is <= 24 bytes
        slots[slow, :24] = np.frombuffer(padded.encode(), np.uint8).reshape(-1, 25)[:, :24]
        last[slow] = [len(cell) for cell in padded.split()]
    text &= np.take(upto, last.astype(np.intp), axis=0).ravel()
    return text.tobytes().translate(None, b"\0").decode()  # no text holds a NUL


def _write_chunks(path, header: str, texts) -> None:
    """Write a header line, then each text of ``texts``."""
    # the cells are ASCII; utf-8 writes the same bytes with the codec that
    # start-up has already loaded, so a run's first write imports nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(texts)


def _write_csv(path, header: str, columns) -> None:
    """Write a header line and one row per entry of the equal-length
    ``columns`` (1-D arrays or 2-D blocks of columns), 17 significant digits
    per cell."""
    table = np.column_stack(columns)
    width = table.shape[1]
    if table.size >= _EXACT_MIN_CELLS:
        texts = map(_exact_text, _blocks(table, max(1, _EXACT_CHUNK_CELLS // width)))
    else:
        # %.17g gives the bytes of f"{v:.17g}" per cell
        row = ",".join(["%.17g"] * width) + "\n"
        texts = (row * len(block) % tuple(block.ravel().tolist())
                 for block in _blocks(table, max(1, _CHUNK_CELLS // width)))
    _write_chunks(path, header, texts)


def field_to_csv(f: Field, path: str | Path) -> None:
    """Write ``x,value`` rows with 17 significant digits."""
    blocks = zip(f.grid._csv_rows, _blocks(f.values, _FIELD_ROWS))
    _write_chunks(path, "x,value", (rows % tuple(block.tolist()) for rows, block in blocks))
