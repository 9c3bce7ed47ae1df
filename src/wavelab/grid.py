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
an unchecked array spelling, ``Grid1D.deriv_values``, and the period
integral has only that one, ``Grid1D.integrate_values``, because the
solvers call them on raw samples.  Both act on the last axis of any array,
so a ``(B, n)`` stack of samples (time levels, say) takes one call and
gives, row for row, the same bits as ``B`` calls on single rows.

The CH solver and the peakon module import ``rfft``/``irfft`` from here, so the
import below is the one place that picks the spectral kernels' FFT backend.
``numpy.fft`` is used: ``scipy.fft`` was faster at n >= 4096 but slower at
n = 256 and touched about 0.4 MB more resident memory.

Both solvers also take three shared rules from here: the step count of a
run within the budget :data:`MAX_STEPS`, the classical RK4 step
(:func:`_rk4_finish`), and how a table is written as CSV.
:class:`NumericalHaltError` is every numerical halt, the marchers' own
included; the CLI maps it to exit 3.

A CSV table is written with 17 significant digits per cell (``%.17g``, the
bytes of ``f"{v:.17g}"``) from a row template: one ``%`` call formats a
chunk of at most 128 cells, 64 rows of an ``x,value`` table or one row of a
wide one.  For ``x,value`` tables the grid caches the templates
(``Grid1D._csv_rows``) with x already written, so each write formats only
the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"domain length must be positive and finite, got {self.length}")
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

    # --- array-level spectral operators: last axis, no validation, hot path ---

    def deriv_values(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Derivative of the given order (1..3) along the last axis."""
        return irfft(rfft(values) * self.deriv_symbols[order], self.n)

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
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"sample count {values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.count_nonzero(~np.isfinite(values)))
            raise ValueError(f"field has {bad} non-finite samples")
        object.__setattr__(self, "values", values)


def deriv(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (order in {1, 2, 3})."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
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
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
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


# Cells per % call.  Joining rows paid off up to about 64 rows of an
# x,value table; a row of a wide trajectory table (515 cells for 256 peaks)
# gains nothing from joining, so it keeps one call per row.  Either way no
# table's text or Python floats are held whole.
_CHUNK_CELLS = 128
_FIELD_ROWS = _CHUNK_CELLS // 2


def _blocks(table: np.ndarray, rows: int):
    """Consecutive blocks of ``rows`` rows of ``table``; the last may be shorter."""
    return (table[i:i + rows] for i in range(0, len(table), rows))


def _write_chunks(path, header: str, chunks) -> None:
    """Write a header line, then ``template % cells`` for each ``(template,
    cells)`` of ``chunks``, the array ``cells`` read in row-major order."""
    # the cells are ASCII; utf-8 writes the same bytes with the codec that
    # start-up has already loaded, so a run's first write imports nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for template, cells in chunks:
            fh.write(template % tuple(cells.ravel().tolist()))


def _write_csv(path, header: str, columns) -> None:
    """Write a header line and one row per entry of the equal-length
    ``columns`` (1-D arrays or 2-D blocks of columns), 17 significant digits
    per cell."""
    table = np.column_stack(columns)
    # %.17g gives the bytes of f"{v:.17g}" per cell
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = _blocks(table, max(1, _CHUNK_CELLS // table.shape[1]))
    _write_chunks(path, header, ((row * len(block), block) for block in blocks))


def field_to_csv(f: Field, path: str | Path) -> None:
    """Write ``x,value`` rows with 17 significant digits."""
    _write_chunks(path, "x,value", zip(f.grid._csv_rows, _blocks(f.values, _FIELD_ROWS)))
