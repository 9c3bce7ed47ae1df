import numpy as np
import pytest

from wavelab import grid
from wavelab.ch import CHParams
from wavelab.grid import (
    MAX_STEPS,
    Field,
    Grid1D,
    dealias,
    deriv,
    field_to_csv,
    helmholtz_inv,
    peak_position,
    spectral_shift,
)
from wavelab.peakons import _evolve_steps


def fd4_derivative(values, h):
    """4th-order centered finite difference, periodic; independent oracle."""
    vp1 = np.roll(values, -1)
    vm1 = np.roll(values, 1)
    vp2 = np.roll(values, -2)
    vm2 = np.roll(values, 2)
    return (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / (12.0 * h)


class TestGrid1D:
    def test_points_and_spacing(self):
        g = Grid1D(64, 8.0)
        assert g.h == 0.125
        assert g.x[0] == -4.0
        assert np.allclose(np.diff(g.x), g.h)
        # periodic identification: x_n would be +L/2, not included
        assert g.x[-1] == pytest.approx(4.0 - g.h)

    @pytest.mark.parametrize("n", [8, 15, 17])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError):
            Grid1D(n, 1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid1D(32, -1.0)
        with pytest.raises(ValueError):
            Grid1D(32, np.inf)

    @pytest.mark.parametrize("length", [5e-324, 1e-320, 1e-307])
    def test_rejects_length_without_finite_wavenumbers(self, length):
        # the spacing underflows to 0 or the Nyquist wavenumber pi/h to inf
        with pytest.raises(ValueError, match="too small"):
            Grid1D(16, length)

    @pytest.mark.parametrize("length", [1e-300, 1e308])
    def test_accepts_extreme_length_with_finite_wavenumbers(self, length):
        g = Grid1D(16, length)
        assert np.all(np.isfinite(g.k_half))
        assert g.h > 0


class TestField:
    def test_rejects_nonfinite(self):
        g = Grid1D(16, 1.0)
        v = np.zeros(16)
        v[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, v)

    def test_rejects_wrong_length(self):
        g = Grid1D(16, 1.0)
        with pytest.raises(ValueError):
            Field(g, np.zeros(17))

    def test_csv_bytes_match_per_cell_writer(self, tmp_path):
        g = Grid1D(16, 4.0)
        rng = np.random.default_rng(7)
        values = rng.normal(size=16) * 10.0 ** rng.integers(-20, 20, size=16)
        values[:6] = [-0.0, 1e-300, 1e300, -1e300, -1e-300, 0.0]
        f = Field(g, values)
        field_to_csv(f, tmp_path / "new.csv")
        # the per-cell f-string writer that field_to_csv replaced
        with open(tmp_path / "old.csv", "w") as out:
            out.write("x,value\n")
            for x, v in zip(f.grid.x, f.values):
                out.write(f"{x:.17g},{v:.17g}\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def per_cell_field_csv(f, path):
    """The per-cell f-string writer that field_to_csv replaced."""
    with open(path, "w", encoding="ascii") as out:
        out.write("x,value\n")
        for x, v in zip(f.grid.x, f.values):
            out.write(f"{x:.17g},{v:.17g}\n")


def wide_range_values(rng, n):
    """Samples over 40 decades, with signed zeros and extremes up front."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    values[:6] = [-0.0, 1e-300, 1e300, -1e300, -1e-300, 0.0]
    return values


class TestFieldCSVChunks:
    """field_to_csv writes from per-grid row templates, a chunk of rows per
    % call; the bytes are those of the per-cell writer at any n."""

    # 100 is not a multiple of the chunk size, 16 is below it
    @pytest.mark.parametrize(
        "n, length", [(4096, 60.0), (256, 2 * np.pi), (100, 7.0), (16, 4.0)]
    )
    def test_bytes_match_per_cell_writer(self, tmp_path, n, length):
        f = Field(Grid1D(n, length), wide_range_values(np.random.default_rng(n), n))
        field_to_csv(f, tmp_path / "new.csv")
        per_cell_field_csv(f, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_fields_on_one_grid_and_on_an_equal_grid(self, tmp_path):
        g = Grid1D(200, 9.0)
        twin = Grid1D(200, 9.0)
        assert twin == g and twin is not g
        rng = np.random.default_rng(11)
        for i, grid in enumerate((g, g, twin, twin)):
            f = Field(grid, wide_range_values(rng, grid.n))
            field_to_csv(f, tmp_path / f"new{i}.csv")
            per_cell_field_csv(f, tmp_path / f"old{i}.csv")
            new = (tmp_path / f"new{i}.csv").read_bytes()
            assert new == (tmp_path / f"old{i}.csv").read_bytes()
        assert len({(tmp_path / f"new{i}.csv").read_bytes() for i in range(4)}) == 4


def per_cell_table_csv(path, header, table):
    """The per-cell f-string writer that _write_csv replaced."""
    with open(path, "w", encoding="ascii") as out:
        out.write(header + "\n")
        for row in table:
            out.write(",".join(f"{v:.17g}" for v in row) + "\n")


def assert_table_bytes(tmp_path, table):
    grid._write_csv(tmp_path / "new.csv", "h", [table])
    per_cell_table_csv(tmp_path / "old.csv", "h", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def in_kernel_table(values, columns=7):
    """``values`` up front in a table of at least the kernel's threshold of
    cells, the rest filled with ones."""
    cells = max(grid._EXACT_MIN_CELLS, len(values))
    table = np.ones(cells + (-cells) % columns)
    table[:len(values)] = values
    return table.reshape(-1, columns)


def edge_doubles():
    """Every power of 2 and of 10 in float64 with both of its neighbours, signed."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


class TestExactCells:
    """Tables of at least grid._EXACT_MIN_CELLS cells are written by the
    vectorized kernel grid._exact_text; every cell keeps the bytes of
    f"{v:.17g}", and smaller tables keep the % templates."""

    @pytest.mark.parametrize("value, text", [
        (1000000000000000.25, "1000000000000000.2"),  # a tie rounds to even
        (1000000000000000.75, "1000000000000000.8"),
        (99999999999999984.0, "99999999999999984"),  # fixed, 17 integer digits
        (1e17, "1e+17"),
        (9.9999999999999991e-05, "9.9999999999999991e-05"),  # below 1e-4: exponent
        (1e-4, "0.0001"),
        (-0.0, "-0"),
        (-1.5, "-1.5"),
        (0.1, "0.10000000000000001"),
        (100.0, "100"),
    ])
    def test_named_cells(self, tmp_path, value, text):
        table = in_kernel_table([value])
        assert_table_bytes(tmp_path, table)
        assert (tmp_path / "new.csv").read_text().splitlines()[1].split(",")[0] == text

    def test_random_bit_patterns_and_powers(self, tmp_path):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        # half of them with a binary exponent where %.17g writes no exponent
        exponent = rng.integers(1023 - 14, 1023 + 57, size=bits.size // 2, dtype=np.uint64)
        bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
        values = np.concatenate([bits.view(np.float64), edge_doubles()])
        assert_table_bytes(tmp_path, in_kernel_table(values, columns=1000))

    @pytest.mark.parametrize("cells, kernel", [
        (grid._EXACT_MIN_CELLS - 1, False), (grid._EXACT_MIN_CELLS, True)])
    def test_threshold(self, tmp_path, monkeypatch, cells, kernel):
        calls, exact = [], grid._exact_text
        monkeypatch.setattr(grid, "_exact_text", lambda block: calls.append(block) or exact(block))
        table = wide_range_values(np.random.default_rng(cells), cells)[:, None]
        assert_table_bytes(tmp_path, table)
        assert bool(calls) == kernel

    # 1001 rows of 3 and 7 of 515 end in a shorter chunk (682 and 3 rows per
    # chunk); a row of 4097 cells is wider than a chunk and takes one alone
    @pytest.mark.parametrize("rows, columns", [(1001, 3), (7, 515), (2, 4097)])
    def test_chunks_of_whole_rows(self, tmp_path, rows, columns):
        assert rows * columns >= grid._EXACT_MIN_CELLS
        assert_table_bytes(tmp_path, wide_range_values(
            np.random.default_rng(rows), rows * columns).reshape(rows, columns))

    def test_any_float(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=64))
        def check(values):
            assert_table_bytes(tmp_path, in_kernel_table(values))

        check()


class TestStepRule:
    """Both fixed-step marchers turn (dt, t_end) into the same step count."""

    @pytest.mark.parametrize(
        "dt, t_end, steps",
        [
            (0.01, 0.1, 10),
            (0.1, 0.3, 3),
            (1.0, float(MAX_STEPS), MAX_STEPS),
            (1.0, float(MAX_STEPS + 1), None),
            (1e-300, 0.02, None),
            (5e-324, 1.0, None),
            (1.0, 1e-9, None),  # rounds to 0 steps
            (0.3, 1.0, None),  # not a whole number of steps
            (0.001, 0.0015, None),
            (0.0, 1.0, None),
            (-0.01, 0.1, None),
            (0.01, 0.0, None),
            (0.01, -0.1, None),
            (float("nan"), 1.0, None),
            (float("inf"), 1.0, None),
            (0.01, float("nan"), None),
            (0.01, float("inf"), None),
        ],
    )
    def test_ch_and_peakons_agree(self, dt, t_end, steps):
        if steps is None:
            with pytest.raises(ValueError):
                CHParams(dt=dt, t_end=t_end).n_steps
            with pytest.raises(ValueError):
                _evolve_steps(dt, t_end, record_every=1, collision_sep=0.0)
        else:
            assert CHParams(dt=dt, t_end=t_end).n_steps == steps
            assert _evolve_steps(dt, t_end, record_every=1, collision_sep=0.0) == steps


class TestDeriv:
    def test_sin_gives_cos(self):
        g = Grid1D(64, 2 * np.pi)
        f = Field(g, np.sin(g.x))
        df = deriv(f, 1)
        assert np.max(np.abs(df.values - np.cos(g.x))) < 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_derivative_vanishes(self, order):
        g = Grid1D(32, 5.0)
        f = Field(g, np.full(32, 3.7))
        assert np.max(np.abs(deriv(f, order).values)) < 1e-13

    def test_against_fd4_oracle(self):
        g = Grid1D(512, 2 * np.pi)
        f = Field(g, np.exp(np.sin(g.x)))
        df = deriv(f, 1)
        oracle = fd4_derivative(f.values, g.h)
        # FD4 truncation ~ h^4 |f^(5)| / 30 ~ 3e-9 at n=512
        assert np.max(np.abs(df.values - oracle)) < 1e-7

    def test_rejects_bad_order(self):
        g = Grid1D(32, 1.0)
        f = Field(g, np.zeros(g.n))
        with pytest.raises(ValueError):
            deriv(f, 4)

    def test_composition_matches_second_derivative(self):
        g = Grid1D(128, 2 * np.pi)
        f = Field(g, np.exp(np.sin(g.x)))
        twice = deriv(deriv(f, 1), 1)
        once = deriv(f, 2)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) / scale < 1e-10


class TestHelmholtzInv:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_cos_mode(self, k):
        g = Grid1D(256, 2 * np.pi)
        f = Field(g, np.cos(k * g.x))
        w = helmholtz_inv(f)
        expected = np.cos(k * g.x) / (1.0 + k**2)
        assert np.max(np.abs(w.values - expected)) < 1e-12

    def test_constant_passthrough(self):
        g = Grid1D(64, 3.0)
        f = Field(g, np.full(64, 2.5))
        assert np.max(np.abs(helmholtz_inv(f).values - 2.5)) < 1e-13

    def test_roundtrip_random_bandlimited(self):
        rng = np.random.default_rng(7)
        g = Grid1D(128, 2 * np.pi)
        spec = np.zeros(128, dtype=complex)
        live = np.abs(np.rint(np.fft.fftfreq(g.n) * g.n)) <= 30
        spec[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
        spec[0] = spec[0].real
        f = Field(g, np.fft.ifft(spec).real)
        forward = f.values - g.deriv_values(f.values, 2)
        back = helmholtz_inv(Field(g, forward))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) / scale < 1e-12

    def test_exact_inverse_every_mode(self):
        g = Grid1D(64, 2 * np.pi)
        for m in range(0, 32):  # below Nyquist
            f = Field(g, np.cos(m * g.x))
            w = helmholtz_inv(f)
            forward = w.values - g.deriv_values(w.values, 2)
            assert np.max(np.abs(forward - f.values)) < 1e-12


class TestIntegrate:
    def test_constant(self):
        g = Grid1D(50, 10.0)
        assert g.integrate_values(np.ones(50)) == pytest.approx(10.0, abs=1e-13)

    def test_odd_mode_vanishes(self):
        g = Grid1D(64, 2 * np.pi)
        assert abs(g.integrate_values(np.sin(g.x))) < 1e-13

    def test_sin_squared(self):
        g = Grid1D(64, 2 * np.pi)
        assert g.integrate_values(np.sin(g.x) ** 2) == pytest.approx(np.pi, abs=1e-12)

    def test_derivative_integrates_to_zero(self):
        g = Grid1D(128, 7.0)
        f = Field(g, np.exp(np.cos(2 * np.pi * g.x / 7.0)))
        assert abs(g.integrate_values(deriv(f, 1).values)) < 1e-12


class TestDealiasAndShift:
    def test_dealias_kills_top_third(self):
        g = Grid1D(96, 2 * np.pi)
        f = Field(g, np.cos(40 * g.x))  # 40 > 96/3
        assert np.max(np.abs(dealias(f).values)) < 1e-13

    def test_dealias_keeps_low_modes(self):
        g = Grid1D(96, 2 * np.pi)
        f = Field(g, np.cos(5 * g.x))
        assert np.max(np.abs(dealias(f).values - f.values)) < 1e-13

    def test_shift_translates_gaussian(self):
        g = Grid1D(256, 40.0)
        f = Field(g, np.exp(-(g.x**2)))
        shifted = spectral_shift(f, 1.5)
        expected = np.exp(-((g.x - 1.5) ** 2))
        assert np.max(np.abs(shifted.values - expected)) < 1e-12


def complex_fft_reference(grid, values, op, arg=None):
    """The operators as full complex FFT round trips; independent oracle."""
    vh = np.fft.fft(values)
    modes = np.rint(np.fft.fftfreq(grid.n) * grid.n)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    if op == "deriv":
        mult = (1j * k) ** arg
        if arg % 2 == 1:
            mult[grid.n // 2] = 0.0
    elif op == "helmholtz_inv":
        mult = 1.0 / (1.0 + k**2)
    elif op == "dealias":
        mult = np.abs(modes) <= grid.n // 3
    else:  # shift by arg
        mult = np.exp(-1j * k * arg)
    return np.fft.ifft(vh * mult).real


class TestRealFFTOperators:
    def test_odd_derivatives_zero_nyquist_even_keeps_it(self):
        g = Grid1D(32, 2 * np.pi)
        nyquist = Field(g, (-1.0) ** np.arange(g.n))
        for order in (1, 3):
            assert np.max(np.abs(deriv(nyquist, order).values)) < 1e-12
        k_nyq = np.pi * g.n / g.length
        second = deriv(nyquist, 2).values
        assert np.max(np.abs(second + k_nyq**2 * nyquist.values)) < 1e-10

    @pytest.mark.parametrize("n", [64, 96])
    def test_dealias_zeroes_exactly_above_n_over_3(self, n):
        g = Grid1D(n, 2 * np.pi)
        for m in range(n // 2 + 1):
            f = Field(g, np.cos(m * g.x))
            out = dealias(f).values
            expected = f.values if 3 * m <= n else np.zeros(n)
            assert np.max(np.abs(out - expected)) < 1e-13, m

    def test_shift_by_one_step_is_roll(self):
        g = Grid1D(256, 7.0)
        f = Field(g, np.random.default_rng(3).standard_normal(g.n))
        shifted = spectral_shift(f, g.h)
        assert np.max(np.abs(shifted.values - np.roll(f.values, 1))) < 1e-13

    @pytest.mark.parametrize("n", [16, 4096])
    def test_operators_match_complex_fft_reference(self, n):
        g = Grid1D(n, 5.0)
        f = Field(g, np.random.default_rng(n).standard_normal(n))
        cases = [
            ("deriv", 1, deriv(f, 1)),
            ("deriv", 2, deriv(f, 2)),
            ("deriv", 3, deriv(f, 3)),
            ("helmholtz_inv", None, helmholtz_inv(f)),
            ("dealias", None, dealias(f)),
            ("shift", 0.37, spectral_shift(f, 0.37)),
        ]
        for op, arg, out in cases:
            ref = complex_fft_reference(g, f.values, op, arg)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(out.values - ref)) <= 1e-12 * scale, (op, arg)


class TestLastAxis:
    """``Grid1D.deriv_values`` and ``integrate_values`` act on the last
    axis: a (B, n) stack gives, row for row, the bits of B single-row
    calls."""

    @pytest.mark.parametrize("n", [16, 256])
    def test_stack_equals_rows(self, n):
        g = Grid1D(n, 5.0)
        stack = np.random.default_rng(n).standard_normal((7, n))
        ops = [
            ("deriv 1", lambda v: g.deriv_values(v, 1)),
            ("deriv 2", lambda v: g.deriv_values(v, 2)),
            ("deriv 3", lambda v: g.deriv_values(v, 3)),
            ("integrate", g.integrate_values),
        ]
        for name, op in ops:
            batched = op(stack)
            rows = np.array([op(row) for row in stack])
            assert batched.shape == rows.shape, name
            assert np.array_equal(batched, rows), name

    @pytest.mark.parametrize("shape", [(256,), (7, 256)], ids=["row", "stack"])
    def test_orders_share_one_forward_transform(self, monkeypatch, shape):
        g = Grid1D(256, 5.0)
        values = np.random.default_rng(3).standard_normal(shape)
        single = {p: g.deriv_values(values, p) for p in (1, 2, 3)}
        calls = []

        def counting(name):
            kernel = getattr(grid, name)

            def call(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            return call

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(grid, name, counting(name))
        for orders in [(1, 2, 3), (1, 2), (2, 3), (3, 1)]:
            calls.clear()
            outs = g.deriv_values(values, *orders)
            assert calls == ["rfft"] + ["irfft"] * len(orders), orders
            assert len(outs) == len(orders)
            for p, out in zip(orders, outs):
                assert np.array_equal(out, single[p]), (orders, p)

    @pytest.mark.parametrize("orders", [(0,), (4,), (-1,), (1, 4), (2, 0)])
    def test_deriv_values_rejects_a_bad_order(self, orders):
        g = Grid1D(32, 1.0)
        with pytest.raises(ValueError, match="derivative order must be 1, 2 or 3"):
            g.deriv_values(np.zeros(g.n), *orders)

    def test_integrate_values_reduces_the_last_axis(self):
        g = Grid1D(32, 2 * np.pi)
        stack = np.ones((3, 4, g.n))
        out = g.integrate_values(stack)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, g.length, rtol=1e-15)


class TestPeakPosition:
    def test_gaussian_off_grid_center(self):
        g = Grid1D(256, 20.0)
        x0 = 1.2341
        f = Field(g, np.exp(-((g.x - x0) ** 2)))
        assert peak_position(f) == pytest.approx(x0, abs=1e-3)

    def test_cosine_peak(self):
        g = Grid1D(256, 2 * np.pi)
        x0 = 0.7
        f = Field(g, np.cos(g.x - x0))
        assert peak_position(f) == pytest.approx(x0, abs=1e-3)

    def test_peak_near_domain_edge_wraps(self):
        g = Grid1D(256, 20.0)
        x0 = -9.97  # neighbour samples straddle the periodic seam
        f = Field(g, np.cos(2 * np.pi * (g.x - x0) / 20.0))
        pos = peak_position(f)
        assert -10.0 <= pos < 10.0
        assert abs(pos - x0) < 1e-3

    def test_flat_field_returns_a_grid_point(self):
        g = Grid1D(32, 4.0)
        f = Field(g, np.ones(g.n))
        assert peak_position(f) == pytest.approx(g.x[0])
