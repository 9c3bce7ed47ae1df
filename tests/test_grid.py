import numpy as np
import pytest

from wavelab.ch import CHParams
from wavelab.grid import (
    MAX_STEPS,
    Field,
    Grid1D,
    dealias,
    deriv,
    field_from_csv,
    field_to_csv,
    helmholtz_inv,
    integrate,
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

    def test_csv_roundtrip(self, tmp_path):
        g = Grid1D(32, 4.0)
        f = Field.from_function(g, lambda x: np.exp(np.sin(2 * np.pi * x / 4.0)))
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        assert path.read_text().splitlines()[0] == "x,value"
        back = field_from_csv(path)
        assert back.grid == f.grid
        np.testing.assert_array_equal(back.values, f.values)

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
        f = Field.from_function(g, np.sin)
        df = deriv(f, 1)
        assert np.max(np.abs(df.values - np.cos(g.x))) < 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_derivative_vanishes(self, order):
        g = Grid1D(32, 5.0)
        f = Field(g, np.full(32, 3.7))
        assert np.max(np.abs(deriv(f, order).values)) < 1e-13

    def test_against_fd4_oracle(self):
        g = Grid1D(512, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.exp(np.sin(x)))
        df = deriv(f, 1)
        oracle = fd4_derivative(f.values, g.h)
        # FD4 truncation ~ h^4 |f^(5)| / 30 ~ 3e-9 at n=512
        assert np.max(np.abs(df.values - oracle)) < 1e-7

    def test_rejects_bad_order(self):
        g = Grid1D(32, 1.0)
        f = Field.zeros(g)
        with pytest.raises(ValueError):
            deriv(f, 4)

    def test_composition_matches_second_derivative(self):
        g = Grid1D(128, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.exp(np.sin(x)))
        twice = deriv(deriv(f, 1), 1)
        once = deriv(f, 2)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) / scale < 1e-10


class TestHelmholtzInv:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_cos_mode(self, k):
        g = Grid1D(256, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.cos(k * x))
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
        live = np.abs(g.modes) <= 30
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
            f = Field.from_function(g, lambda x: np.cos(m * x))
            w = helmholtz_inv(f)
            forward = w.values - g.deriv_values(w.values, 2)
            assert np.max(np.abs(forward - f.values)) < 1e-12


class TestIntegrate:
    def test_constant(self):
        g = Grid1D(50, 10.0)
        assert integrate(Field(g, np.ones(50))) == pytest.approx(10.0, abs=1e-13)

    def test_odd_mode_vanishes(self):
        g = Grid1D(64, 2 * np.pi)
        assert abs(integrate(Field.from_function(g, np.sin))) < 1e-13

    def test_sin_squared(self):
        g = Grid1D(64, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.sin(x) ** 2)
        assert integrate(f) == pytest.approx(np.pi, abs=1e-12)

    def test_derivative_integrates_to_zero(self):
        g = Grid1D(128, 7.0)
        f = Field.from_function(g, lambda x: np.exp(np.cos(2 * np.pi * x / 7.0)))
        assert abs(integrate(deriv(f, 1))) < 1e-12


class TestDealiasAndShift:
    def test_dealias_kills_top_third(self):
        g = Grid1D(96, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.cos(40 * x))  # 40 > 96/3
        assert np.max(np.abs(dealias(f).values)) < 1e-13

    def test_dealias_keeps_low_modes(self):
        g = Grid1D(96, 2 * np.pi)
        f = Field.from_function(g, lambda x: np.cos(5 * x))
        assert np.max(np.abs(dealias(f).values - f.values)) < 1e-13

    def test_shift_translates_gaussian(self):
        g = Grid1D(256, 40.0)
        f = Field.from_function(g, lambda x: np.exp(-(x**2)))
        shifted = spectral_shift(f, 1.5)
        expected = np.exp(-((g.x - 1.5) ** 2))
        assert np.max(np.abs(shifted.values - expected)) < 1e-12


def complex_fft_reference(grid, values, op, arg=None):
    """The operators as full complex FFT round trips; independent oracle."""
    vh = np.fft.fft(values)
    k = grid.k
    if op == "deriv":
        mult = (1j * k) ** arg
        if arg % 2 == 1:
            mult[grid.n // 2] = 0.0
    elif op == "helmholtz_inv":
        mult = 1.0 / (1.0 + k**2)
    elif op == "dealias":
        mult = np.abs(grid.modes) <= grid.n // 3
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
            f = Field.from_function(g, lambda x: np.cos(m * x))
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
    """Every ``Grid1D.*_values`` operator acts on the last axis: a (B, n)
    stack gives, row for row, the bits of B single-row calls."""

    @pytest.mark.parametrize("n", [16, 256])
    def test_stack_equals_rows(self, n):
        g = Grid1D(n, 5.0)
        stack = np.random.default_rng(n).standard_normal((7, n))
        ops = [
            ("deriv 1", lambda v: g.deriv_values(v, 1)),
            ("deriv 2", lambda v: g.deriv_values(v, 2)),
            ("deriv 3", lambda v: g.deriv_values(v, 3)),
            ("helmholtz_inv", g.helmholtz_inv_values),
            ("dealias", g.dealias_values),
            ("shift", lambda v: g.shift_values(v, 0.37)),
            ("integrate", g.integrate_values),
        ]
        for name, op in ops:
            batched = op(stack)
            rows = np.array([op(row) for row in stack])
            assert batched.shape == rows.shape, name
            assert np.array_equal(batched, rows), name

    def test_integrate_values_reduces_the_last_axis(self):
        g = Grid1D(32, 2 * np.pi)
        stack = np.ones((3, 4, g.n))
        out = g.integrate_values(stack)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, g.length, rtol=1e-15)

    def test_integrate_of_a_field_is_a_float(self):
        g = Grid1D(32, 2 * np.pi)
        value = integrate(Field(g, np.ones(g.n)))
        assert type(value) is float
        assert value == pytest.approx(g.length, rel=1e-15)


class TestPeakPosition:
    def test_gaussian_off_grid_center(self):
        g = Grid1D(256, 20.0)
        x0 = 1.2341
        f = Field.from_function(g, lambda x: np.exp(-((x - x0) ** 2)))
        assert peak_position(f) == pytest.approx(x0, abs=1e-3)

    def test_cosine_peak(self):
        g = Grid1D(256, 2 * np.pi)
        x0 = 0.7
        f = Field.from_function(g, lambda x: np.cos(x - x0))
        assert peak_position(f) == pytest.approx(x0, abs=1e-3)

    def test_peak_near_domain_edge_wraps(self):
        g = Grid1D(256, 20.0)
        x0 = -9.97  # neighbour samples straddle the periodic seam
        f = Field.from_function(
            g, lambda x: np.cos(2 * np.pi * (x - x0) / 20.0)
        )
        pos = peak_position(f)
        assert -10.0 <= pos < 10.0
        assert abs(pos - x0) < 1e-3

    def test_flat_field_returns_a_grid_point(self):
        g = Grid1D(32, 4.0)
        f = Field(g, np.ones(g.n))
        assert peak_position(f) == pytest.approx(g.x[0])
