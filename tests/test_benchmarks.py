"""Closed-form benchmark problems: exact fields and their equation data."""

import numpy as np
import pytest

from degenlab.benchmarks import BENCHMARK_NAMES, exact_benchmark
from degenlab.errors import DomainError
from degenlab.grids import Grid


def _fd_checks_1d(u, sigma, f_of_x, xs, h=1e-6):
    """sup |sigma(|u'|) u'' - f| by central differences on the formula."""
    worst = 0.0
    for x in xs:
        up = (u(x + h) - u(x - h)) / (2 * h)
        upp = (u(x + h) - 2 * u(x) + u(x - h)) / h**2
        worst = max(worst, abs(sigma(abs(up)) * upp - f_of_x(x)))
    return worst


class TestRadialPower:
    # f = gamma^(1+theta) * (gamma + d - 2) with gamma = (2+theta)/(1+theta)
    @pytest.mark.parametrize(
        "theta,d,f_frozen",
        [
            (0.5, 2, 3.586095690932794),
            (1.0, 2, 3.375),
            (2.0, 2, 3.1604938271604923),
            (1.0, 1, 1.125),
        ],
    )
    def test_frozen_right_hand_side(self, theta, d, f_frozen):
        bench = exact_benchmark("radial-power", {"theta": theta, "d": d})
        grid = Grid(d=d, n=17)
        f_vals = bench.problem.f_on(grid)
        assert np.allclose(f_vals, f_frozen, rtol=1e-12)

    def test_exact_field_satisfies_equation(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        law = bench.problem.sigma_plus
        worst = _fd_checks_1d(
            lambda x: abs(x) ** 1.5,
            lambda t: law(t),
            lambda x: 1.125,
            np.linspace(0.2, 0.9, 15),
        )
        assert worst < 1e-3

    def test_exact_on_grid_values(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=9)
        vals = bench.exact_on(grid)
        X, Y = grid.meshgrid()
        assert np.allclose(vals, np.hypot(X, Y) ** 1.5)

    def test_laws_are_equal_powers(self):
        bench = exact_benchmark("radial-power", {"theta": 2.0, "d": 2})
        assert bench.problem.sigma_plus(0.5) == pytest.approx(0.25)
        assert bench.problem.sigma_minus(0.5) == pytest.approx(0.25)


class TestTransmission1D:
    def test_frozen_exponents_and_amplitudes(self):
        bench = exact_benchmark(
            "transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}
        )
        p = bench.params
        assert p["gamma1"] == pytest.approx(1.5, abs=1e-15)
        assert p["gamma2"] == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert p["kappa1"] == pytest.approx(0.9428090415820635, rel=1e-14)
        assert p["kappa2"] == pytest.approx(1.0816871777305561, rel=1e-14)

    def test_field_is_c1_at_interface(self):
        bench = exact_benchmark(
            "transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}
        )
        grid = Grid(d=1, n=4097)
        vals = bench.exact_on(grid)
        i0 = grid.n // 2
        assert vals[i0] == pytest.approx(0.0, abs=1e-14)
        fwd = (vals[i0 + 1] - vals[i0]) / grid.h
        bwd = (vals[i0] - vals[i0 - 1]) / grid.h
        # one-sided slopes vanish like h^(gamma-1); the slower side has
        # gamma2 - 1 = 1/3
        cap = 3.0 * grid.h ** (1.0 / 3.0)
        assert abs(fwd) < cap and abs(bwd) < cap

    def test_exact_field_satisfies_equation_both_sides(self):
        bench = exact_benchmark(
            "transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}
        )
        k1, k2 = bench.params["kappa1"], bench.params["kappa2"]
        g1, g2 = bench.params["gamma1"], bench.params["gamma2"]

        def u(x):
            return k1 * x**g1 if x >= 0 else -k2 * (-x) ** g2

        plus = _fd_checks_1d(
            u, bench.problem.sigma_plus, lambda x: 1.0, np.linspace(0.1, 0.9, 9)
        )
        minus = _fd_checks_1d(
            u, bench.problem.sigma_minus, lambda x: -1.0, np.linspace(-0.9, -0.1, 9)
        )
        assert plus < 1e-3 and minus < 1e-3

    def test_right_hand_side_switches_sign(self):
        bench = exact_benchmark(
            "transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 2.0}
        )
        grid = Grid(d=1, n=9)
        f = bench.problem.f_on(grid)
        assert np.all(f[grid.axis > 0] == 2.0)
        assert np.all(f[grid.axis < 0] == -2.0)


class TestAffine:
    def test_exact_recovery_data(self):
        bench = exact_benchmark("affine", {"d": 2, "b": [0.75, -0.25], "a": 0.3})
        grid = Grid(d=2, n=9)
        vals = bench.exact_on(grid)
        X, Y = grid.meshgrid()
        assert np.allclose(vals, 0.3 + 0.75 * X - 0.25 * Y)
        assert np.all(bench.problem.f_on(grid) == 0.0)

    def test_boundary_data_matches_field(self):
        bench = exact_benchmark("affine", {"d": 1, "b": [2.0], "a": -1.0})
        grid = Grid(d=1, n=9)
        g_vals = bench.problem.g_on(grid)
        assert np.allclose(g_vals, bench.exact_on(grid))


class TestDispatch:
    def test_names_registry(self):
        assert set(BENCHMARK_NAMES) == {"affine", "radial-power", "transmission-1d"}

    def test_unknown_name_raises(self):
        with pytest.raises(DomainError):
            exact_benchmark("mystery", {})

    @pytest.mark.parametrize("name, params", [
        ("affine", {}),
        ("radial-power", {"theta": 1.0}),
    ])
    @pytest.mark.parametrize("d", [1.5, 2.5, 0, 3])
    def test_dimension_must_be_one_or_two_exactly(self, name, params, d):
        with pytest.raises(DomainError, match="d must be 1 or 2"):
            exact_benchmark(name, {**params, "d": d})

    @pytest.mark.parametrize("name, params", [
        ("affine", {}),
        ("radial-power", {"theta": 1.0}),
    ])
    def test_integral_float_dimension_accepted(self, name, params):
        assert exact_benchmark(name, {**params, "d": 1.0}).d == 1

    def test_recommended_eps_deg_positive(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        assert bench.recommended_eps_deg(Grid(d=2, n=33)) > 0.0
