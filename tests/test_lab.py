"""Empirical regularity lab: minimax affine fits and excess decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab import lab
from degenlab.errors import DomainError, NumericError
from degenlab.grids import DiscreteField, Grid
from degenlab.lab import (
    _ball_nodes,
    best_affine,
    compare_modulus,
    decay_scan,
    gradient_pairs,
)
from degenlab.modulus import build_modulus
from degenlab.laws import PowerLaw
from oracles import brute_affine_1d, minimax_reference


class TestBestAffine:
    def test_cusp_1d_exact(self):
        # u = |x|^{3/2} on [-rho, rho]: best affine is the constant rho^{3/2}/2
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        for rho in (0.25, 0.0625):
            fit = best_affine(u, (0.0,), rho)
            assert fit.excess == pytest.approx(rho**1.5 / 2.0, rel=1e-12)
            assert fit.a == pytest.approx(rho**1.5 / 2.0, rel=1e-12)
            assert fit.b[0] == pytest.approx(0.0, abs=1e-12)
            assert fit.certified

    def test_parabola_1d_exact(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: x**2 / 2.0)
        fit = best_affine(u, (0.0,), 0.25)
        assert fit.excess == pytest.approx(0.25**2 / 4.0, rel=1e-12)
        # off-center the optimal slope is the center derivative
        fit2 = best_affine(u, (0.25,), 0.125)
        assert fit2.b[0] == pytest.approx(0.25, rel=1e-12)
        assert fit2.excess == pytest.approx(0.125**2 / 4.0, rel=1e-12)

    def test_affine_recovered_exactly(self):
        g = Grid(d=1, n=129)
        u = DiscreteField.from_function(g, lambda x: 0.3 + 0.75 * x)
        fit = best_affine(u, (0.0,), 0.5)
        assert fit.excess <= 1e-14
        assert fit.a == pytest.approx(0.3, abs=1e-12)
        assert fit.b[0] == pytest.approx(0.75, abs=1e-12)

    def test_cusp_2d_frozen(self):
        # sup-ball fit of |x|_2^{3/2}: E = 2^{3/4} rho^{3/2} / 2
        g = Grid(d=2, n=257)
        X, Y = g.meshgrid()
        u = DiscreteField(grid=g, values=np.hypot(X, Y) ** 1.5)
        fit = best_affine(u, (0.0, 0.0), 0.25)
        assert fit.excess == pytest.approx(0.10511205190671433, rel=1e-12)
        fit2 = best_affine(u, (0.0, 0.0), 0.0625)
        assert fit2.excess == pytest.approx(0.013139006488339291, rel=1e-12)
        analytic = 2.0**0.75 * 0.25**1.5 / 2.0
        assert fit.excess == pytest.approx(analytic, rel=1e-13)

    def test_matches_brute_force_fit(self):
        g = Grid(d=1, n=257)
        u = DiscreteField.from_function(g, lambda x: np.sin(2.0 * x))
        fit = best_affine(u, (0.125,), 0.25)
        brute, _ = brute_affine_1d(lambda x: np.sin(2.0 * x), 0.125, 0.25, 257)
        # the brute slope grid is coarse; it can only overshoot
        assert fit.excess <= brute + 1e-6
        assert fit.excess == pytest.approx(brute, rel=5e-3)

    def test_translation_invariance(self):
        g = Grid(d=1, n=257)
        u1 = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        u2 = DiscreteField.from_function(
            g, lambda x: np.abs(x) ** 1.5 + 0.7 - 0.3 * x
        )
        f1 = best_affine(u1, (0.0,), 0.25)
        f2 = best_affine(u2, (0.0,), 0.25)
        assert f2.excess == pytest.approx(f1.excess, abs=1e-14)
        assert f2.b[0] - f1.b[0] == pytest.approx(-0.3, abs=1e-12)

    def test_needs_enough_nodes(self):
        g = Grid(d=1, n=9)
        u = DiscreteField.constant(g, 0.0)
        with pytest.raises(DomainError):
            best_affine(u, (0.0,), 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_ball(self, bad):
        g = Grid(d=2, n=17)
        v = np.zeros(g.shape)
        v[8, 9] = bad
        u = DiscreteField(grid=g, values=v)
        with pytest.raises(DomainError, match="non-finite"):
            best_affine(u, (0.0, 0.0), 0.25)
        assert best_affine(u, (-0.5, -0.5), 0.25).excess == 0.0  # not in that ball

    @pytest.mark.parametrize("x0", [(1.125, 0.0), (0.0, -1.5), (np.nan, 0.0)])
    def test_center_outside_the_cube(self, x0):
        # (1.125, 0) would see the collinear 5-node column x = 1
        g = Grid(d=2, n=17)
        u = DiscreteField.from_function(g, lambda x, y: x**2 + y)
        with pytest.raises(DomainError, match="outside"):
            best_affine(u, x0, 0.25)

    def test_extreme_magnitudes(self):
        g = Grid(d=2, n=17)
        X, Y = g.meshgrid()
        checker = (-1.0) ** np.add.outer(np.arange(17), np.arange(17))
        fit = best_affine(DiscreteField(grid=g, values=1e308 * checker), (0.0, 0.0), 0.25)
        assert (fit.excess, fit.a, fit.b) == (1e308, 0.0, (0.0, 0.0))
        assert fit.certified
        fit = best_affine(DiscreteField(grid=g, values=1.7e308 * X), (0.0, 0.0), 0.25)
        assert fit.excess == 0.0 and fit.b[0] == 1.7e308
        tiny = best_affine(DiscreteField(grid=g, values=1e-320 * checker), (0.0, 0.0), 0.25)
        assert tiny.excess == 1e-320 and tiny.certified
        # the slope of a +-1e308 step over one cell is no double
        step = DiscreteField(grid=g, values=np.where(X > 0.0, 1e308, -1e308))
        with pytest.raises(NumericError, match="overflows"):
            best_affine(step, (0.0, 0.0), 0.25)

    def test_step_cap_raises(self, monkeypatch):
        g = Grid(d=2, n=33)
        X, Y = g.meshgrid()
        u = DiscreteField(grid=g, values=np.hypot(X, Y) ** 1.5)
        steps = best_affine(u, (0.0, 0.0), 0.5).exchange_steps
        assert steps > 0  # the corners alone level at 0, the center is off by max
        monkeypatch.setattr(lab, "EXCHANGE_STEP_CAP", steps)
        best_affine(u, (0.0, 0.0), 0.5)
        monkeypatch.setattr(lab, "EXCHANGE_STEP_CAP", steps - 1)
        with pytest.raises(NumericError, match="did not settle"):
            best_affine(u, (0.0, 0.0), 0.5)


def _tie_heavy_values(kind, coords, x0, rng):
    if kind == "noise":
        return rng.normal(size=coords[0].shape)
    if kind == "radial":  # centred on the ball: symmetric, every ring ties
        return np.sqrt(sum((c - x0j) ** 2 for c, x0j in zip(coords, x0)))
    if kind == "checker":
        return (-1.0) ** sum(np.indices(coords[0].shape))
    if kind == "constant":
        return np.full(coords[0].shape, 0.75)
    return 0.25 - 0.5 * coords[0] + 2.0 * coords[-1]  # affine


class TestExchangeAgainstLP:
    """The exchange fit against HiGHS, on random and tie-heavy fields."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from((1, 2)),
        n=st.sampled_from((9, 17, 33)),
        kind=st.sampled_from(("noise", "radial", "checker", "constant", "affine")),
        seed=st.integers(0, 2**32 - 1),
        half_cells=st.integers(1, 24),
        on_node=st.booleans(),
    )
    def test_matches_lp_and_certifies(self, d, n, kind, seed, half_cells, on_node):
        grid = Grid(d=d, n=n)
        rng = np.random.default_rng(seed)
        coords = grid.meshgrid()
        if on_node:  # a node or, for odd half_cells, a cell center: smallest balls
            idx = rng.integers(0, n - 1, size=d)
            x0 = tuple(grid.axis[i] + (half_cells % 2) * grid.h / 2 for i in idx)
        else:
            x0 = tuple(rng.uniform(-1.0, 1.0, size=d))
        rho = half_cells * grid.h / 2
        values = _tie_heavy_values(kind, coords, x0, rng)
        u = DiscreteField(grid=grid, values=values)
        excess, mask, _ = minimax_reference(coords, values, x0, rho)
        if mask.sum() < d + 2:
            with pytest.raises(DomainError, match="need at least"):
                best_affine(u, x0, rho)
            return
        fit = best_affine(u, x0, rho)
        assert fit.n_nodes == mask.sum()
        assert fit.excess == pytest.approx(excess, rel=1e-9, abs=1e-12)
        # the reported excess is that of the reported affine function
        v = values.ravel()[mask]
        A = np.column_stack([np.ones(v.size)] + [c.ravel()[mask] - x0j
                                                  for c, x0j in zip(coords, x0)])
        z = np.array((fit.a, *fit.b))
        assert np.max(np.abs(v - A @ z)) == pytest.approx(fit.excess, rel=1e-12, abs=1e-15)
        # the certificate: weights y s on d + 2 distinct nodes, y >= 0 summing
        # to 1, annihilating every affine function, and their lower bound
        # sum(y s v) closing the gap to the excess
        ref, w = np.array(fit.reference), np.array(fit.weights)
        assert ref.size == d + 2 == np.unique(ref).size
        assert abs(np.abs(w).sum() - 1.0) <= 1e-12
        assert np.max(np.abs(w @ A[ref])) <= 1e-12
        lower = w @ v[ref]
        assert lower <= excess + 1e-12
        assert fit.excess - lower <= 1e-9 * max(1.0, fit.excess)
        assert fit.certified


class TestDecayScan:
    def test_cusp_slope_is_half(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        # N=7 pushes the last scale below the 3h resolution floor
        with pytest.warns(UserWarning):
            prof = decay_scan(u, (0.0,), 0.5, 7)
        # E(rho)/rho = rho^{1/2}/2: exact log-log slope 1/2
        assert prof.slope == pytest.approx(0.5, abs=1e-10)
        assert prof.truncated
        assert prof.uncertified == 0
        assert prof.exchange_steps == sum(
            best_affine(u, (0.0,), rho).exchange_steps for rho in prof.scales)
        assert gradient_pairs(u).shape[0] > 0

    def test_scales_descend_geometrically(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: x**2)
        prof = decay_scan(u, (0.0,), 0.5, 4)
        assert np.allclose(prof.scales, [0.5, 0.25, 0.125, 0.0625])
        assert np.all(np.diff(prof.scales) < 0)

    def test_affine_flagged_clean(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: 1.0 - 2.0 * x)
        prof = decay_scan(u, (0.0,), 0.5, 4)
        assert prof.clean_affine
        assert prof.slope is None
        assert np.allclose(prof.rates, 0.0, atol=1e-12)

    def test_rows_align_with_arrays(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: x**2)
        prof = decay_scan(u, (0.0,), 0.5, 4)
        rows = list(prof.rows())
        assert len(rows) == len(prof.scales)
        for (scale, excess, rate), s, e, r in zip(
            rows, prof.scales, prof.excesses, prof.rates
        ):
            assert (scale, excess, rate) == (s, e, r)


class TestCompareModulus:
    def _omega(self):
        _, _, omega = build_modulus(
            PowerLaw(p=1.0), PowerLaw(p=1.0), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        return omega

    def test_cusp_ratios_bounded(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        prof = decay_scan(u, (0.0,), 0.5, 5)
        rep = compare_modulus(prof, self._omega())
        assert np.isfinite(rep.C_star) and rep.C_star > 0
        assert rep.spread >= 1.0
        assert len(rep.ratios) == len(prof.scales)

    def test_affine_profile_has_zero_constant(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: 2.0 * x - 0.1)
        prof = decay_scan(u, (0.0,), 0.5, 4)
        rep = compare_modulus(prof, self._omega())
        # the fit leaves at most solver-precision dust in the excess
        assert rep.C_star <= 1e-14


class TestGridSampling:
    """The d-generic ball and gradient-pair kernels."""

    @pytest.mark.parametrize("d, x0, rho, count", [
        (1, (0.0,), 0.25, 5),
        (1, (0.1,), 0.2, 3),
        (1, (0.5,), 0.3, 5),
        (2, (0.0, 0.0), 0.25, 25),
        (2, (0.1, 0.5), 0.2, 9),
        (2, (-1.0, 1.0), 0.25, 9),
    ])
    def test_ball_node_counts(self, d, x0, rho, count):
        grid = Grid(d=d, n=17)
        coords, box = _ball_nodes(grid, x0, rho)
        # the ball by its definition, as a mask over the whole grid
        mask = np.logical_and.reduce(
            [np.abs(c - x0i) <= rho + 1e-12 for c, x0i in zip(grid.meshgrid(), x0)])
        assert mask.sum() == count
        nodes = np.arange(grid.n**d).reshape(grid.shape)
        assert np.array_equal(nodes[box].ravel(), nodes[mask])  # row-major node order
        for c, full in zip(coords, grid.meshgrid()):
            assert np.array_equal(c, full[mask])

    def test_gradient_pairs_1d_are_central_difference_increments(self):
        n = 40
        grid = Grid(d=1, n=n)
        v = np.random.default_rng(3).normal(size=n)
        h = grid.h
        g = {i: (v[i + 1] - v[i - 1]) / (2 * h) for i in range(1, n - 1)}
        want = [
            (gap * h, abs(g[i + gap] - g[i]))
            for gap in (2, 4, 8, 16, 32)
            for i in range(1, n - 1) if i + gap <= n - 2
        ]
        assert np.array_equal(gradient_pairs(DiscreteField(grid, v)), np.array(want))

    def test_gradient_pairs_2d_order_axis_then_row_major(self):
        n = 12
        grid = Grid(d=2, n=n)
        v = np.random.default_rng(4).normal(size=(n, n))
        h = grid.h
        gx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h)  # at nodes (1..n-2)^2
        gy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
        want = []
        for gap in (2, 4, 8):
            m = n - 2 - gap  # first indices i with i + gap <= n - 2
            for a, b in (((slice(gap, gap + m), slice(None)), (slice(0, m), slice(None))),
                         ((slice(None), slice(gap, gap + m)), (slice(None), slice(0, m)))):
                dx, dy = gx[a] - gx[b], gy[a] - gy[b]
                want += [(gap * h, float(t)) for t in np.sqrt(dx**2 + dy**2).ravel()]
        assert np.array_equal(gradient_pairs(DiscreteField(grid, v)), np.array(want))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_gradient_pairs_scale_with_the_field(self, scale):
        grid = Grid(d=2, n=12)
        v = np.random.default_rng(4).normal(size=(12, 12))
        want = gradient_pairs(DiscreteField(grid, v))
        got = gradient_pairs(DiscreteField(grid, scale * v))
        assert got.shape == want.shape  # no increment overflows and is dropped
        assert np.allclose(got, want * [1.0, scale], rtol=1e-13, atol=0.0)
