"""Empirical regularity lab: minimax affine fits and excess decay."""

import dataclasses

import numpy as np
import pytest

from degenlab.errors import DomainError
from degenlab.grids import DiscreteField, Grid
from degenlab.lab import (
    _ball_nodes,
    _gradient_pairs,
    _interp,
    best_affine,
    compare_modulus,
    decay_scan,
    rescale_field,
)
from degenlab.modulus import build_modulus
from degenlab.laws import PowerLaw
from oracles import bilinear_reference, brute_affine_1d


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
        assert len(prof.gradient_pairs) > 0

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


class TestRescaleField:
    def test_affine_part_removed(self):
        g = Grid(d=1, n=513)
        u = DiscreteField.from_function(g, lambda x: 0.4 + 0.2 * x)
        fit = best_affine(u, (0.0,), 0.25)
        v = rescale_field(u, fit, r=0.25, mu=0.5)
        assert v.sup_norm() <= 1e-12

    def test_normalization_contracts_to_unit(self):
        g = Grid(d=1, n=1025)
        u = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        fit = best_affine(u, (0.0,), 0.25)
        # normalized by mu * r = excess scale: sup over the unit ball ~ 1
        v = rescale_field(u, fit, r=0.25, mu=fit.excess / 0.25)
        assert v.sup_norm() <= 1.0 + 1e-3

    def test_composition_matches_single_step(self):
        g = Grid(d=1, n=2049)
        u = DiscreteField.from_function(g, lambda x: np.abs(x) ** 1.5)
        r, mu = 0.25, 0.5
        f1 = best_affine(u, (0.0,), r)
        v1 = rescale_field(u, f1, r=r, mu=mu)
        f2 = best_affine(v1, (0.0,), r)
        v2 = rescale_field(v1, f2, r=r, mu=mu)
        # compose: same zoom r^2, affine a1 + r*mu*a2? handled via direct fit
        composed = dataclasses.replace(
            f1,
            a=f1.a + mu * r * f2.a,
            b=tuple(np.asarray(f1.b) + mu * np.asarray(f2.b)),
        )
        direct = rescale_field(u, composed, r=r**2, mu=mu**2)
        xs = np.linspace(-0.9, 0.9, 41)
        interp = lambda w, x: np.interp(x, w.grid.axis, w.values)
        dev = max(abs(interp(v2, x) - interp(direct, x)) for x in xs)
        assert dev < 1e-10


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
    """The d-generic ball, gradient-pair and interpolation kernels."""

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
        coords, mask = _ball_nodes(grid, x0, rho)
        assert mask.shape == grid.shape and mask.sum() == count
        for c, full, x0i in zip(coords, grid.meshgrid(), x0):
            assert np.array_equal(c, full[mask])  # row-major node order
            assert np.all(np.abs(c - x0i) <= rho + 1e-12)

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
        assert _gradient_pairs(DiscreteField(grid, v)) == tuple(want)

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
        assert _gradient_pairs(DiscreteField(grid, v)) == tuple(want)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_gradient_pairs_scale_with_the_field(self, scale):
        grid = Grid(d=2, n=12)
        v = np.random.default_rng(4).normal(size=(12, 12))
        want = _gradient_pairs(DiscreteField(grid, v))
        got = _gradient_pairs(DiscreteField(grid, scale * v))
        assert len(got) == len(want)  # no increment overflows and is dropped
        assert np.allclose(np.array(got), np.array(want) * [1.0, scale],
                           rtol=1e-13, atol=0.0)

    def test_interp_1d_matches_numpy(self):
        grid = Grid(d=1, n=17)
        v = np.random.default_rng(5).normal(size=17)
        x = np.concatenate([np.random.default_rng(6).uniform(-1.0, 1.0, 50), grid.axis])
        got = _interp(DiscreteField(grid, v), (x,))
        assert np.allclose(got, np.interp(x, grid.axis, v), rtol=0.0, atol=1e-14)

    def test_interp_2d_matches_the_bilinear_formula(self):
        grid = Grid(d=2, n=17)
        rng = np.random.default_rng(7)
        v = rng.normal(size=(17, 17))
        x, y = rng.uniform(-1.0, 1.0, size=(2, 6, 5))
        got = _interp(DiscreteField(grid, v), (x, y))
        assert np.array_equal(got, bilinear_reference(v, grid.h, x, y))
