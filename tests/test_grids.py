"""Uniform grids on [-1, 1]^d and discrete fields."""

import numpy as np
import pytest

from degenlab.errors import DomainError
from degenlab.grids import DiscreteField, Grid, corners, refine_linear
from oracles import refine_linear_reference


class TestGrid:
    def test_spacing_and_endpoints(self):
        g = Grid(d=1, n=9)
        assert g.h == pytest.approx(0.25)
        assert g.axis[0] == -1.0 and g.axis[-1] == 1.0
        assert g.shape == (9,)

    def test_meshgrid_shapes(self):
        g = Grid(d=2, n=9)
        X, Y = g.meshgrid()
        assert X.shape == Y.shape == (9, 9)
        assert X[0, 0] == -1.0 and Y[-1, -1] == 1.0
        # ij indexing: first index moves x
        assert X[1, 0] != X[0, 0] and Y[1, 0] == Y[0, 0]

    def test_boundary_mask_counts(self):
        g = Grid(d=2, n=10)
        mask = g.boundary_mask()
        assert mask.sum() == 4 * 10 - 4
        assert not mask[2, 3]

    @pytest.mark.parametrize("d, n, boundary", [(1, 9, 2), (1, 12, 2), (2, 9, 32), (2, 12, 44)])
    def test_boundary_is_the_complement_of_the_interior(self, d, n, boundary):
        g = Grid(d=d, n=n)
        mask = g.boundary_mask()
        assert mask.sum() == boundary
        assert g.interior == (slice(1, -1),) * d
        assert not mask[g.interior].any()
        assert mask[g.interior].shape == (n - 2,) * d

    def test_meshgrid_1d_is_the_axis(self):
        g = Grid(d=1, n=9)
        (X,) = g.meshgrid()
        assert np.array_equal(X, g.axis)

    def test_corners_first_axis_fastest(self):
        assert corners(0) == [()]
        assert corners(1) == [(0,), (1,)]
        assert corners(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_sample_broadcasts_constants(self):
        g = Grid(d=2, n=9)
        vals = g.sample(lambda x, y: 3.0)
        assert vals.shape == (9, 9) and np.all(vals == 3.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            Grid(d=3, n=9)
        with pytest.raises(DomainError):
            Grid(d=1, n=2)


class TestDiscreteField:
    def test_sampled_field_matches_manual(self):
        g = Grid(d=1, n=9)
        u = DiscreteField(g, g.sample(lambda x: x**2))
        assert np.allclose(u.values, g.axis**2)

    def test_sup_norm_and_finite_check(self):
        g = Grid(d=1, n=9)
        u = DiscreteField(g, g.sample(lambda x: -2.0 * x))
        assert u.sup_norm() == 2.0
        u.values[2] = np.nan
        with pytest.raises(DomainError):
            u.assert_finite()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            DiscreteField(grid=Grid(d=1, n=9), values=np.zeros(4))


class TestRefine:
    def test_linear_refinement_exact_on_affine(self):
        g = Grid(d=2, n=9)
        u = DiscreteField(g, g.sample(lambda x, y: 2.0 * x - y + 0.5))
        fine = refine_linear(u)
        assert fine.grid.n == 17
        want = fine.grid.sample(lambda x, y: 2.0 * x - y + 0.5)
        assert np.allclose(fine.values, want)

    def test_coarse_nodes_preserved(self):
        g = Grid(d=1, n=9)
        u = DiscreteField(g, g.sample(lambda x: np.sin(x)))
        fine = refine_linear(u)
        assert np.allclose(fine.values[0::2], u.values)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [9, 12])
    def test_matches_the_per_dimension_formulas_bit_for_bit(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        vals = rng.normal(size=(n,) * d) * 10.0 ** rng.integers(-5, 5, size=(n,) * d)
        vals[rng.random(vals.shape) < 0.3] = -0.0
        vals[(slice(0, 2),) * d] = -0.0  # a cell whose corners are all -0.0
        fine = refine_linear(DiscreteField(Grid(d=d, n=n), vals)).values
        want = refine_linear_reference(vals)
        assert np.array_equal(fine, want)
        assert np.array_equal(np.signbit(fine), np.signbit(want))
        assert fine[(1,) * d] == 0.0 and np.signbit(fine[(1,) * d])  # -0.0 survives
