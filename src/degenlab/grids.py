"""Uniform tensor grids on [-1, 1]^d and scalar fields living on them.

One layout rule, used across the solver, certifier and lab in any d:
values[i_0, ..., i_{d-1}] sits at (x_{i_0}, ..., x_{i_{d-1}}) with
x_i = -1 + i h, h = 2 / (n - 1); axis k is coordinate k (row-major,
matching ``np.meshgrid(..., indexing="ij")``).

The interior nodes, those with every index in 1 .. n-2, are
``values[grid.interior]``; diagonal neighbours of interior nodes always
exist, which the wide-stencil operators rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MIN_NODES = 9


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n nodes per axis on [-1, 1]^d, d in {1, 2}."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise DomainError("Grid: dimension d must be 1 or 2")
        if self.n < MIN_NODES:
            raise DomainError(f"Grid: need at least {MIN_NODES} nodes per axis")

    @property
    def h(self) -> float:
        return 2.0 / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def interior(self) -> tuple:
        """Index of the interior nodes: values[grid.interior]."""
        return (slice(1, -1),) * self.d

    def meshgrid(self):
        """Coordinate arrays of the full grid, shape == self.shape each."""
        return np.meshgrid(*(self.axis,) * self.d, indexing="ij")

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        return mask

    def sample(self, func) -> np.ndarray:
        """Evaluate a callable of d arguments on every node."""
        coords = self.meshgrid()
        vals = np.asarray(func(*coords), dtype=float)
        if vals.shape != self.shape:
            vals = np.broadcast_to(vals, self.shape).copy()
        return vals


@dataclass
class DiscreteField:
    """Scalar field on a Grid.  Mutable: the solver updates it in place."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"DiscreteField: values shape {vals.shape} does not match "
                f"grid shape {self.grid.shape}"
            )
        self.values = vals

    @classmethod
    def from_function(cls, grid: Grid, func) -> "DiscreteField":
        return cls(grid=grid, values=grid.sample(func))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "DiscreteField":
        return cls(grid=grid, values=np.full(grid.shape, float(value)))

    def copy(self) -> "DiscreteField":
        return DiscreteField(grid=self.grid, values=self.values.copy())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def assert_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise DomainError("DiscreteField contains non-finite values")

    def interior(self) -> np.ndarray:
        """View of the interior nodes."""
        return self.values[self.grid.interior]


def corners(k: int) -> list:
    """The 2^k offsets in {0, 1}^k, the first axis varying fastest."""
    return [c[::-1] for c in itertools.product((0, 1), repeat=k)]


def refine_linear(field: DiscreteField) -> DiscreteField:
    """Interpolate a field onto the grid with 2n - 1 nodes per axis.

    Fine nodes are the coarse nodes plus edge / cell midpoints, so linear
    interpolation is exact averaging; used to warm-start fine solves.  A
    midpoint across k axes is 0.5^k times the sum of its 2^k coarse
    corners, summed in ``corners`` order from the first corner on (not
    from 0, so -0.0 survives).
    """
    g = field.grid
    fine = Grid(d=g.d, n=2 * g.n - 1)
    u = field.values
    v = np.empty(fine.shape)
    for parity in itertools.product((0, 1), repeat=g.d):
        terms = [
            u[tuple(slice(c, g.n - 1 + c) if p else slice(None) for c, p in zip(corner, parity))]
            for corner in corners(g.d) if all(c <= p for c, p in zip(corner, parity))
        ]
        v[tuple(slice(p, None, 2) for p in parity)] = 0.5 ** sum(parity) * sum(terms[1:], terms[0])
    return DiscreteField(grid=fine, values=v)
