"""Problem bundles: everything that defines one transmission equation.

An instance fixes the data of

    sigma_plus(|Du + q|)  F(D^2 u) = f   where u > 0,
    sigma_minus(|Du + q|) F(D^2 u) = f   where u < 0,
    u = g on the boundary of [-1, 1]^d,

together with the constant C0 bounding |f| that the viscosity certificates
test against.  Where u = 0 the discretization uses the smaller of the two
laws, matching the minimal inequality that viscosity solutions satisfy
across the free boundary.  ``ProblemInstance.law_pair`` and
``select_phase`` are the one evaluation of the phase laws and the one sign
selection that the solver and the certifier share; ``gradient_norm`` is
the gradient magnitude both feed to the laws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticOperator
from .errors import DomainError
from .grids import Grid
from .laws import DegeneracyLaw


def _as_node_function(obj, what: str):
    """Normalize f / g specifications to a callable of coordinate arrays."""
    if callable(obj):
        return obj
    try:
        const = float(obj)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a callable or a number") from None
    return lambda *coords: np.full_like(np.asarray(coords[0], dtype=float), const)


def gradient_norm(g) -> np.ndarray:
    """|g| of the gradient components g: their absolute value in 1-d, hypot in 2-d."""
    return np.abs(g[0]) if len(g) == 1 else functools.reduce(np.hypot, g)


def select_phase(u, plus, minus, zero=None):
    """``plus`` where u > 0, ``minus`` where u < 0, ``zero`` where u = 0.

    ``zero`` defaults to the smaller of the two, np.minimum(plus, minus).
    """
    if zero is None:
        zero = np.minimum(plus, minus)
    return np.where(u > 0.0, plus, np.where(u < 0.0, minus, zero))


@dataclass(frozen=True)
class ProblemInstance:
    """Data of one equation on [-1, 1]^d.

    ``f`` and ``g`` may be numbers or callables of the coordinate arrays;
    ``q`` is the constant gradient shift (zero vector by default).
    """

    operator: EllipticOperator
    sigma_plus: DegeneracyLaw
    sigma_minus: DegeneracyLaw
    f: object
    g: object
    C0: float
    q: tuple = ()

    def __post_init__(self):
        if not (self.C0 >= 0.0 and np.isfinite(self.C0)):
            raise DomainError("ProblemInstance: C0 must be a finite non-negative real")
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))

    def q_vector(self, d: int) -> np.ndarray:
        if not self.q:
            return np.zeros(d)
        if len(self.q) != d:
            raise DomainError(
                f"ProblemInstance: q has length {len(self.q)}, expected {d}"
            )
        return np.asarray(self.q, dtype=float)

    def law_pair(self, speed):
        """(sigma_plus, sigma_minus, clamped) at the gradient magnitudes ``speed``.

        Each law is frozen at its domain cap t_max; ``clamped`` reports
        whether any speed went past either cap.
        """
        sp, sm = self.sigma_plus, self.sigma_minus
        clamped = bool(np.any(speed > min(sp.t_max, sm.t_max)))
        return sp(np.minimum(speed, sp.t_max)), sm(np.minimum(speed, sm.t_max)), clamped

    def f_on(self, grid: Grid) -> np.ndarray:
        return grid.sample(_as_node_function(self.f, "f"))

    def g_on(self, grid: Grid) -> np.ndarray:
        return grid.sample(_as_node_function(self.g, "g"))
