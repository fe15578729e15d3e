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
the gradient magnitude both feed to the laws.  ``per_law`` maps both laws,
once if they are equal (``one_law``); ``select_phase`` returns that one.
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
    The result has the broadcast shape of u, plus and minus; it is plus
    itself if plus is minus, of u's shape, and zero is not given.
    """
    if plus is minus and zero is None and np.shape(plus) == np.shape(u):
        return plus
    if zero is None:
        zero = np.minimum(plus, minus)
    return np.where(u > 0.0, plus, np.where(u < 0.0, minus, zero))


@dataclass(frozen=True)
class ProblemInstance:
    """Data of one equation on [-1, 1]^d.

    ``f`` and ``g`` may be numbers or callables of the coordinate arrays;
    ``q`` is the constant gradient shift (zero vector by default).
    ``one_law`` tells whether the laws are equal, by value as in
    ``laws.a_sequence``: two equal law objects count as one.
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
        object.__setattr__(self, "one_law", bool(self.sigma_plus == self.sigma_minus))

    def q_vector(self, d: int) -> np.ndarray:
        if not self.q:
            return np.zeros(d)
        if len(self.q) != d:
            raise DomainError(
                f"ProblemInstance: q has length {len(self.q)}, expected {d}"
            )
        return np.asarray(self.q, dtype=float)

    def per_law(self, func):
        """(func(sigma_plus), func(sigma_minus)); one call for both with ``one_law``."""
        plus = func(self.sigma_plus)
        return plus, plus if self.one_law else func(self.sigma_minus)

    def law_pair(self, speed):
        """(sigma_plus, sigma_minus, clamped) at the gradient magnitudes ``speed``,
        by ``per_law``; ``clamped`` tells whether a speed passed either law's
        t_max, past which ``laws`` freezes it."""
        clamped = bool(np.any(speed > min(self.sigma_plus.t_max, self.sigma_minus.t_max)))
        return (*self.per_law(lambda law: law(speed)), clamped)

    def f_on(self, grid: Grid) -> np.ndarray:
        return grid.sample(_as_node_function(self.f, "f"))

    def g_on(self, grid: Grid) -> np.ndarray:
        return grid.sample(_as_node_function(self.g, "g"))
