"""Closed-form solutions used as ground truth for the grid solver.

Each benchmark bundles a ProblemInstance with the exact solution it is
manufactured from, so solver output can be scored in the sup norm.

affine(b, d)
    u(x) = b . x solves the equation with f = 0 for any operator and any
    pair of laws: D^2 u = 0 and F(0) = 0.

radial-power(theta, d)
    u(x) = |x|^gamma with gamma = (2 + theta)/(1 + theta) and
    sigma(t) = t^theta on both phases, F = trace.  Then |Du| = gamma
    |x|^(gamma-1), trace(D^2 u) = gamma (gamma + d - 2) |x|^(gamma-2), and
    the powers of |x| cancel exactly:

        sigma(|Du|) trace(D^2 u) = gamma^(1+theta) (gamma + d - 2) =: f.

    The exponent gamma is the canonical regularity scale of the degenerate
    equation: u is C^{1,1/(1+theta)} and no better at the origin.

transmission-1d(theta1, theta2, c)
    Two power laws meet at x = 0 with a genuinely degenerate interface
    (u'(0) = 0).  With gamma_i = (2 + theta_i)/(1 + theta_i) and

        kappa_i = ((1 + theta_i) c)^(1/(1+theta_i)) (1 + theta_i)/(2 + theta_i),

    the function u = kappa_1 x^{gamma_1} for x >= 0, u = -kappa_2
    |x|^{gamma_2} for x < 0 satisfies sigma_{sgn(u)}(|u'|) u'' = c sgn(x):
    substituting gives |u'|^{theta_i} u'' = (kappa_i gamma_i)^{1+theta_i}
    (gamma_i - 1 + theta_i (gamma_i - 1) + gamma_i - 2 ... ) with all |x|
    powers cancelling, and the kappa_i above normalize the constant to c.
    The source term is piecewise constant (f(0) = 0), the solution is C^1
    across the interface, and the positivity set switches exactly at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticityPair, EllipticOperator
from .errors import DomainError
from .grids import Grid
from .laws import PowerLaw
from .problem import ProblemInstance

BENCHMARK_NAMES = ("affine", "radial-power", "transmission-1d")


@dataclass(frozen=True)
class Benchmark:
    """A ProblemInstance plus the exact solution it was manufactured from."""

    name: str
    params: dict
    d: int
    problem: ProblemInstance
    u_exact: object

    def exact_on(self, grid: Grid) -> np.ndarray:
        if grid.d != self.d:
            raise DomainError(
                f"benchmark {self.name} is {self.d}-dimensional, grid is {grid.d}"
            )
        return grid.sample(self.u_exact)

    def recommended_eps_deg(self, grid: Grid) -> float:
        """Gradient clamp tuned so the degenerate set does not poison accuracy.

        Where the exact gradient vanishes the continuous equation fixes
        F(D^2 u) = f / sigma(|Du|) by a 0/0 cancellation the grid cannot
        reproduce; the clamp must keep f / sigma(eps) at the scale of the
        true second differences, which is h^(gamma-2) per unit f.  Solving
        sigma(eps) = f h^(2-gamma) / 4 for eps achieves that.  Benchmarks
        without a degenerate interior point just return a small floor.
        """
        h = grid.h
        if self.name == "radial-power":
            theta = self.params["theta"]
            gamma = (2.0 + theta) / (1.0 + theta)
            f = self.params["_f_value"]
            return float((f * h ** (2.0 - gamma) / 4.0) ** (1.0 / theta))
        if self.name == "transmission-1d":
            c = self.params["c"]
            theta = min(self.params["theta1"], self.params["theta2"])
            gamma = (2.0 + theta) / (1.0 + theta)
            return float((c * h ** (2.0 - gamma) / 4.0) ** (1.0 / theta))
        return 1e-8


def exact_benchmark(name: str, params: dict) -> Benchmark:
    """Instantiate a named benchmark; see module docstring for the math."""
    params = dict(params)
    if name == "affine":
        return _affine(params)
    if name == "radial-power":
        return _radial_power(params)
    if name == "transmission-1d":
        return _transmission_1d(params)
    raise DomainError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}")


def _dimension(params: dict, name: str) -> int:
    """Pop the benchmark's dimension "d" (default 2): exactly 1 or 2."""
    d = params.pop("d", 2)
    if d not in (1, 2):
        raise DomainError(f"{name} benchmark: d must be 1 or 2, got {d!r}")
    return int(d)


def _affine(params: dict) -> Benchmark:
    d = _dimension(params, "affine")
    b = params.pop("b", (0.75,) * d)
    a = float(params.pop("a", 0.0))
    if params:
        raise DomainError(f"affine benchmark: unknown params {sorted(params)}")
    b = tuple(float(v) for v in b)
    if len(b) != d:
        raise DomainError("affine benchmark: slope b must have length d")

    def u_exact(*coords):
        out = np.full_like(np.asarray(coords[0], dtype=float), a)
        for bi, c in zip(b, coords):
            out = out + bi * c
        return out

    op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
    prob = ProblemInstance(
        operator=op,
        sigma_plus=PowerLaw(p=1.0),
        sigma_minus=PowerLaw(p=1.0),
        f=0.0,
        g=u_exact,
        C0=0.0,
    )
    return Benchmark(
        name="affine", params={"d": d, "b": b, "a": a}, d=d, problem=prob,
        u_exact=u_exact,
    )


def _radial_power(params: dict) -> Benchmark:
    theta = float(params.pop("theta"))
    d = _dimension(params, "radial-power")
    if params:
        raise DomainError(f"radial-power benchmark: unknown params {sorted(params)}")
    if theta <= 0.0:
        raise DomainError("radial-power benchmark: theta must be positive")
    gamma = (2.0 + theta) / (1.0 + theta)
    f_value = gamma ** (1.0 + theta) * (gamma + d - 2.0)

    def u_exact(*coords):
        r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        return r2 ** (gamma / 2.0)

    op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
    law = PowerLaw(p=theta)
    prob = ProblemInstance(
        operator=op, sigma_plus=law, sigma_minus=law,
        f=f_value, g=u_exact, C0=f_value,
    )
    return Benchmark(
        name="radial-power",
        params={"theta": theta, "d": d, "gamma": gamma, "_f_value": f_value},
        d=d, problem=prob, u_exact=u_exact,
    )


def _transmission_1d(params: dict) -> Benchmark:
    theta1 = float(params.pop("theta1"))
    theta2 = float(params.pop("theta2"))
    c = float(params.pop("c", 1.0))
    if params:
        raise DomainError(
            f"transmission-1d benchmark: unknown params {sorted(params)}"
        )
    if theta1 <= 0.0 or theta2 <= 0.0 or c <= 0.0:
        raise DomainError("transmission-1d benchmark: theta1, theta2, c must be > 0")
    g1 = (2.0 + theta1) / (1.0 + theta1)
    g2 = (2.0 + theta2) / (1.0 + theta2)
    k1 = ((1.0 + theta1) * c) ** (1.0 / (1.0 + theta1)) * (1.0 + theta1) / (2.0 + theta1)
    k2 = ((1.0 + theta2) * c) ** (1.0 / (1.0 + theta2)) * (1.0 + theta2) / (2.0 + theta2)

    def u_exact(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, k1 * np.abs(x) ** g1, -k2 * np.abs(x) ** g2)

    def f_func(x):
        x = np.asarray(x, dtype=float)
        return c * np.sign(x)

    op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
    prob = ProblemInstance(
        operator=op,
        sigma_plus=PowerLaw(p=theta1),
        sigma_minus=PowerLaw(p=theta2),
        f=f_func,
        g=u_exact,
        C0=c,
    )
    return Benchmark(
        name="transmission-1d",
        params={
            "theta1": theta1, "theta2": theta2, "c": c,
            "gamma1": g1, "gamma2": g2, "kappa1": k1, "kappa2": k2,
        },
        d=1, problem=prob, u_exact=u_exact,
    )
