"""Degeneracy laws sigma and their summability certificates.

A degeneracy law is a continuous, strictly increasing function
sigma : [0, T_max] -> [0, infinity) with sigma(0) = 0.  It multiplies the
second-order operator in the equation

    sigma_{sgn(u)}(|Du|) F(D^2 u) = f,

so the equation loses ellipticity exactly where the gradient vanishes.  How
fast sigma vanishes at 0 is measured through its inverse: for a modulus
ratio theta in (0, 1) the series

    sum_{k >= 1} sigma^{-1}(theta^k)

converges iff sigma degenerates slowly enough (a Dini-type condition).  The
partial sums of that series drive every quantitative construction downstream,
so this module exposes them directly, together with a three-valued verdict
(``dini`` / ``not-dini`` / ``inconclusive``) that is only ever emitted with a
finite-sample certificate behind it.

Families
--------
power(p)             sigma(t) = t**p
power-log(p, q)      sigma(t) = t**p * (1 + log(1 + 1/t))**(-q)
exponential-flat     sigma(t) = exp(1 - 1/t), flat to all orders at 0
tabulated(points)    monotone piecewise-linear interpolant through (0, 0)
scaled(base, c, m)   sigma(t) = c * base(m * t), closed under rescaling

The power family satisfies the Dini condition for every p > 0; the
exponential-flat law does not (its inverse decays only harmonically,
sigma^{-1}(theta^k) = 1 / (1 + k log(1/theta))).

Contract
--------
``DegeneracyLaw`` owns the argument handling of all three maps: sigma
(``__call__``) takes t in [0, t_max], ``inverse`` takes s in
[0, sigma(t_max)] and ``primitive`` takes t in [0, t_max], each up to a
relative slack of 1e-12; anything else, NaN included, raises DomainError.
Scalars come back as floats, arrays keep their shape.  A family supplies
only ``_raw`` (sigma on checked arrays) and the closed forms it has,
wrapped by ``_inverse`` / ``_primitive`` so that every class still defines
its own ``inverse``.  Without a closed form the inverse is the generic bisection,
which is accurate to one unit in the last place of t wherever the inverse
is a normal double and returns 0 where the exact inverse underflows, so
sigma(sigma^{-1}(s)) / s - 1 stays at rounding level down to s = 1e-300.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

_MONOTONE_SAMPLES = 64

# Verdict thresholds for dini_sum.  A convergence certificate requires tail
# term ratios at most 1 - DINI_MARGIN and a non-increasing ratio trend (up to
# RATIO_TREND_SLACK per step), which is what makes the geometric tail bound
# b_K * rho / (1 - rho) legitimate.  A divergence certificate requires
# k * b_k non-decreasing on the tail (harmonic comparison).
DINI_MARGIN = 1e-2
RATIO_TREND_SLACK = 1e-4
_MIN_PROBE_TERMS = 3


def _checked(law, x, top: float, what: str):
    """x as a float array checked to lie in [0, top], and whether it was a scalar."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= top * (1.0 + 1e-12))):  # NaN fails too
        raise DomainError(f"{law.family}: {what} outside [0, {top:g}] or NaN")
    return arr, arr.ndim == 0


def _on_range(what: str, top):
    """Wrap a closed form (checked array in, array out) in the shared contract."""

    def wrap(closed_form):
        @functools.wraps(closed_form)
        def checked(self, x):
            arr, scalar = _checked(self, x, top(self), what)
            out = closed_form(self, arr)
            return float(out) if scalar else out

        return checked

    return wrap


_inverse = _on_range("inverse target", lambda law: law(law.t_max))
_primitive = _on_range("primitive argument", lambda law: law.t_max)


class DegeneracyLaw:
    """Common interface: call for sigma(t), ``inverse`` for sigma^{-1}(s)."""

    family = "abstract"
    t_max = math.inf

    def _raw(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t):
        arr, scalar = _checked(self, t, self.t_max, "sigma argument")
        out = self._raw(np.minimum(arr, self.t_max))
        return float(out) if scalar else out

    @_inverse
    def inverse(self, s):
        """Solve sigma(t) = s on [0, t_max] for every target at once.

        Non-negative doubles are ordered like their bit patterns, so
        halving the integer interval between two patterns bisects the
        bracket in (piecewise-linear) log t.  The loop stops when the
        bracket ends are adjacent doubles, at most 64 steps, and returns
        the end whose sigma is nearer the target: a relative precision of
        one ulp in t down to the smallest normal double, and 0 where the
        exact inverse underflows.
        """
        flat = s.reshape(-1)
        lo = np.zeros(flat.shape, dtype=np.int64)
        hi = np.full(flat.shape, np.float64(self.t_max).view(np.int64))
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            below = self._raw(mid.view(np.float64)) < flat
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        t_lo, t_hi = lo.view(np.float64), hi.view(np.float64)
        nearer_lo = flat - self._raw(t_lo) <= self._raw(t_hi) - flat
        return np.where(nearer_lo, t_lo, t_hi).reshape(s.shape)

    def _check_monotone(self):
        # Construction-time sanity: strictly increasing on (0, t_max].
        t = np.linspace(self.t_max / _MONOTONE_SAMPLES, self.t_max, _MONOTONE_SAMPLES)
        v = self(t)
        if np.any(np.diff(v) <= 0.0):
            raise DomainError(f"{self.family}: law is not strictly increasing")
        if self(0.0) != 0.0:
            raise DomainError(f"{self.family}: sigma(0) must be 0")

    @_primitive
    def primitive(self, t):
        """P(t) = integral of sigma from 0 to t, for t in [0, t_max].

        This is the flux potential of the one-dimensional equation:
        d/dx P(u') = sigma(u') u''.  Families without a closed form use a
        dense cached trapezoid table, accurate to ~(t_max/2^14)^2.
        """
        table = getattr(self, "_prim_table", None)
        if table is None:
            ts = np.linspace(0.0, self.t_max, 16385)
            vals = self._raw(ts)
            ps = np.concatenate(
                ([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)))
            )
            table = (ts, ps)
            object.__setattr__(self, "_prim_table", table)
        return np.interp(np.minimum(t, self.t_max), table[0], table[1])


@dataclass(frozen=True)
class PowerLaw(DegeneracyLaw):
    """sigma(t) = t**p with exact inverse s**(1/p)."""

    p: float
    t_max: float = 10.0
    family = "power"

    def __post_init__(self):
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError("power: exponent p must be positive and finite")
        if self.t_max <= 0.0:
            raise DomainError("power: t_max must be positive")

    def _raw(self, t):
        return np.power(t, self.p)

    @_inverse
    def inverse(self, s):
        return np.power(s, 1.0 / self.p)

    @_primitive
    def primitive(self, t):
        return np.power(t, 1.0 + self.p) / (1.0 + self.p)


@dataclass(frozen=True)
class PowerLogLaw(DegeneracyLaw):
    """sigma(t) = t**p * (1 + log(1 + 1/t))**(-q).

    For q > 0 the logarithmic factor sharpens the degeneracy; q < 0 softens
    it.  Strict monotonicity is checked at construction because large
    negative q can break it.  log(1 + 1/t) is taken as log1p(t) - log(t),
    which stays finite where 1/t would overflow (subnormal t).
    """

    p: float
    q: float
    t_max: float = 10.0
    family = "power-log"

    def __post_init__(self):
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError("power-log: exponent p must be positive and finite")
        if not math.isfinite(self.q):
            raise DomainError("power-log: exponent q must be finite")
        if self.t_max <= 0.0:
            raise DomainError("power-log: t_max must be positive")
        self._check_monotone()

    def _raw(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        tp = t[pos]
        out[pos] = tp ** self.p * (1.0 + (np.log1p(tp) - np.log(tp))) ** (-self.q)
        return out


@dataclass(frozen=True)
class ExponentialFlatLaw(DegeneracyLaw):
    """sigma(t) = exp(1 - 1/t): every derivative vanishes at t = 0.

    The inverse is 1 / (1 - log s), so sigma^{-1}(theta^k) decays like
    1 / (k log(1/theta)) and its series diverges: the canonical non-Dini law.
    """

    t_max: float = 10.0
    family = "exponential-flat"

    def __post_init__(self):
        if self.t_max <= 0.0:
            raise DomainError("exponential-flat: t_max must be positive")

    def _raw(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = np.exp(1.0 - 1.0 / t[pos])
        return out

    @_inverse
    def inverse(self, s):
        with np.errstate(divide="ignore"):  # log 0 = -inf gives inverse 0
            return 1.0 / (1.0 - np.log(s))


@dataclass(frozen=True)
class TabulatedLaw(DegeneracyLaw):
    """Monotone piecewise-linear law through (0, 0) and given breakpoints.

    ``points`` is a sequence of (t, sigma(t)) pairs with both coordinates
    strictly increasing and positive.  The domain cap is the last abscissa.
    The inverse of a strictly increasing piecewise-linear map is obtained
    exactly by swapping coordinates.
    """

    points: tuple
    family = "tabulated"
    t_max: float = field(init=False)

    def __post_init__(self):
        pts = tuple((float(a), float(b)) for a, b in self.points)
        if len(pts) < 1:
            raise DomainError("tabulated: need at least one breakpoint")
        ts = np.array([p[0] for p in pts])
        ss = np.array([p[1] for p in pts])
        if np.any(ts <= 0.0) or np.any(ss <= 0.0):
            raise DomainError("tabulated: breakpoints must be strictly positive")
        if np.any(np.diff(ts) <= 0.0) or np.any(np.diff(ss) <= 0.0):
            raise DomainError("tabulated: breakpoints must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_ts", np.concatenate(([0.0], ts)))
        object.__setattr__(self, "_ss", np.concatenate(([0.0], ss)))
        object.__setattr__(self, "t_max", float(ts[-1]))

    def _raw(self, t):
        return np.interp(t, self._ts, self._ss)

    @_inverse
    def inverse(self, s):
        return np.interp(s, self._ss, self._ts)


@dataclass(frozen=True)
class ScaledLaw(DegeneracyLaw):
    """sigma(t) = prefactor * base(argscale * t).

    This is the closure operation of the rescaling cascade: zooming the
    equation in by a factor r and renormalizing the solution by mu turns a
    law sigma into a scaled copy of itself, never into a new family.
    """

    base: DegeneracyLaw
    prefactor: float
    argscale: float
    family = "scaled"
    t_max: float = field(init=False)

    def __post_init__(self):
        if self.prefactor <= 0.0 or self.argscale <= 0.0:
            raise DomainError("scaled: prefactor and argscale must be positive")
        object.__setattr__(self, "t_max", self.base.t_max / self.argscale)

    def _raw(self, t):
        return self.prefactor * self.base._raw(np.asarray(t) * self.argscale)

    @_inverse
    def inverse(self, s):
        return self.base.inverse(s / self.prefactor) / self.argscale

    @_primitive
    def primitive(self, t):
        return (self.prefactor / self.argscale) * self.base.primitive(t * self.argscale)


def _pairs(v):
    return tuple((float(a), float(b)) for a, b in v)


# family -> (class, required keys, optional keys); each key maps to the
# conversion of its config value.
_FAMILIES = {
    "power": (PowerLaw, {"p": float}, {"t_max": float}),
    "power-log": (PowerLogLaw, {"p": float, "q": float}, {"t_max": float}),
    "exponential-flat": (ExponentialFlatLaw, {}, {"t_max": float}),
    "tabulated": (TabulatedLaw, {"points": _pairs}, {}),
}


def law_from_config(cfg: dict) -> DegeneracyLaw:
    """Build a law from a plain dict, e.g. {"family": "power", "p": 2.0}."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("degeneracy law config must be a dict with a 'family' key")
    fam = cfg["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise ConfigError(f"unknown degeneracy law family {fam!r}")
    cls, required, optional = _FAMILIES[fam]
    convert = {**required, **optional}
    unknown = set(cfg) - {"family"} - set(convert)
    if unknown:
        raise ConfigError(f"{fam} law: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{fam} law: missing parameter {key!r}")
    try:
        params = {k: convert[k](v) for k, v in cfg.items() if k != "family"}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{fam} law: malformed parameter: {exc}") from None
    return cls(**params)


@dataclass(frozen=True)
class DiniReport:
    """Finite-sample certificate for the series sum_k sigma^{-1}(theta^k).

    ``verdict`` is one of:

    * ``dini``: tail ratios stay below 1 - DINI_MARGIN with a non-increasing
      trend, so the geometric tail bound in ``tail_estimate`` is certified.
    * ``not-dini``: k * term_k is non-decreasing on the tail, so the series
      dominates a harmonic series and diverges; ``tail_estimate`` is inf.
    * ``inconclusive``: neither certificate fired at this depth;
      ``tail_estimate`` is nan.
    """

    theta: float
    K: int
    terms: tuple
    partial_sums: tuple
    verdict: str
    tail_estimate: float


def dini_sum(law: DegeneracyLaw, theta: float, K: int) -> DiniReport:
    """Partial sums and verdict for sum_{k=1}^{K} sigma^{-1}(theta^k)."""
    if not (0.0 < theta < 1.0):
        raise DomainError("dini_sum: theta must lie in (0, 1)")
    if K < 1:
        raise DomainError("dini_sum: K must be at least 1")
    powers = theta ** np.arange(1, K + 1, dtype=float)
    terms = np.asarray(law.inverse(powers), dtype=float)
    sums = np.cumsum(terms)
    verdict, tail = _classify_tail(terms)
    return DiniReport(
        theta=float(theta),
        K=int(K),
        terms=tuple(terms.tolist()),
        partial_sums=tuple(sums.tolist()),
        verdict=verdict,
        tail_estimate=tail,
    )


def _classify_tail(terms: np.ndarray):
    # Probe the second half of the term list; discard an underflowed-to-zero
    # suffix (terms below ~5e-324 carry a trivially convergent tail).
    pos = np.flatnonzero(terms > 0.0)
    if pos.size == 0:
        return "dini", 0.0
    last = pos[-1]
    probe_lo = max(0, (last + 1) // 2)
    b = terms[probe_lo : last + 1]
    underflowed = last < terms.size - 1
    if b.size < _MIN_PROBE_TERMS + 1:
        if underflowed:
            return "dini", 0.0
        return "inconclusive", math.nan

    k = np.arange(probe_lo + 1, last + 2, dtype=float)
    kb = k * b
    if not underflowed and np.all(np.diff(kb) >= -1e-12 * kb[:-1]):
        return "not-dini", math.inf

    ratios = b[1:] / b[:-1]
    trend_ok = np.all(np.diff(ratios) <= RATIO_TREND_SLACK * ratios[:-1])
    if trend_ok and np.max(ratios) <= 1.0 - DINI_MARGIN:
        rho = float(np.max(ratios))
        return "dini", float(terms[last] * rho / (1.0 - rho))
    return "inconclusive", math.nan


def a_sequence(law1: DegeneracyLaw, law2: DegeneracyLaw, theta: float, K: int):
    """a_k = max(sigma_1^{-1}(theta^k), sigma_2^{-1}(theta^k)), k = 1..K.

    This is the driving sequence of the modulus construction: a_k bounds how
    large a gradient can be while both laws keep the equation below the
    k-th modulus level theta^k.
    """
    if not (0.0 < theta < 1.0):
        raise DomainError("a_sequence: theta must lie in (0, 1)")
    if K < 0:
        raise DomainError("a_sequence: K must be non-negative")
    if K == 0:
        return []
    powers = theta ** np.arange(1, K + 1, dtype=float)
    b1 = np.asarray(law1.inverse(powers), dtype=float)
    b2 = np.asarray(law2.inverse(powers), dtype=float)
    return np.maximum(b1, b2).tolist()
