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
``DegeneracyLaw`` owns the argument handling of its maps and, alone, what
a law does past its cap t_max.  sigma (``__call__``), ``primitive`` P and
sigma' (``derivative``) take any t >= 0; past t_max sigma stays at
sigma(t_max), P(t) = P(t_max) + sigma(t_max) (t - t_max) and sigma' = 0.
``inverse`` takes s in [0, sigma(t_max)] up to a relative slack of 1e-12.
Anything else, NaN included, raises DomainError.  Scalars come back as
floats, arrays keep their shape.  A family supplies ``_raw`` (sigma on
checked arrays) and its closed forms on [0, t_max], wrapped by
``_inverse`` / ``_primitive``.  Without a closed form the inverse is the
generic root search (``flip_doubles``, a handful of calls of sigma for all
targets at once), accurate to one unit in the last place of t wherever the
inverse is a normal double and 0 where the exact inverse underflows, so
sigma(sigma^{-1}(s)) / s - 1 stays at rounding level down to s = 1e-300.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_MONOTONE_SAMPLES = 64
_DERIVATIVE_STEP = 1e-5  # relative step of the central difference that gives sigma'

# Verdict thresholds for dini_sum.  A convergence certificate requires tail
# term ratios at most 1 - DINI_MARGIN and a non-increasing ratio trend (up to
# RATIO_TREND_SLACK per step), which is what makes the geometric tail bound
# b_K * rho / (1 - rho) legitimate.  A divergence certificate requires
# k * b_k non-decreasing on the tail (harmonic comparison).
DINI_MARGIN = 1e-2
RATIO_TREND_SLACK = 1e-4
_MIN_PROBE_TERMS = 3


# Root search on bit patterns (``flip_doubles``).  Non-negative doubles are
# ordered like their int64 bit patterns, so a bracket is a pair of patterns.
# After round r every bracket spans at most 2^(64 - r) patterns (the
# projection of the ITP method, Oliveira & Takahashi, ACM TOMS 47(1), 2021):
# at most 65 rounds, bisection's 63 plus a slack that interpolation spends.
_BUDGET_BITS = 64


def flip_doubles(funcs, target, top):
    """Adjacent doubles t_lo < t_hi in [0, top] where f(t) < target turns false.

    Row i of ``target`` (shape (m, n)) thresholds one increasing function
    ``funcs[i]``, which maps a 1-d array of t to values; the entries of a
    row differ only in their target and their ``top`` (broadcast to the
    shape of ``target``).  ``f(t) < target`` must hold on an initial
    segment of each entry's [0, top]: t_lo is 0 or a point where it holds,
    t_hi is ``top`` or a point where it fails, and f is only ever
    evaluated strictly inside (0, top), at the entries still open.  Where
    the predicate is monotone its flip is unique, so the result is the one
    bisection of the bit patterns would give, bit for bit.

    Probes are placed in rounds, each calling every row's function once:

    * the first round spreads one probe per entry evenly over the bit
      patterns of the row's range; since the row shares one function,
      each entry takes the row's nearest samples around its target as its
      bracket, and the next one down as a third point;
    * later probes interpolate in log t: inverse quadratic through the
      bracket ends and the last end replaced, else the secant, on
      f - target, or on log(f / target) where the target is positive
      (power laws are straight lines there);
    * the probe is then pushed toward the middle of the bracket by the
      width over which the rounding of f leaves the flip undecided (one
      unit in the last place of the target over the slope), so that
      consecutive probes straddle the flip instead of creeping up on it;
    * the bracket is halved instead where an end value is not finite (a
      log of sigma = 0), where the ends' values differ by two units in the
      last place of the target or less (interpolation carries no
      information there, and never will again), and where a probe would
      break the round's budget above; an end never evaluated (0 or
      ``top``) is first probed at its neighbouring double, which settles
      a flip at either end in one round.

    Returns (t_lo, t_hi, rounds), where each round called every row's
    function at most once.
    """
    target = np.asarray(target, dtype=np.float64)
    top_bits = np.array(np.broadcast_to(top, target.shape), dtype=np.float64).view(np.int64)
    open_ = top_bits > 1
    if not open_.any():
        return np.zeros(target.shape), top_bits.view(np.float64), 0
    # f's warnings (a log of sigma = 0) and those of the interpolation are
    # silenced: the search reads non-finite values as they are
    with np.errstate(all="ignore"):
        probe = _spread(top_bits)
        brackets = _Brackets(target, top_bits, probe, _evaluate(funcs, probe, open_))
        rounds = 1
        while True:
            open_ = brackets.hi - brackets.lo > 1
            if not open_.any():
                return brackets.lo.view(np.float64), brackets.hi.view(np.float64), rounds
            budget = np.int64(1) << np.int64(min(_BUDGET_BITS - rounds, 62))
            probe = brackets.next_probe(open_, budget)
            brackets.update(probe, _evaluate(funcs, probe, open_), open_)
            rounds += 1


def _evaluate(funcs, probe, open_):
    """f at the probes of the open entries, NaN elsewhere."""
    f = np.full(probe.shape, np.nan)
    for i, func in enumerate(funcs):
        if open_[i].all():
            f[i] = func(probe[i].view(np.float64))
        elif open_[i].any():
            j = np.flatnonzero(open_[i])
            f[i, j] = func(probe[i, j].view(np.float64))
    return f


def _spread(top_bits):
    """First-round probes: a grid over each row's largest range, smallest
    grid points to the entries with the smallest tops."""
    rank = np.argsort(np.argsort(top_bits, axis=1, kind="stable"), axis=1)
    grid = top_bits.max(axis=1, keepdims=True) * ((rank + 0.5) / top_bits.shape[1])
    return np.clip(grid.astype(np.int64), 1, np.maximum(top_bits - 1, 1))


def _excess(f, target):
    """f - target, or log(f / target) where the target is positive."""
    positive = target > 0.0
    if positive.any():
        return np.where(positive, np.log(f / target), f - target)
    return f - target


class _Brackets:
    """The brackets of ``flip_doubles``: lo, hi and a third point as bit
    patterns, and f at each (-inf at lo = 0 and at third = 0, which stands
    for none; inf at hi = top)."""

    def __init__(self, target, top, probe, f):
        """Brackets from all first-round samples of each row, which share
        one function."""
        self.target, self.top, self.ulp = target, top, np.spacing(np.abs(target))
        self.lo, self.hi, self.third = np.zeros_like(top), top.copy(), np.zeros_like(top)
        self.f_lo, self.f_hi, self.f_3 = (np.full(f.shape, v) for v in (-np.inf, np.inf, -np.inf))
        self.interpolating = True
        for i in range(top.shape[0]):
            j = np.flatnonzero(top[i] > 1)  # the entries with an inside
            order = j[np.argsort(probe[i, j], kind="stable")]
            # the samples in increasing t (and f), after two never-evaluated zeros
            ts = np.concatenate(([0, 0], probe[i, order], [0]))
            fs = np.concatenate(([-np.inf, -np.inf], f[i, order], [np.inf]))
            inside = np.searchsorted(ts[2:-1], top[i, j])  # samples below each top
            k = np.minimum(np.searchsorted(fs[2:-1], target[i, j]), inside)  # ... each target
            self.lo[i, j], self.f_lo[i, j] = ts[k + 1], fs[k + 1]
            self.third[i, j], self.f_3[i, j] = ts[k], fs[k]
            has_hi = k < inside
            self.hi[i, j] = np.where(has_hi, ts[k + 2], top[i, j])
            self.f_hi[i, j] = np.where(has_hi, fs[k + 2], np.inf)

    def update(self, probe, f, open_):
        """Move each open entry's end on the probe's side to the probe; the
        end it replaces becomes the third point while interpolation lasts."""
        below = f < self.target  # NaN at the closed entries
        above = open_ & ~below
        if self.interpolating:
            self.third = np.where(below, self.lo, np.where(above, self.hi, self.third))
            self.f_3 = np.where(below, self.f_lo, np.where(above, self.f_hi, self.f_3))
            self.f_lo = np.where(below, f, self.f_lo)
            self.f_hi = np.where(above, f, self.f_hi)
        self.lo = np.where(below, probe, self.lo)
        self.hi = np.where(above, probe, self.hi)

    def next_probe(self, open_, budget):
        """Bisection where the ends' values differ by two units in the last
        place of the target or less, from then on for good; interpolation
        elsewhere."""
        lo, hi = self.lo, self.hi
        mid = lo + (hi - lo) // 2
        if not self.interpolating:
            return mid
        f_lo, f_hi = self.f_lo, self.f_hi
        df = f_hi - f_lo
        live = open_ & ~(df <= 2.0 * self.ulp)  # inf at an end never evaluated; NaN too
        if not live.any():
            self.interpolating = False
            return mid
        y_lo, y_hi, y_3 = _excess(np.stack((f_lo, f_hi, self.f_3)), self.target)
        w = (hi - lo).astype(np.float64)
        t_lo = lo.view(np.float64)
        # coordinate u = log(t / t_lo) of hi and the third point
        u_hi, u_3 = np.log(np.stack((hi, self.third)).view(np.float64) / t_lo)
        # inverse quadratic through (0, y_lo), (u_hi, y_hi), (u_3, y_3), else the secant
        slope = u_hi / (y_hi - y_lo)
        u_quad = y_lo / (y_hi - y_3) * (y_3 * slope - u_3 * y_hi / (y_3 - y_lo))
        u = np.where((u_quad > 0.0) & (u_quad < u_hi), u_quad, -y_lo * slope)
        off = ((t_lo * np.exp(u)).view(np.int64) - lo).astype(np.float64)
        # push toward the middle by the width the rounding of f leaves open
        to_mid = 0.5 * w - off
        off += np.copysign(np.minimum(np.maximum(self.ulp * w / df, 1.0), np.abs(to_mid)), to_mid)
        probe = np.where(live & np.isfinite(u), lo + off.astype(np.int64), mid)
        # an end never evaluated is probed at its neighbour first
        probe = np.where(lo == 0, 1, np.where(hi == self.top, hi - 1, probe))
        if budget >= (hi - lo).max():  # the budget leaves every bracket free
            return np.clip(probe, lo + 1, hi - 1)
        budget = np.minimum(budget, hi - lo)  # lo + budget stays an int64
        return np.clip(probe, np.maximum(lo + 1, hi - budget), np.minimum(hi - 1, lo + budget))


def _on_range(what: str, top=None):
    """Wrap a closed form (checked array in, array out) in the contract: x in [0, top(law)]."""

    def wrap(closed_form):
        @functools.wraps(closed_form)
        def checked(self, x):
            arr = np.asarray(x, dtype=float)
            cap = math.inf if top is None else top(self)
            if not np.all((arr >= 0.0) & (arr <= cap * (1.0 + 1e-12))):  # NaN fails too
                raise DomainError(f"{self.family}: {what} outside [0, {cap:g}] or NaN")
            out = closed_form(self, arr)
            return float(out) if arr.ndim == 0 else out

        return checked

    return wrap


_inverse = _on_range("inverse target", lambda law: law._cap)


def _primitive(closed_form):
    """Wrap a primitive on [0, t_max] in the contract, continued at slope sigma(t_max)."""

    def continued(self, t):
        capped = np.minimum(t, self.t_max)
        return closed_form(self, capped) + self._cap * (t - capped)

    return _on_range("primitive argument")(functools.wraps(closed_form)(continued))


class DegeneracyLaw:
    """Common interface: call for sigma(t), ``inverse`` for sigma^{-1}(s)."""

    family = "abstract"
    t_max = math.inf

    def _raw(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @_on_range("sigma argument")
    def __call__(self, t):
        return self._raw(np.minimum(t, self.t_max))

    @functools.cached_property
    def _cap(self):  # sigma(t_max): sigma from t_max on, and the slope of P there
        return self(self.t_max)

    @_on_range("sigma' argument")
    def derivative(self, t):
        """sigma'(t) by one relative central difference of sigma itself."""
        tc = np.minimum(t, self.t_max)
        lo = tc * (1.0 - _DERIVATIVE_STEP)
        hi = np.minimum(tc * (1.0 + _DERIVATIVE_STEP), self.t_max)
        slope = (self(hi) - self(lo)) / np.where(hi > lo, hi - lo, 1.0)
        return np.where(t < self.t_max, slope, 0.0)

    @_inverse
    def inverse(self, s):
        """Solve sigma(t) = s on [0, t_max] for every target at once.

        ``flip_doubles`` brackets each root between adjacent doubles;
        the end whose sigma is nearer the target is returned: a relative
        precision of one ulp in t down to the smallest normal double, and
        0 where the exact inverse underflows.
        """
        flat = s.reshape(1, -1)
        t_lo, t_hi, _ = flip_doubles((self._raw,), flat, float(self.t_max))
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
        """P(t) = integral of sigma from 0 to t.

        This is the flux potential of the one-dimensional equation:
        d/dx P(u') = sigma(u') u''.  Families without a closed form use a
        dense cached trapezoid table on 2^14 cells, whose error is about
        (t_max/2^14)^2 in absolute terms.  Below t_max/2^14, in the first
        cell, the table is linear in t, so relative accuracy is lost there.
        """
        return np.interp(t, *self._prim_table)

    @functools.cached_property
    def _prim_table(self):
        ts = np.linspace(0.0, self.t_max, 16385)
        vals = self._raw(ts)
        return ts, np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts))))


@dataclass(frozen=True)
class PowerLaw(DegeneracyLaw):
    """sigma(t) = t**p with exact inverse s**(1/p)."""

    p: float
    t_max: float = 10.0
    family = "power"

    def __post_init__(self):
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError("power: exponent p must be positive and finite")
        if not 0.0 < self.t_max < math.inf:  # NaN fails too
            raise DomainError("power: t_max must be positive and finite")

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
        if not 0.0 < self.t_max < math.inf:  # NaN fails too
            raise DomainError("power-log: t_max must be positive and finite")
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
        if not 0.0 < self.t_max < math.inf:  # NaN fails too
            raise DomainError("exponential-flat: t_max must be positive and finite")

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
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ss))):
            raise DomainError("tabulated: breakpoints must be finite")
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
        for value in (self.prefactor, self.argscale):
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError("scaled: prefactor and argscale must be positive and finite")
        t_max = self.base.t_max / self.argscale
        if not math.isfinite(t_max):
            raise DomainError("scaled: t_max = base t_max / argscale must be finite")
        object.__setattr__(self, "t_max", t_max)

    def _raw(self, t):
        return self.prefactor * self.base._raw(np.asarray(t) * self.argscale)

    @_inverse
    def inverse(self, s):
        return self.base.inverse(s / self.prefactor) / self.argscale

    @_primitive
    def primitive(self, t):
        return (self.prefactor / self.argscale) * self.base.primitive(t * self.argscale)


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
    if law2 == law1:  # equal laws (frozen dataclasses compare by value): invert once
        return b1.tolist()
    b2 = np.asarray(law2.inverse(powers), dtype=float)
    return np.maximum(b1, b2).tolist()
