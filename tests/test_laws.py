"""Degeneracy laws: evaluation, inverses, scaling, and Dini certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ConfigError, DomainError
from degenlab.laws import (
    DegeneracyLaw,
    DiniReport,
    ExponentialFlatLaw,
    PowerLaw,
    PowerLogLaw,
    ScaledLaw,
    TabulatedLaw,
    a_sequence,
    dini_sum,
    flip_doubles,
    law_from_config,
)

from oracles import reference_bisect_doubles

TINY = 5e-324  # the smallest positive double


class TestEvaluation:
    def test_power_eval_and_inverse(self):
        law = PowerLaw(p=2.0)
        assert law(0.5) == 0.25
        assert law.inverse(0.25) == 0.5
        assert law(0.0) == 0.0

    def test_power_domain_cap(self):
        law = PowerLaw(p=1.0, t_max=2.0)
        assert law(2.0) == 2.0
        with pytest.raises(DomainError):
            law(5.0)

    def test_vectorized_eval(self):
        law = PowerLaw(p=2.0)
        t = np.array([0.0, 0.5, 1.0])
        assert np.allclose(law(t), [0.0, 0.25, 1.0])

    def test_power_log_monotone_and_inverse_roundtrip(self):
        law = PowerLogLaw(p=1.0, q=1.0)
        t = np.linspace(1e-4, 1.0, 50)
        vals = law(t)
        assert np.all(np.diff(vals) > 0)
        # inverse is bisection-based for this family
        for s in (1e-3, 0.05, float(law(0.9))):
            assert law(law.inverse(s)) == pytest.approx(s, rel=1e-6)

    def test_exponential_flat_formula(self):
        law = ExponentialFlatLaw()
        assert law(1.0) == pytest.approx(1.0)
        assert law(0.5) == pytest.approx(math.exp(1.0 - 2.0))
        # inverse(s) = 1 / (1 - log s)
        assert law.inverse(0.5) == pytest.approx(1.0 / (1.0 + math.log(2.0)))

    def test_tabulated_frozen_values(self):
        law = TabulatedLaw(points=((0.5, 0.25), (1.0, 1.0)))
        assert law(0.75) == pytest.approx(0.625)
        assert law.inverse(0.625) == pytest.approx(0.75)

    def test_tabulated_rejects_nonmonotone(self):
        with pytest.raises(DomainError):
            TabulatedLaw(points=((0.5, 0.9), (1.0, 0.1)))

    def test_scaled_law_matches_definition(self):
        base = PowerLaw(p=2.0)
        law = ScaledLaw(base=base, prefactor=3.0, argscale=0.5)
        t = np.array([0.1, 0.4, 0.9])
        assert np.allclose(law(t), 3.0 * base(0.5 * t))
        for s in (0.01, 0.1):
            assert law(law.inverse(s)) == pytest.approx(s, rel=1e-10)

    @given(st.floats(0.3, 3.0), st.floats(1e-4, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_power_inverse_roundtrip_property(self, p, s):
        law = PowerLaw(p=p)
        assert law(law.inverse(s)) == pytest.approx(s, rel=1e-9)

    @pytest.mark.parametrize(
        "law",
        [
            PowerLaw(p=0.3),
            PowerLaw(p=3.0),
            PowerLogLaw(p=1.0, q=1.0),
            PowerLogLaw(p=0.5, q=-0.3),
            PowerLogLaw(p=3.0, q=2.0),
            ExponentialFlatLaw(),
            TabulatedLaw(points=((0.5, 0.25), (1.0, 1.0), (4.0, 2.0))),
            ScaledLaw(base=PowerLogLaw(p=1.0, q=1.0), prefactor=3.0, argscale=0.5),
        ],
        ids=lambda law: law.family,
    )
    def test_inverse_relative_roundtrip_down_to_underflow(self, law):
        s = np.geomspace(1e-300, law(law.t_max), 601)
        t = law.inverse(s)
        normal = t >= np.finfo(float).tiny
        assert normal.sum() > 100
        assert np.all(np.abs(law(t[normal]) / s[normal] - 1.0) <= 1e-10)
        assert np.all(t[~normal] < np.finfo(float).tiny)

    @pytest.mark.parametrize("q", [-0.3, 1.0])
    def test_power_log_at_subnormal_t(self, q):
        vals = PowerLogLaw(p=0.5, q=q)(np.array([5e-310, 1e-308, 1e-300]))
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_inverse_range_is_checked(self):
        for law in (PowerLaw(p=2.0), PowerLogLaw(p=1.0, q=1.0)):
            with pytest.raises(DomainError):
                law.inverse(-1e-3)
            with pytest.raises(DomainError):
                law.inverse(2.0 * law(law.t_max))
            with pytest.raises(DomainError):
                law.primitive(2.0 * law.t_max)

    @pytest.mark.parametrize("law, method", [
        (PowerLaw(p=2.0), "__call__"),
        (PowerLaw(p=2.0), "primitive"),
        (PowerLogLaw(p=1.0, q=1.0), "inverse"),
        (PowerLogLaw(p=1.0, q=1.0), "__call__"),
    ])
    def test_nan_is_a_domain_error(self, law, method):
        with pytest.raises(DomainError):
            getattr(law, method)(math.nan)
        with pytest.raises(DomainError):
            getattr(law, method)(np.array([0.5, math.nan]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            PowerLaw(p=-1.0)
        with pytest.raises(DomainError):
            PowerLaw(p=1.0, t_max=0.0)

    # JSON reads 1e400 as inf and NaN as nan: a law is sigma on a finite [0, t_max]
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("cfg", [
        {"family": "power", "p": 1.0},
        {"family": "power-log", "p": 1.0, "q": 1.0},
        {"family": "exponential-flat"},
    ], ids=lambda c: c["family"])
    def test_non_finite_t_max_is_a_domain_error(self, cfg, bad):
        with pytest.raises(DomainError, match=f"{cfg['family']}: t_max must be positive "
                                              "and finite"):
            law_from_config({**cfg, "t_max": bad})

    @pytest.mark.parametrize("points", [
        [[0.5, math.nan]], [[math.nan, 0.5]], [[0.5, 0.25], [math.inf, 1.0]],
        [[0.5, 0.25], [1.0, math.inf]],
    ])
    def test_non_finite_breakpoint_is_a_domain_error(self, points):
        with pytest.raises(DomainError, match="tabulated: breakpoints must be finite"):
            law_from_config({"family": "tabulated", "points": points})

    @pytest.mark.parametrize("prefactor, argscale", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (0.0, 1.0), (1.0, -1.0),
    ])
    def test_scaled_parameters_must_be_positive_and_finite(self, prefactor, argscale):
        with pytest.raises(DomainError, match="scaled: prefactor and argscale must be "
                                              "positive and finite"):
            ScaledLaw(base=PowerLaw(p=1.0), prefactor=prefactor, argscale=argscale)

    def test_scaled_t_max_must_be_finite(self):
        # t_max = 10 / 1e-320 overflows
        with pytest.raises(DomainError, match="scaled: t_max"):
            ScaledLaw(base=ExponentialFlatLaw(), prefactor=1.0, argscale=1e-320)


class TestDini:
    def test_power1_partial_sums_frozen(self):
        rep = dini_sum(PowerLaw(p=1.0), theta=0.5, K=3)
        assert isinstance(rep, DiniReport)
        assert tuple(rep.partial_sums) == (0.5, 0.75, 0.875)
        # three terms are too few for a verdict; a longer run certifies
        assert rep.verdict == "inconclusive"
        assert dini_sum(PowerLaw(p=1.0), theta=0.5, K=64).verdict == "dini"

    def test_power2_sum_frozen(self):
        rep = dini_sum(PowerLaw(p=2.0), theta=0.25, K=8)
        assert rep.partial_sums[-1] == pytest.approx(0.99609375, abs=1e-15)

    def test_exponential_flat_terms_and_verdict(self):
        rep = dini_sum(ExponentialFlatLaw(), theta=0.5, K=16)
        assert rep.terms[0] == pytest.approx(0.5906161091496412, rel=1e-14)
        # k * b_k = k / (1 + k log 2) is increasing: harmonic-type divergence
        assert rep.verdict == "not-dini"

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("K", [64, 128, 256])
    def test_power_verdict_stable(self, p, K):
        assert dini_sum(PowerLaw(p=p), theta=0.25, K=K).verdict == "dini"

    def test_power_log_is_dini(self):
        # sigma^{-1}(s) ~ s log(1/s) is summable along theta^k
        assert dini_sum(PowerLogLaw(p=1.0, q=1.0), theta=0.25, K=128).verdict == "dini"

    def test_theta_must_be_in_unit_interval(self):
        with pytest.raises(DomainError):
            dini_sum(PowerLaw(p=1.0), theta=1.5, K=8)

    def test_a_sequence_is_max_of_inverses(self):
        l1, l2 = PowerLaw(p=1.0), PowerLaw(p=2.0)
        a = a_sequence(l1, l2, theta=0.25, K=5)
        for k in range(1, 6):
            want = max(l1.inverse(0.25**k), l2.inverse(0.25**k))
            assert a[k - 1] == pytest.approx(want, rel=1e-14)


class TestFlipDoubles:
    """The root search against the 62-step bisection it replaced."""

    @staticmethod
    def _check(funcs, target, top):
        """flip_doubles equals the reference bit for bit; returns its rounds.

        Where the two differ, f must fail to be monotone between their
        brackets, so that the predicate flips more than once and either
        bracket is an answer.  The reference keeps probing closed brackets
        at their lower end, so an entry whose flip is at 0 can end as
        (0, 0) instead of (0, 5e-324), the bracket it had found; that end
        is compared as found.
        """
        target = np.atleast_2d(np.asarray(target, dtype=float))
        t_lo, t_hi, rounds = flip_doubles(funcs, target, top)
        tops = np.broadcast_to(np.asarray(top, dtype=float), target.shape)
        for i, f in enumerate(funcs):
            with np.errstate(all="ignore"):
                ref_lo, ref_hi = reference_bisect_doubles(lambda t: f(t) < target[i], tops[i])
            ref_hi = np.where(ref_hi == 0.0, np.minimum(tops[i], TINY), ref_hi)
            assert np.all(t_hi[i].view(np.int64) - t_lo[i].view(np.int64) == (tops[i] > 0))
            for j in np.flatnonzero(t_hi[i] != ref_hi):
                ends = np.array([t_lo[i, j], t_hi[i, j], ref_lo[j], ref_hi[j]]).view(np.int64)
                span = np.arange(ends.min(), ends.max() + 1).view(np.float64)
                assert np.any(np.diff(f(span)) < 0.0), (i, j)
            assert rounds <= 64 + 1
        return rounds

    @pytest.mark.parametrize(
        "law",
        [
            PowerLogLaw(p=1.0, q=1.0),
            PowerLogLaw(p=0.5, q=-0.3),
            PowerLogLaw(p=3.0, q=2.0),
            ScaledLaw(base=PowerLogLaw(p=1.0, q=1.0), prefactor=3.0, argscale=0.5),
            ScaledLaw(base=PowerLaw(p=2.0), prefactor=1e-3, argscale=4.0),
        ],
        ids=["power-log-1-1", "power-log-0.5-neg0.3", "power-log-3-2", "scaled-power-log",
             "scaled-power"],
    )
    def test_inverse_targets_down_to_1e_300(self, law):
        s = np.geomspace(1e-300, law(law.t_max), 401)
        s[::7] = law(np.geomspace(1e-3, law.t_max, s[::7].size))  # exact hits
        assert self._check((law._raw,), s, law.t_max) <= 16
        # the generic inverse returns the nearer end of that bracket
        t_lo, t_hi, _ = flip_doubles((law._raw,), s[None], law.t_max)
        nearer = np.where(s - law._raw(t_lo) <= law._raw(t_hi) - s, t_lo, t_hi)[0]
        assert np.array_equal(DegeneracyLaw.inverse(law, s), nearer)

    def test_targets_that_never_flip_end_at_top(self):
        top = np.geomspace(1e-300, 10.0, 50)
        rounds = self._check((np.log,), np.log(top) + 1.0, top)
        assert rounds <= 2  # the spread round, then each top's neighbour

    def test_flip_at_zero(self):
        top = np.array([1e-300, 1.0, 10.0])
        assert self._check((np.sqrt,), [0.0, 1e-200, 1e-170], top) <= 3

    @pytest.mark.parametrize("top", [TINY, 2 * TINY, 1e-323, 3e-320, 1e-310,
                                     np.finfo(float).tiny, 1e-300])
    def test_subnormal_and_tiny_tops(self, top):
        frac = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 1.0, 2.0])
        for f in (lambda t: t, lambda t: t * t, np.sqrt):
            rounds = self._check((f,), top * frac, top)
            if top == TINY:
                assert rounds == 0  # no double lies inside (0, 5e-324)

    def test_step_function_needs_bisection_only(self):
        # interpolation between -1e300 and 1 points at the low end every
        # time; the budget still ends the search by round 65
        def step(t):
            return np.where(t >= 1e-200, 1.0, -1e300)

        self._check((step,), np.zeros(8), np.geomspace(1e-150, 10.0, 8))
        self._check((lambda t: (t >= 0.3).astype(float),), np.full(5, 0.5), 1.0)
        self._check((lambda t: np.floor(np.log2(t)),), np.arange(-1000.5, 3.0, 50.0), 8.0)

    def test_rows_are_searched_with_their_own_function(self):
        t = np.geomspace(1e-200, 1.0, 64)
        funcs = (lambda t: t, lambda t: t ** 3)
        self._check(funcs, np.stack((t, t ** 3)) * 0.75, 1.0)

    def test_empty(self):
        t_lo, t_hi, rounds = flip_doubles((np.sqrt,), np.zeros((1, 0)), 1.0)
        assert t_lo.shape == t_hi.shape == (1, 0) and rounds == 0

    @given(st.floats(0.05, 20.0), st.integers(1, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_power_targets_property(self, p, n, seed):
        rng = np.random.default_rng(seed)
        target = 10.0 ** rng.uniform(-300.0, 1.0, size=n)
        top = 10.0 ** rng.uniform(-5.0, 1.0, size=n)
        self._check((lambda t: np.power(t, p),), target, top)


class TestConfig:
    def test_each_family_roundtrips(self):
        cases = [
            {"family": "power", "p": 1.5},
            {"family": "power-log", "p": 1.0, "q": 2.0},
            {"family": "exponential-flat", "t_max": 5.0},
            {"family": "tabulated", "points": [[0.5, 0.25], [1.0, 1.0]]},
        ]
        for cfg in cases:
            law = law_from_config(cfg)
            assert law(0.5) > 0.0

    def test_rejects_unknown_family_and_keys(self):
        with pytest.raises(ConfigError):
            law_from_config({"family": "mystery"})
        with pytest.raises(ConfigError):
            law_from_config({"family": "power", "p": 1.0, "zz": 2})
        with pytest.raises(ConfigError):
            law_from_config({"p": 1.0})
        with pytest.raises(ConfigError, match="malformed"):
            law_from_config({"family": "power", "p": "abc"})
        with pytest.raises(ConfigError, match="malformed"):
            law_from_config({"family": "tabulated", "points": [[0.5]]})
        with pytest.raises(ConfigError, match="malformed"):
            law_from_config({"family": "power", "p": 10**400})  # past a double's range
        # every family: an unknown key, and each required parameter missing
        for cfg, required in (
            ({"family": "power", "p": 1.5}, ("p",)),
            ({"family": "power-log", "p": 1.0, "q": 2.0}, ("p", "q")),
            ({"family": "exponential-flat", "t_max": 5.0}, ()),
            ({"family": "tabulated", "points": [[0.5, 0.25], [1.0, 1.0]]}, ("points",)),
        ):
            with pytest.raises(ConfigError, match="unknown keys"):
                law_from_config({**cfg, "zz": 2})
            for key in required:
                partial = {k: v for k, v in cfg.items() if k != key}
                with pytest.raises(ConfigError, match="missing parameter"):
                    law_from_config(partial)
