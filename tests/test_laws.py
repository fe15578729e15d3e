"""Degeneracy laws: evaluation, inverses, scaling, and Dini certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ConfigError, DomainError
from degenlab.laws import (
    DiniReport,
    ExponentialFlatLaw,
    PowerLaw,
    PowerLogLaw,
    ScaledLaw,
    TabulatedLaw,
    a_sequence,
    dini_sum,
    law_from_config,
)


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
