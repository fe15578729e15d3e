"""Constructive modulus-of-continuity pipeline.

Covers the scale schedule, the summable rescaling of the dyadic inverse
sequence, the amplitude recursion, the certified tail, and the assembled
modulus omega.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ConfigError, DomainError, UncertifiableTailError
from degenlab.laws import ExponentialFlatLaw, PowerLaw, PowerLogLaw, a_sequence
from degenlab.modulus import (
    Modulus,
    RescaleParams,
    ScaleSchedule,
    build_modulus,
    certified_tail,
    choose_scale,
    mu_recursion,
    rescale_sequence,
    truncated,
)
from oracles import geometric_tailed_sequence


class TestChooseScale:
    @pytest.mark.parametrize(
        "C,alpha0,r,mu1,theta",
        [
            (1.0, 0.5, 1.0 / 16.0, 0.5, 0.125),
            (1.0, 1.0, 1.0 / 16.0, 0.125, 0.5),
            (2.0, 0.5, 1.0 / 64.0, 0.5, 0.03125),
        ],
    )
    def test_frozen_schedules(self, C, alpha0, r, mu1, theta):
        s = choose_scale(C, alpha0)
        assert s.r == pytest.approx(r, rel=1e-14)
        assert s.mu1 == pytest.approx(mu1, rel=1e-14)
        assert s.theta == pytest.approx(theta, rel=1e-14)
        # defining identity: 2 C r^alpha0 = mu1
        assert 2.0 * s.C * s.r**s.alpha0 == pytest.approx(s.mu1, rel=1e-12)

    def test_small_constant_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            s = choose_scale(0.3, 0.5)
        assert s.C == 0.5
        assert (s.r, s.mu1, s.theta) == (
            pytest.approx(1.0 / 16.0),
            pytest.approx(0.25),
            pytest.approx(0.25),
        )

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            choose_scale(1.0, 0.0)
        with pytest.raises(DomainError):
            choose_scale(1.0, 1.5)

    def test_schedule_validates_identity(self):
        with pytest.raises(DomainError):
            ScaleSchedule(C=1.0, alpha0=0.5, r=0.0625, mu1=0.4, theta=0.15625)


class TestRescale:
    def test_singleton_frozen(self):
        c = rescale_sequence(np.array([1.0]), RescaleParams(delta=0.2))
        assert c[0] == pytest.approx(12.0 / 11.0, rel=1e-14)

    @staticmethod
    def _as_arr(c):
        return np.asarray(c, dtype=float)

    def test_bounds_on_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = geometric_tailed_sequence(rng)
            params = RescaleParams(delta=float(rng.uniform(0.01, 0.24)))
            c = self._as_arr(rescale_sequence(a, params))
            eps = params.eps
            norm_a = a.sum()
            norm_b = (a / c).sum()
            assert np.all(c > 0.0)
            assert c.max() <= 1.0 / eps + 1e-10
            assert norm_b >= eps * (1.0 - params.delta / 2.0) * norm_a - 1e-10
            assert norm_b <= eps * (1.0 + params.delta) * norm_a + 1e-10

    def test_huge_dynamic_range(self):
        # steep geometric decay: the search bracket spans many decades
        a = 0.5 ** np.arange(1, 257)
        c = self._as_arr(rescale_sequence(a, RescaleParams(delta=0.125)))
        assert np.all(np.isfinite(c)) and np.all(c > 0.0)
        assert c.max() <= 1.0 / RescaleParams(delta=0.125).eps + 1e-10

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            RescaleParams(delta=0.3)
        with pytest.raises(DomainError):
            RescaleParams(delta=0.0)

    @given(st.floats(0.01, 0.24), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_bounds_property(self, delta, m):
        a = 0.7 ** np.arange(1, m + 1)
        params = RescaleParams(delta=delta)
        c = self._as_arr(rescale_sequence(a, params))
        eps = params.eps
        assert c.max() <= 1.0 / eps + 1e-10
        ratio = (a / c).sum() / a.sum()
        assert eps * (1.0 - delta / 2.0) - 1e-10 <= ratio <= eps * (1.0 + delta) + 1e-10


class TestRecursion:
    def test_all_hold_for_flat_rescaling(self):
        # sigma = t, c = 1: g(mu1) = 1 at every level, tau_k = 2^-k exactly
        sched = choose_scale(1.0, 0.5)
        law = PowerLaw(p=1.0)
        K = 8
        a = a_sequence(law, law, sched.theta, K)
        table = mu_recursion(sched, (law, law), a, np.ones(K))
        assert table.branch1 == ("seed",) + ("hold",) * (K - 1)
        assert np.allclose(table.tau, 0.5 ** np.arange(1, K + 1), rtol=1e-13)
        assert np.all(np.asarray(table.mu_star) == 0.5)

    def test_root_branch_frozen_value(self):
        # dropping c_2 to 1/32 forces a root: mu_2* = 1/sqrt(2)
        sched = choose_scale(1.0, 0.5)
        law = PowerLaw(p=1.0)
        a = a_sequence(law, law, sched.theta, 2)
        table = mu_recursion(sched, (law, law), a, np.array([1.0, 1.0 / 32.0]))
        assert table.branch1[1] == "root"
        assert table.mu_star[1] == pytest.approx(2.0**-0.5, rel=1e-11)
        assert table.tau[1] == pytest.approx(2.0**-1.5, rel=1e-11)

    def test_mu_star_nondecreasing_and_bounded(self):
        sched = choose_scale(1.0, 0.5)
        laws = (PowerLaw(p=1.0), PowerLaw(p=2.0))
        a = np.array(a_sequence(laws[0], laws[1], sched.theta, 32))
        c = rescale_sequence(a, RescaleParams(delta=0.125))
        table = mu_recursion(sched, laws, a, c)
        mu = np.asarray(table.mu_star)
        assert np.all(np.diff(mu) >= -1e-15)
        assert np.all(mu < 1.0)
        # tau_k = mu_1* ... mu_k*
        assert table.tau[-1] == pytest.approx(np.prod(table.mu_star), rel=1e-12)

    def test_rejects_short_rescaling(self):
        sched = choose_scale(1.0, 0.5)
        laws = (PowerLaw(p=1.0),) * 2
        a = a_sequence(*laws, sched.theta, 8)
        with pytest.raises(ConfigError):
            mu_recursion(sched, laws, a, np.ones(3))


class TestTailAndOmega:
    def _pipeline(self, p1, p2, K=256):
        return build_modulus(
            PowerLaw(p=p1), PowerLaw(p=p2), C=1.0, alpha0=0.5, delta=0.125, K=K
        )

    @staticmethod
    def _achiever_branches(table):
        # per step, the branch of the law whose amplitude achieves the max
        return tuple(
            table.branch1[k] if table.mu1[k] >= table.mu2[k] else table.branch2[k]
            for k in range(table.K)
        )

    def test_frozen_omega_values(self):
        _, table, omega = self._pipeline(1.0, 2.0)
        ach = self._achiever_branches(table)
        branches = {b: ach.count(b) for b in set(ach)}
        assert branches == {"seed": 1, "hold": 233, "root": 22}
        assert omega(1.0) == pytest.approx(1.0002319266595507, rel=1e-12)
        assert omega.tail_bound == pytest.approx(7.4808895354965229e-59, rel=1e-10)

    def test_frozen_omega_values_asymmetric(self):
        _, _, omega = self._pipeline(0.5, 3.0)
        assert omega(1.0) == pytest.approx(1.0291301028626427, rel=1e-12)

    def test_identical_laws_hold_everywhere(self):
        _, table, omega = self._pipeline(1.0, 1.0)
        assert set(table.branch1) == {"seed", "hold"}
        assert omega(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_cauchy_tail_dominates_partial_sum_gaps(self):
        _, table, _ = self._pipeline(1.0, 2.0)
        S = np.cumsum(table.tau)
        for K in (32, 64, 128):
            gap = S[2 * K - 1] - S[K - 1]
            bound = certified_tail(truncated(table, K))
            assert gap <= bound * (1.0 + 1e-12) + 1e-300

    def test_dyadic_inverse_bound_at_root_steps(self):
        _, table, _ = self._pipeline(0.5, 3.0)
        b = np.asarray(table.a) / np.asarray(table.c)
        ach = self._achiever_branches(table)
        roots = [k for k, branch in enumerate(ach) if branch == "root"]
        assert roots, "expected root steps for this law pair"
        for k in roots:
            assert table.tau[k] <= b[k] * (1.0 + 1e-8)

    def test_monotone_with_zero_at_zero(self):
        _, _, omega = self._pipeline(1.0, 2.0)
        assert omega(0.0) == 0.0
        t = np.concatenate([[0.0], np.logspace(-80, 0, 99)])
        vals = omega(t)
        assert np.all(np.diff(vals) >= -1e-300)
        assert np.all(vals[1:] > 0.0)

    def test_array_eval_matches_scalar(self):
        _, _, omega = self._pipeline(1.0, 2.0)
        t = np.array([0.0, 1e-40, 1e-3, 0.5, 1.0])
        assert np.allclose(omega(t), [omega(float(x)) for x in t], rtol=0, atol=0)

    def test_flat_law_tail_uncertifiable(self):
        with pytest.raises(UncertifiableTailError):
            build_modulus(
                ExponentialFlatLaw(),
                ExponentialFlatLaw(),
                C=1.0,
                alpha0=0.5,
                delta=0.125,
                K=64,
            )

    def test_power_log_law_has_a_finite_tail(self):
        # summable, so the tail certifies once the inverse is accurate below 1e-10
        _, table, omega = build_modulus(
            PowerLogLaw(p=1.0, q=1.0), PowerLaw(p=1.0), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        assert table.K == 256
        assert math.isfinite(omega.tail_bound) and omega.tail_bound >= 0.0

    def test_truncated_prefix_consistency(self):
        _, table, _ = self._pipeline(1.0, 2.0)
        short = truncated(table, 32)
        assert short.K == 32
        assert np.allclose(short.tau, table.tau[:32], rtol=0, atol=0)
        assert short.branch1 == table.branch1[:32]

    def test_modulus_rejects_bad_eval_points(self):
        _, _, omega = self._pipeline(1.0, 1.0)
        with pytest.raises(DomainError):
            omega(-0.5)

    @pytest.mark.parametrize("t", [float("nan"), [0.25, float("nan")]])
    def test_modulus_rejects_nan(self, t):
        _, _, omega = self._pipeline(1.0, 1.0, K=16)
        with pytest.raises(DomainError):
            omega(t)

    def test_sequence_table_rows_align(self):
        _, table, _ = self._pipeline(1.0, 2.0, K=16)
        rows = list(table.rows())
        assert len(rows) == 16
        k, a_k, c_k, mu1_k, mu2_k, mu_star_k, tau_k = rows[4]
        assert k == 5
        assert mu_star_k == max(mu1_k, mu2_k)
        assert tau_k == pytest.approx(np.prod(table.mu_star[:5]), rel=1e-12)
