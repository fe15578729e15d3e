"""Constructive modulus-of-continuity pipeline.

Covers the scale schedule, the summable rescaling of the dyadic inverse
sequence, the amplitude recursion, the certified tail, and the assembled
modulus omega.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ConfigError, DomainError, UncertifiableTailError
from degenlab.laws import DegeneracyLaw, ExponentialFlatLaw, PowerLaw, PowerLogLaw, a_sequence
from degenlab.modulus import (
    Modulus,
    _root_scales,
    ScaleSchedule,
    build_modulus,
    certified_tail,
    choose_scale,
    mu_recursion,
    rescale_sequence,
)
from oracles import (
    geometric_tailed_sequence,
    power_recursion_reference,
    reference_bisect_doubles,
    truncated,
)

# The law pairs of the benchmark: analyze-fields builds power (1, 1) twice,
# (1, 2), (0.5, 3), exponential-flat twice and power-log(1, 1) with power(1);
# transmission-1d builds power (1, 2) and radial-2d power (1, 1).
BENCHMARK_PAIRS = [
    (PowerLaw(p=1.0), PowerLaw(p=1.0)),
    (PowerLaw(p=1.0), PowerLaw(p=2.0)),
    (PowerLaw(p=0.5), PowerLaw(p=3.0)),
    (ExponentialFlatLaw(), ExponentialFlatLaw()),
    (PowerLogLaw(p=1.0, q=1.0), PowerLaw(p=1.0)),
]
PAIR_IDS = [f"{a.family}-{b.family}-{i}" for i, (a, b) in enumerate(BENCHMARK_PAIRS)]


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

    @pytest.mark.parametrize("C", [0.5, 0.3])
    def test_constant_the_clamp_cannot_save_is_a_domain_error(self, C):
        # at alpha0 = 1 and r = 1/16, r < mu1 needs C > 1/2: no clamp to 1/2 helps
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any clamp warning
            with pytest.raises(DomainError) as exc:
                choose_scale(C, 1.0)
        assert str(exc.value) == (f"choose_scale: C={C:g} with alpha0=1 leaves mu1 <= r; "
                                  "r < mu1 needs C > r^(1 - alpha0) / 2 = 0.5 at r = 0.0625")

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            choose_scale(1.0, 0.0)
        with pytest.raises(DomainError):
            choose_scale(1.0, 1.5)

    @pytest.mark.parametrize("C,alpha0", [(1e300, 0.5), (1.0, 1e-300), (1e153, 0.5)])
    def test_underflowing_radius_is_a_domain_error(self, C, alpha0):
        # r = (4C)^(-1/alpha0) underflows to 0 (a ZeroDivisionError once),
        # or is normal while 2 C r^(1+alpha0) is not (C = 1e153)
        with pytest.raises(DomainError, match=re.escape(f"C={C:g} with alpha0={alpha0:g}")):
            choose_scale(C, alpha0)

    def test_schedule_validates_identity(self):
        with pytest.raises(DomainError):
            ScaleSchedule(C=1.0, alpha0=0.5, r=0.0625, mu1=0.4, theta=0.15625)


class TestRescale:
    @staticmethod
    def _as_arr(c):
        return np.asarray(c, dtype=float)

    @staticmethod
    def _benchmark_sequence(laws):
        """The driving sequence build_modulus rescales for a law pair (K = 256)."""
        sched = choose_scale(1.0, 0.5)
        return np.array([v for v in a_sequence(*laws, sched.theta, 256) if v > 0.0])

    # a singleton clamps nothing: c_1 = 1 / (eps (1 + delta/2)) < 1/eps;
    # (1, 1) has base (1, 1/sqrt 2), clamps its first entry at 1/eps = 1.2,
    # and s = sqrt 2 puts ||a/c|| = 1/1.2 + 1 at eps (1 + delta/2) ||a||
    @pytest.mark.parametrize("a, c", [([1.0], [12.0 / 11.0]), ([1.0, 1.0], [1.2, 1.0])],
                             ids=["nothing-clamped", "first-clamped"])
    def test_frozen_dividers(self, a, c):
        assert rescale_sequence(np.array(a), 0.2) == pytest.approx(c, rel=1e-14)

    def test_bounds_on_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = geometric_tailed_sequence(rng)
            delta = float(rng.uniform(0.01, 0.24))
            c = self._as_arr(rescale_sequence(a, delta))
            eps = 1.0 / (1.0 + delta)
            norm_a = a.sum()
            norm_b = (a / c).sum()
            assert np.all(c > 0.0)
            assert c.max() <= 1.0 / eps + 1e-10
            assert norm_b >= eps * (1.0 - delta / 2.0) * norm_a - 1e-10
            assert norm_b <= eps * (1.0 + delta) * norm_a + 1e-10

    def test_huge_dynamic_range(self):
        # steep geometric decay: the profile base spans many decades
        a = 0.5 ** np.arange(1, 257)
        c = self._as_arr(rescale_sequence(a, 0.125))
        assert np.all(np.isfinite(c)) and np.all(c > 0.0)
        assert c.max() <= 1.125 + 1e-10

    @pytest.mark.parametrize("delta", [0.3, 0.25, 0.0, -0.1, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError, match="delta"):
            rescale_sequence(np.array([1.0, 0.5]), delta)

    @pytest.mark.parametrize(
        "laws,clamped",
        list(zip(BENCHMARK_PAIRS, [1, 3, 4, 171, 2])),
        ids=PAIR_IDS,
    )
    def test_benchmark_sequences_hit_the_target(self, laws, clamped):
        # the closed form puts ||a/c|| at eps (1 + delta/2) ||a|| to within
        # rounding, and exactly the first `clamped` entries sit at 1/eps;
        # exponential-flat clamps all but a tail
        a = self._benchmark_sequence(laws)
        c = self._as_arr(rescale_sequence(a, 0.125))
        target = (1.0 + 0.0625) / 1.125 * a.sum()
        assert abs((a / c).sum() - target) <= 4 * np.spacing(target)
        at_cap = c == 1.125
        assert at_cap.tolist() == [True] * clamped + [False] * (a.size - clamped)

    @given(st.floats(0.01, 0.24), st.integers(1, 60), st.floats(0.05, 0.95),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_norm_is_the_target_and_clamps_a_prefix(self, delta, m, q, seed):
        a = np.random.default_rng(seed).uniform(0.5, 1.5, size=m) * q ** np.arange(1, m + 1)
        eps = 1.0 / (1.0 + delta)
        c = self._as_arr(rescale_sequence(a, delta))
        target = eps * (1.0 + delta / 2.0) * a.sum()
        assert abs((a / c).sum() - target) <= 4 * np.spacing(target)
        at_cap = c == 1.0 / eps
        k = int(at_cap.sum())
        assert at_cap[:k].all() and np.all(c[k:] < 1.0 / eps)

    @given(st.floats(0.01, 0.24), st.integers(1, 40))
    @settings(max_examples=25)
    def test_bounds_property(self, delta, m):
        a = 0.7 ** np.arange(1, m + 1)
        c = self._as_arr(rescale_sequence(a, delta))
        eps = 1.0 / (1.0 + delta)
        assert c.max() <= 1.0 / eps + 1e-10
        ratio = (a / c).sum() / a.sum()
        assert eps * (1.0 - delta / 2.0) - 1e-10 <= ratio <= eps * (1.0 + delta) + 1e-10


class TestRecursion:
    def test_all_hold_for_flat_rescaling(self):
        # sigma = t, c = 1: g(mu1) = 4^k >= 1 at every level, tau_k = 2^-k exactly
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
        c = rescale_sequence(a, 0.125)
        table = mu_recursion(sched, laws, a, c)
        mu = np.asarray(table.mu_star)
        assert np.all(np.diff(mu) >= 0.0)
        assert np.all(mu < 1.0)
        # tau_k = mu_1* ... mu_k*
        assert table.tau[-1] == pytest.approx(np.prod(table.mu_star), rel=1e-12)

    @pytest.mark.parametrize("p1,p2", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)])
    def test_matches_power_reference(self, p1, p2):
        sched, table, _ = build_modulus(
            PowerLaw(p=p1), PowerLaw(p=p2), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        mu_ref, tau_ref = power_recursion_reference(sched.mu1, sched.r, table.c, p1, p2)
        assert np.max(np.abs(np.asarray(table.mu_star) / mu_ref - 1.0)) <= 1e-11
        assert np.max(np.abs(np.asarray(table.tau) / tau_ref - 1.0)) <= 1e-11

    @pytest.mark.parametrize(
        "laws,labels_seen",
        [
            ((PowerLaw(p=1.0), PowerLaw(p=2.0)), {"hold", "root"}),
            ((PowerLaw(p=0.5), PowerLaw(p=3.0)), {"hold", "root"}),
            ((PowerLogLaw(p=1.0, q=1.0), PowerLaw(p=1.0)), {"hold"}),
            ((ExponentialFlatLaw(), PowerLaw(p=1.0)), {"hold", "root", "cap"}),
        ],
        ids=["power-1-2", "power-0.5-3", "power-log", "exponential-flat"],
    )
    def test_labels_meet_their_inequalities(self, laws, labels_seen):
        # hold: g(mu*_{k-1}) >= 1; root: g(mu_k) = 1; cap: g(1) < 1, each
        # up to a relative slack of 1e-9 in g, evaluated in logs
        sched = choose_scale(1.0, 0.5)
        a = a_sequence(*laws, sched.theta, 256)
        c = rescale_sequence(a, 0.125)
        table = mu_recursion(sched, laws, a, c)
        slack = 1e-9

        def log_g(law, k, mu):
            sigma = law(min(mu * table.tau[k - 1] * table.c[k], law.t_max))
            if sigma == 0.0:  # sigma underflowed: g is below any level
                return -math.inf
            return (math.log(mu * table.tau[k - 1]) - (k + 1) * math.log(sched.r)
                    + math.log(sigma))

        seen = set()
        for law, mus, labels in zip(laws, (table.mu1, table.mu2),
                                    (table.branch1, table.branch2)):
            for k in range(1, table.K):
                label = labels[k]
                seen.add(label)
                if label == "hold":
                    assert mus[k] == table.mu_star[k - 1]
                    assert log_g(law, k, mus[k]) >= -slack
                elif label == "root":
                    assert table.mu_star[k - 1] < mus[k] <= 1.0
                    assert abs(log_g(law, k, mus[k])) <= slack
                else:
                    assert label == "cap" and mus[k] == 1.0
                    assert log_g(law, k, 1.0) < slack
        assert seen == labels_seen

    def test_underflowing_targets(self):
        # c_k r^k underflows to 0 in linear arithmetic before k = 256 at
        # r = 1/16; the log-space root solve still yields finite positive
        # amplitudes and the dyadic bound at root steps
        sched, table, _ = build_modulus(
            PowerLaw(p=1.0), PowerLaw(p=2.0), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        assert sched.r == 1.0 / 16.0
        targets = np.asarray(table.c) * sched.r ** np.arange(1, table.K + 1)
        assert np.any(targets == 0.0)
        for seq in (table.mu1, table.mu2, table.mu_star, table.tau):
            arr = np.asarray(seq)
            assert np.all(np.isfinite(arr)) and np.all(arr > 0.0)
        b = np.asarray(table.a) / np.asarray(table.c)
        roots = [k for k in range(table.K) if "root" in (table.branch1[k], table.branch2[k])]
        assert roots
        for k in roots:
            assert table.tau[k] <= b[k] * (1.0 + 1e-8)

    def test_rejects_short_rescaling(self):
        sched = choose_scale(1.0, 0.5)
        laws = (PowerLaw(p=1.0),) * 2
        a = a_sequence(*laws, sched.theta, 8)
        with pytest.raises(ConfigError):
            mu_recursion(sched, laws, a, np.ones(3))


class TestRootSearch:
    """The recursion's root search against the 62-step bisection it replaced."""

    @staticmethod
    def _inputs(law1, law2, K):
        """Schedule, driving sequence, dividers and log targets as build_modulus makes them."""
        sched = choose_scale(1.0, 0.5)
        a = [v for v in a_sequence(law1, law2, sched.theta, K) if v > 0.0]
        c = np.asarray(rescale_sequence(a, 0.125))
        log_targets = np.log(c) + np.arange(1, len(a) + 1) * math.log(sched.r)
        return sched, a, c, log_targets

    @pytest.mark.parametrize("K", [256, 400])  # at 400 the driving sequence underflows
    @pytest.mark.parametrize("laws", BENCHMARK_PAIRS, ids=PAIR_IDS)
    def test_matches_bisection_bit_for_bit(self, laws, K):
        _, a, c, log_targets = self._inputs(*laws, K)
        roots, _ = _root_scales(laws, c, log_targets)
        for law, t_star in zip(laws, roots):
            def below(t):
                with np.errstate(divide="ignore"):
                    return np.log(t) + np.log(law(np.minimum(t, law.t_max))) < log_targets

            ref = reference_bisect_doubles(below, c)[1]
            assert np.array_equal(np.asarray(t_star).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("laws", BENCHMARK_PAIRS, ids=PAIR_IDS)
    def test_evaluation_budget(self, laws):
        sched, a, c, _ = self._inputs(*laws, 256)
        assert mu_recursion(sched, laws, a, c).root_evaluations <= 16  # bisection: 62

    @pytest.mark.parametrize("second", [PowerLogLaw(p=1.0, q=1.0), PowerLogLaw(p=1.0, q=2.0)])
    def test_equal_laws_are_evaluated_once(self, monkeypatch, second):
        calls = []
        raw = PowerLogLaw._raw
        monkeypatch.setattr(PowerLogLaw, "_raw", lambda self, t: calls.append(self) or raw(self, t))
        first = PowerLogLaw(p=1.0, q=1.0)
        sched, a, c, _ = self._inputs(first, PowerLaw(p=1.0), 64)
        calls.clear()
        table = mu_recursion(sched, (first, second), a, c)
        # at most one call per round and distinct law: a law whose brackets
        # all closed sits the last rounds out
        distinct = [first] if second == first else [first, second]
        assert len(set(calls)) == len(distinct)
        assert max(calls.count(law) for law in distinct) == table.root_evaluations
        assert len(calls) <= len(distinct) * table.root_evaluations

    def test_a_sequence_inverts_equal_laws_once(self, monkeypatch):
        calls = []
        inverse = DegeneracyLaw.inverse
        monkeypatch.setattr(DegeneracyLaw, "inverse",
                            lambda self, s: calls.append(self) or inverse(self, s))
        law = PowerLogLaw(p=1.0, q=1.0)
        a = a_sequence(law, PowerLogLaw(p=1.0, q=1.0), 0.125, 32)
        assert calls == [law]
        assert a == inverse(law, 0.125 ** np.arange(1, 33, dtype=float)).tolist()


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
        # the hold/root split is not pinned: near-ties sit within rounding
        # (test_labels_meet_their_inequalities checks each label instead)
        _, _, omega = self._pipeline(1.0, 2.0)
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

    def test_an_underflowing_driving_sequence_is_cut_to_its_positive_prefix(self):
        # with sigma(t) = t^0.5 the driving sequence underflows to 0 after 179 levels
        _, table, omega = self._pipeline(0.5, 0.5)
        assert omega.K == table.K == len(table.a) == len(table.c) == 179
        assert min(table.a) > 0.0
        assert math.isfinite(omega.tail_bound) and omega.tail_bound >= 0.0

    def test_a_driving_sequence_that_underflows_at_once_is_uncertifiable(self):
        msg = "build_modulus: driving sequence underflows immediately"
        with pytest.raises(UncertifiableTailError, match=f"^{msg}$") as info:
            self._pipeline(0.004, 0.004)
        assert info.value.table is None

    def test_power_log_law_has_a_finite_tail(self):
        # summable, so the tail certifies once the inverse is accurate below 1e-10
        _, table, omega = build_modulus(
            PowerLogLaw(p=1.0, q=1.0), PowerLaw(p=1.0), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        assert table.K == 256
        assert math.isfinite(omega.tail_bound) and omega.tail_bound >= 0.0

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
        rows = list(zip(*table.columns()))
        assert len(rows) == 16
        k, a_k, c_k, mu1_k, mu2_k, mu_star_k, tau_k = rows[4]
        assert k == 5
        assert mu_star_k == max(mu1_k, mu2_k)
        assert tau_k == pytest.approx(np.prod(table.mu_star[:5]), rel=1e-12)
