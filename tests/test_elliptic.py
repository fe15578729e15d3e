"""Pucci extremal operators and the uniformly elliptic operator wrappers."""

import numpy as np
import pytest

from degenlab.elliptic import (
    EllipticityPair,
    EllipticOperator,
    SymMatrix,
    pucci_minus,
    pucci_plus,
)
from degenlab.errors import DomainError
from oracles import (
    EllipticityReport,
    check_ellipticity,
    eigenspace_minimizer,
    pucci_reference,
    sample_class_traces,
)


class TestSymMatrix:
    def test_roundtrip_2d(self):
        m = SymMatrix(d=2, upper=(2.0, 1.0, -3.0))
        assert np.allclose(m.matrix, [[2.0, 1.0], [1.0, -3.0]])
        assert np.allclose(SymMatrix.from_array(m.matrix).upper, m.upper)

    def test_eigenvalues_sorted(self):
        m = SymMatrix(d=3, upper=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        assert np.allclose(m.eigenvalues(), [-1.0, 1.0, 1.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            SymMatrix(d=2, upper=(1.0,))
        with pytest.raises(DomainError):
            SymMatrix(d=4, upper=tuple(range(10)))
        with pytest.raises(DomainError):
            SymMatrix.from_array([[0.0, 1.0], [0.0, 0.0]])


class TestPucci:
    def test_frozen_diag_case(self):
        pair = EllipticityPair(1.0, 2.0)
        M = np.diag([2.0, -3.0])
        assert pucci_minus(M, pair) == pytest.approx(-4.0, abs=1e-14)
        assert pucci_plus(M, pair) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_swap_case(self):
        # eigenvalues {-1, 1, 1}, pair (0.5, 3)
        pair = EllipticityPair(0.5, 3.0)
        M = SymMatrix(d=3, upper=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        assert pucci_minus(M, pair) == pytest.approx(-2.0, abs=1e-12)
        assert pucci_plus(M, pair) == pytest.approx(5.5, abs=1e-12)

    def test_frozen_random_case(self):
        pair = EllipticityPair(0.8, 2.5)
        M = np.array([[1.3, -0.7, 0.2], [-0.7, -2.1, 0.9], [0.2, 0.9, 0.4]])
        assert pucci_minus(M, pair) == pytest.approx(
            -4.6185764748242004, rel=1e-14
        )
        assert pucci_plus(M, pair) == pytest.approx(3.2985764748241984, rel=1e-14)

    def test_matches_eigenspace_minimizer(self):
        rng = np.random.default_rng(3)
        pair = EllipticityPair(0.7, 2.2)
        for d in (1, 2, 3):
            for _ in range(20):
                B = rng.uniform(-1, 1, size=(d, d))
                M = (B + B.T) / 2
                assert pucci_minus(M, pair) == pytest.approx(
                    eigenspace_minimizer(M, pair.lam, pair.Lam), abs=1e-12
                )

    def test_bounds_random_class_samples(self):
        rng = np.random.default_rng(4)
        pair = EllipticityPair(0.5, 2.0)
        B = rng.uniform(-1, 1, size=(3, 3))
        M = (B + B.T) / 2
        traces = sample_class_traces(M, pair.lam, pair.Lam, 5000, rng)
        assert pucci_minus(M, pair) <= traces.min() + 1e-12
        assert pucci_plus(M, pair) >= traces.max() - 1e-12

    def test_symmetry_identity(self):
        rng = np.random.default_rng(5)
        pair = EllipticityPair(0.9, 1.7)
        B = rng.uniform(-1, 1, size=(3, 3))
        M = (B + B.T) / 2
        assert pucci_plus(M, pair) == pytest.approx(-pucci_minus(-M, pair))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(6)
        pair = EllipticityPair(1.0, 3.0)
        B = rng.uniform(-1, 1, size=(7, 2, 2))
        Ms = (B + np.swapaxes(B, -1, -2)) / 2
        batch = pucci_minus(Ms, pair)
        singles = [pucci_minus(Ms[i], pair) for i in range(7)]
        assert np.allclose(batch, singles)

    def test_reference_formula_agreement(self):
        rng = np.random.default_rng(7)
        pair = EllipticityPair(0.6, 2.8)
        for _ in range(30):
            B = rng.uniform(-2, 2, size=(3, 3))
            M = (B + B.T) / 2
            lo, hi = pucci_reference(M, pair.lam, pair.Lam)
            assert pucci_minus(M, pair) == pytest.approx(lo, abs=1e-12)
            assert pucci_plus(M, pair) == pytest.approx(hi, abs=1e-12)


class TestOperators:
    def test_trace_requires_admissible_pair(self):
        EllipticOperator(kind="trace", pair=EllipticityPair(0.5, 2.0))
        with pytest.raises(DomainError):
            EllipticOperator(kind="trace", pair=EllipticityPair(2.0, 3.0))

    def test_trace_applies(self):
        op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
        assert op(np.diag([2.0, -3.0])) == pytest.approx(-1.0)

    def test_bellman_min_of_traces(self):
        pair = EllipticityPair(0.5, 2.0)
        A1 = np.diag([0.5, 2.0])
        A2 = np.diag([2.0, 0.5])
        op = EllipticOperator(
            kind="bellman-min-of-traces", pair=pair, coefficients=(A1, A2)
        )
        M = np.diag([1.0, -1.0])
        assert op(M) == pytest.approx(min(0.5 - 2.0, 2.0 - 0.5))

    def test_bellman_rejects_escaping_spectrum(self):
        pair = EllipticityPair(0.5, 2.0)
        with pytest.raises(DomainError):
            EllipticOperator(
                kind="bellman-min-of-traces",
                pair=pair,
                coefficients=(np.diag([0.1, 1.0]),),
            )

    @pytest.mark.parametrize(
        "kind", ["trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces"]
    )
    def test_envelope_property(self, kind):
        pair = EllipticityPair(0.5, 2.0)
        coeffs = (
            (np.diag([0.5, 2.0]), np.diag([2.0, 0.5]), np.eye(2))
            if kind == "bellman-min-of-traces"
            else ()
        )
        op = EllipticOperator(kind=kind, pair=pair, coefficients=coeffs)
        rep = check_ellipticity(op, d=2, samples=500, seed=11)
        assert rep.passed, rep
        assert rep.worst_low_slack >= -1e-10
        assert rep.worst_high_slack >= -1e-10

    @pytest.mark.parametrize("d, a11, first_failure", [(1, 0.45, 1), (2, 0.45, 108), (3, 0.2, 13)])
    def test_batched_check_matches_draw_by_draw_loop(self, d, a11, first_failure):
        """Same samples count, slacks and counterexample at the first failure."""
        coeff = np.diag([a11] + [1.25] * (d - 1))
        op = EllipticOperator("bellman-min-of-traces", EllipticityPair(0.1, 5.0), (coeff,))
        narrow = EllipticityPair(0.5, 2.0)  # a11 escapes it: the check must fail
        object.__setattr__(op, "pair", narrow)
        rep = check_ellipticity(op, d, 300, seed=3)
        assert not rep.passed and rep.samples == first_failure
        assert rep == _ellipticity_loop(op, d, 300, seed=3)
        ok = EllipticOperator("pucci-plus", narrow)
        assert check_ellipticity(ok, d, 300, seed=3) == _ellipticity_loop(ok, d, 300, seed=3)

    def test_pucci_kinds_are_the_envelopes(self):
        pair = EllipticityPair(0.7, 1.9)
        lo = EllipticOperator(kind="pucci-minus", pair=pair)
        hi = EllipticOperator(kind="pucci-plus", pair=pair)
        rng = np.random.default_rng(13)
        for _ in range(25):
            B = rng.uniform(-1, 1, size=(2, 2))
            M = (B + B.T) / 2
            assert lo(M) <= hi(M) + 1e-14
            assert lo(M) == pytest.approx(pucci_minus(M, pair))


def _ellipticity_loop(op, d, samples, seed):
    """Reference: one matrix pair per draw, stopping at the first failure."""
    rng = np.random.default_rng(seed)
    worst_low = worst_high = np.inf
    for i in range(samples):
        B = rng.uniform(-1.0, 1.0, size=(2, d, d))
        M, N = (B[0] + B[0].T) / 2.0, (B[1] + B[1].T) / 2.0
        diff = op.apply(M) - op.apply(N)
        low = diff - pucci_minus(M - N, op.pair)
        high = pucci_plus(M - N, op.pair) - diff
        worst_low, worst_high = min(worst_low, low), min(worst_high, high)
        if low < -1e-9 or high < -1e-9:
            return EllipticityReport(False, i + 1, float(worst_low), float(worst_high),
                                     (M.tolist(), N.tolist()))
    return EllipticityReport(True, samples, float(worst_low), float(worst_high), None)


_KINDS = ("trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces")


def _random_sym_batch(rng, shape, d):
    B = rng.uniform(-1.0, 1.0, size=(*shape, d, d))
    return (B + np.swapaxes(B, -1, -2)) / 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", _KINDS)
def test_batched_apply_matches_single_matrices(kind, d):
    """One F evaluator: a (..., d, d) batch gives the per-matrix values."""
    pair = EllipticityPair(0.5, 2.0)
    coeffs = ()
    if kind == "bellman-min-of-traces":
        coeffs = (
            np.diag(np.linspace(0.5, 2.0, d)),
            np.eye(d),
            np.full((d, d), 0.25) + 0.5 * np.eye(d),
        )
    op = EllipticOperator(kind=kind, pair=pair, coefficients=coeffs)
    rng = np.random.default_rng(17 + d)
    batch = _random_sym_batch(rng, (4, 5), d)
    batch[0, 0] = 0.0  # F(0) = 0 in every kind
    vals = op.apply(batch)
    assert vals.shape == (4, 5)
    assert vals[0, 0] == 0.0
    for idx in np.ndindex(4, 5):
        single = op.apply(batch[idx])
        assert isinstance(single, float)
        assert vals[idx] == single
        if kind == "pucci-minus":
            assert single == pucci_minus(batch[idx], pair)
            assert single == pytest.approx(pucci_reference(batch[idx], 0.5, 2.0)[0], abs=1e-12)
        elif kind == "pucci-plus":
            assert single == pucci_plus(batch[idx], pair)
            assert single == pytest.approx(pucci_reference(batch[idx], 0.5, 2.0)[1], abs=1e-12)
        elif kind == "trace":
            assert single == pytest.approx(np.trace(batch[idx]), abs=1e-14)
        else:
            assert single == pytest.approx(
                min(np.trace(np.asarray(A) @ batch[idx]) for A in coeffs), abs=1e-14
            )
    assert op.apply(SymMatrix.from_array(batch[1, 2])) == vals[1, 2]

