"""Discrete viscosity-inequality certificates.

The two checks: wherever a paraboloid touches the field from above, the
smaller of sigma_plus*F and sigma_minus*F must stay <= C0; touching from
below, the larger must stay >= -C0.  Exact benchmark fields must pass with
C0 = sup|f| + 10h; planted non-solutions must fail loudly.
"""

import dataclasses

import numpy as np
import pytest

from degenlab.benchmarks import exact_benchmark
from degenlab.certifier import (
    CertifierConfig,
    certify_max,
    certify_min,
)
from degenlab.elliptic import EllipticityPair, EllipticOperator
from degenlab.grids import DiscreteField, Grid
from degenlab.laws import PowerLaw
from degenlab.problem import ProblemInstance

from oracles import certify_reference


def _bench_setup(name, params, n):
    bench = exact_benchmark(name, params)
    grid = Grid(d=bench.d, n=n)
    u = DiscreteField(grid=grid, values=bench.exact_on(grid))
    c0 = float(np.max(np.abs(bench.problem.f_on(grid)))) + 10.0 * grid.h
    prob = dataclasses.replace(bench.problem, C0=c0)
    return u, prob


def _planted_problem(grid):
    op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
    law = PowerLaw(p=1.0, t_max=50.0)
    return ProblemInstance(
        operator=op,
        sigma_plus=law,
        sigma_minus=law,
        f=0.0,
        g=0.0,
        C0=0.1,
        q=(0.0,) * grid.d,
    )


class TestExactFieldsPass:
    def test_radial_2d_frozen(self):
        u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": 2}, 65)
        above = certify_min(u, prob)
        below = certify_max(u, prob)
        assert above.passed and below.passed
        assert above.max_violation == pytest.approx(-0.2853817636053857, rel=1e-10)
        assert below.max_violation == pytest.approx(-7.035183556500682, rel=1e-10)
        assert above.checked_nodes == 3481
        assert above.tested_candidates == 45
        assert above.violation_count == 0

    def test_transmission_frozen(self):
        u, prob = _bench_setup(
            "transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}, 129
        )
        above = certify_min(u, prob)
        below = certify_max(u, prob)
        assert above.passed and below.passed
        assert above.max_violation == pytest.approx(-0.145368667031039, rel=1e-10)
        assert below.max_violation == pytest.approx(-0.11020285422440113, rel=1e-10)
        assert above.checked_nodes == 123
        assert above.tested_candidates == 9

    def test_affine_frozen(self):
        u, prob = _bench_setup("affine", {"d": 2, "b": [0.75, -0.25], "a": 0.3}, 33)
        above = certify_min(u, prob)
        below = certify_max(u, prob)
        assert above.passed and below.passed
        # F = 0 for affine fields: both sides share one slack value
        assert above.max_violation == pytest.approx(-0.6002367952247567, rel=1e-10)
        assert below.max_violation == pytest.approx(above.max_violation, rel=1e-12)


class TestPlantedViolations:
    def test_convex_bump_fails_min_inequality(self):
        grid = Grid(d=2, n=65)
        prob = _planted_problem(grid)
        X, Y = grid.meshgrid()
        u = DiscreteField(grid=grid, values=10.0 * (X**2 + Y**2))
        rep = certify_min(u, prob)
        assert not rep.passed
        assert rep.max_violation == pytest.approx(1025.619158587941, rel=1e-10)
        assert rep.violation_count == 3480
        # failure must be decisive, not marginal
        assert rep.max_violation > 10.0 * rep.eta_cert
        # witness is an explicit touching paraboloid near the corner
        assert rep.witness is not None
        assert rep.witness.side == "above"
        assert np.allclose(rep.witness.M.matrix, [[20.015625, 0.0], [0.0, 20.0]])

    def test_convex_bump_passes_max_inequality(self):
        grid = Grid(d=2, n=65)
        prob = _planted_problem(grid)
        X, Y = grid.meshgrid()
        u = DiscreteField(grid=grid, values=10.0 * (X**2 + Y**2))
        rep = certify_max(u, prob)
        assert rep.passed
        assert rep.max_violation == pytest.approx(-0.1, abs=1e-12)

    def test_concave_bump_fails_max_inequality(self):
        grid = Grid(d=2, n=65)
        prob = _planted_problem(grid)
        X, Y = grid.meshgrid()
        u = DiscreteField(grid=grid, values=-10.0 * (X**2 + Y**2))
        rep = certify_max(u, prob)
        assert not rep.passed
        assert rep.max_violation > 10.0 * rep.eta_cert
        assert certify_min(u, prob).passed

    def test_planted_1d(self):
        grid = Grid(d=1, n=129)
        prob = _planted_problem(grid)
        u = DiscreteField.from_function(grid, lambda x: 10.0 * x**2)
        assert not certify_min(u, prob).passed
        assert certify_max(u, prob).passed


class TestConfigKnobs:
    def test_eta_defaults_scale_with_h(self):
        cfg = CertifierConfig()
        rho, eta_cert, eta_touch, eta_g, eta_h = cfg.resolved(0.1)
        assert rho == 3
        assert eta_cert == pytest.approx(1.0)
        assert eta_touch == pytest.approx(0.01)
        assert eta_g == pytest.approx(0.005)
        assert eta_h == pytest.approx(0.05)

    def test_explicit_overrides_win(self):
        cfg = CertifierConfig(eta_cert=0.5, rho_test=2)
        rho, eta_cert, *_ = cfg.resolved(0.1)
        assert rho == 2 and eta_cert == 0.5

    def test_loose_eta_cert_turns_failure_into_pass(self):
        grid = Grid(d=1, n=65)
        prob = _planted_problem(grid)
        u = DiscreteField.from_function(grid, lambda x: 10.0 * x**2)
        strict = certify_min(u, prob)
        assert not strict.passed
        loose = certify_min(u, prob, CertifierConfig(eta_cert=1e4))
        assert loose.passed

    def test_saturation_flag_on_steep_field(self):
        grid = Grid(d=1, n=65)
        op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
        law = PowerLaw(p=1.0, t_max=0.5)
        prob = ProblemInstance(
            operator=op, sigma_plus=law, sigma_minus=law, f=0.0, g=0.0, C0=10.0
        )
        u = DiscreteField.from_function(grid, lambda x: 5.0 * x)
        rep = certify_min(u, prob)
        assert rep.sigma_saturated
        assert rep.passed  # affine field: F = 0, nothing to violate


class TestReportShape:
    def test_report_fields_consistent(self):
        u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": 1}, 65)
        rep = certify_min(u, prob)
        assert rep.side == "above"
        assert rep.eta_cert == pytest.approx(10.0 * u.grid.h)
        assert rep.eta_touch == pytest.approx(u.grid.h**2)
        assert (rep.max_violation <= rep.eta_cert) == rep.passed

    def test_both_sides_on_all_benchmarks(self):
        cases = [
            ("affine", {"d": 1, "b": [1.0], "a": 0.0}, 65),
            ("radial-power", {"theta": 0.5, "d": 2}, 33),
            ("radial-power", {"theta": 1.0, "d": 1}, 129),
            ("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 2.0}, 129),
        ]
        for name, params, n in cases:
            u, prob = _bench_setup(name, params, n)
            assert certify_min(u, prob).passed, name
            assert certify_max(u, prob).passed, name


def _mixed_problem(d, t_max=50.0):
    """Pucci-minus with two different power laws and a gradient shift q."""
    return ProblemInstance(
        operator=EllipticOperator(kind="pucci-minus", pair=EllipticityPair(0.5, 2.0)),
        sigma_plus=PowerLaw(p=1.0, t_max=t_max),
        sigma_minus=PowerLaw(p=2.0, t_max=t_max),
        f=0.0, g=0.0, C0=1.0, q=(0.3, -0.2)[:d],
    )


def _oracle_field(kind, grid):
    X = grid.meshgrid()
    r2 = sum(x * x for x in X)
    if kind == "planted":
        return 10.0 * sum((x - 0.2) ** 2 for x in X) - 0.3
    if kind == "kinked":
        return np.abs(X[0] - 0.1) + 0.5 * np.sin(4.0 * X[-1]) - 0.2
    if kind == "random":
        rng = np.random.default_rng(5)
        out = np.zeros(grid.shape)
        for _ in range(4):
            k = rng.uniform(-3.0, 3.0, size=grid.d)
            phase = sum(ki * x for ki, x in zip(k, X)) + rng.uniform(0.0, 6.0)
            out += rng.normal() * np.cos(phase)
        return out
    return 30.0 * X[0] + 2.0 * r2  # steep: |Du| passes t_max


class TestMatchesReference:
    """Both sides equal the reference that builds every candidate in full."""

    @pytest.mark.parametrize("rho", [1, 2, 3])
    @pytest.mark.parametrize("d, n", [(1, 65), (2, 21)])
    @pytest.mark.parametrize("kind", ["exact", "planted", "kinked", "random"])
    def test_fields(self, kind, d, n, rho):
        grid = Grid(d=d, n=n)
        if kind == "exact":
            u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": d}, n)
        else:
            u = DiscreteField(grid=grid, values=_oracle_field(kind, grid))
            prob = _mixed_problem(d)
        cfg = CertifierConfig(rho_test=rho)
        reports = [certify_min(u, prob, cfg), certify_max(u, prob, cfg)]
        assert reports == [certify_reference(u, prob, cfg, side)
                           for side in ("above", "below")]
        if kind == "exact":
            assert all(rep.passed for rep in reports)
        if kind == "planted":
            assert reports[0].witness is not None and reports[0].violation_count > 0
        if kind == "kinked" and rho == 3:  # the kink is sharper than every candidate
            assert all(rep.untouched_nodes > 0 for rep in reports)

    @pytest.mark.parametrize("d, n", [(1, 65), (2, 21)])
    def test_steep_field_saturates(self, d, n):
        grid = Grid(d=d, n=n)
        u = DiscreteField(grid=grid, values=_oracle_field("steep", grid))
        prob = _mixed_problem(d, t_max=5.0)
        cfg = CertifierConfig()
        for certify, side in ((certify_min, "above"), (certify_max, "below")):
            rep = certify(u, prob, cfg)
            assert rep.sigma_saturated
            assert rep == certify_reference(u, prob, cfg, side)
