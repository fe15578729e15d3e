"""Discrete viscosity-inequality certificates.

The two checks: wherever a paraboloid touches the field from above, the
smaller of sigma_plus*F and sigma_minus*F must stay <= C0; touching from
below, the larger must stay >= -C0.  Exact benchmark fields must pass with
C0 = sup|f| + 10h; planted non-solutions must fail loudly.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from degenlab.benchmarks import exact_benchmark
from degenlab import certifier
from degenlab.certifier import (
    BothSides,
    _State,
    certify_max,
    certify_min,
)
from degenlab.elliptic import EllipticityPair, EllipticOperator
from degenlab.grids import DiscreteField, Grid
from degenlab.laws import PowerLaw
from degenlab.problem import ProblemInstance

from oracles import certify_reference, reference_full_scan


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


class TestTolerances:
    def test_eta_defaults_scale_with_h(self):
        grid = Grid(d=2, n=21)  # h = 0.1
        u = DiscreteField(grid=grid, values=_oracle_field("random", grid))
        state = _State.masked(u, _mixed_problem(2))
        assert state.rho == 3
        assert state.eta_cert == pytest.approx(1.0)
        assert state.eta_touch == pytest.approx(0.01)
        assert np.abs(state.grads).max() == pytest.approx(0.005)
        assert np.abs(state.hessians).max() == pytest.approx(0.05)

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
    def test_fields(self, kind, d, n, rho, monkeypatch):
        grid = Grid(d=d, n=n)
        if kind == "exact":
            u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": d}, n)
        else:
            u = DiscreteField(grid=grid, values=_oracle_field(kind, grid))
            prob = _mixed_problem(d)
        monkeypatch.setattr(certifier, "RHO_TEST", rho)
        reports = [certify_min(u, prob), certify_max(u, prob)]
        assert reports == [certify_reference(u, prob, side, rho)
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
        for certify, side in ((certify_min, "above"), (certify_max, "below")):
            rep = certify(u, prob)
            assert rep.sigma_saturated
            assert rep == certify_reference(u, prob, side)


def _scan_field(kind, grid):
    """A field for the touching filter: an oracle field, or rounded noise
    (many equal residuals, so bounds and defects meet eta exactly)."""
    if kind == "ties":
        return np.round(4.0 * np.random.default_rng(3).normal(size=grid.shape)) / 4.0
    return _oracle_field(kind, grid)


class TestTouchingFilter:
    """The mask decided from the window extremes equals the full per-offset scan."""

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e307])  # 1e307: R holds inf and NaN
    @pytest.mark.parametrize("rho", [1, 2, 3])
    @pytest.mark.parametrize("d, n", [(1, 65), (2, 21)])
    @pytest.mark.parametrize("kind", ["planted", "kinked", "random", "ties"])
    def test_matches_full_scan(self, kind, d, n, rho, scale):
        grid = Grid(d=d, n=n)
        h = grid.h
        with np.errstate(over="ignore", invalid="ignore"):
            state = _State(scale * _scan_field(kind, grid), grid, _mixed_problem(d), rho)
            grads, hessians = state.nudges(0.5 * h * h, 0.5 * h)
            shifts = state.shift_table(grads, hessians).reshape(-1, len(state.x))
            for sign in (1.0, -1.0):
                top = state.R.max(axis=0) if sign > 0 else -state.R.min(axis=0)
                finite = top[np.isfinite(top)]
                for eta in (0.0, h * h, float(np.median(finite)) if finite.size else 1.0):
                    for shift in shifts:
                        want = reference_full_scan(state.R, shift, sign) <= eta
                        assert np.array_equal(state.touching(shift, sign, eta), want)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d, n", [(1, 65), (2, 21)])
    def test_eta_on_a_defect_value(self, d, n, sign):
        """eta equal to a node's defect: that node touches, by <=."""
        grid = Grid(d=d, n=n)
        state = _State(_scan_field("random", grid), grid, _mixed_problem(d), 3)
        grads, hessians = state.nudges(0.5 * grid.h**2, 0.5 * grid.h)
        scans = 0
        for shift in state.shift_table(grads, hessians).reshape(-1, len(state.x)):
            defect = reference_full_scan(state.R, shift, sign)
            for eta in np.quantile(defect, [0.1, 0.5, 0.9], method="nearest"):
                before = state.window_scans
                assert np.array_equal(state.touching(shift, sign, eta), defect <= eta)
                scans += state.window_scans - before
        assert scans > 0  # the exact scan was reached

    def test_bounds_decide_most_pairs(self):
        u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": 2}, 65)
        for rep in (certify_min(u, prob), certify_max(u, prob)):
            pairs = rep.checked_nodes * rep.tested_candidates
            assert 0 < rep.window_scans < 0.1 * pairs

    @pytest.mark.parametrize("paired", [False, True])
    def test_one_copy_of_the_residual_blocks(self, paired):
        """A certify_min, or both sides through one state, peaks below 1.25
        times its residual blocks: a second copy of them (a stacked R, or
        one R per side) does not fit."""
        u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": 2}, 65)

        def certify():
            if paired:
                both = BothSides(u)
                certify_min(both, prob)
                certify_max(both, prob)
            else:
                certify_min(u, prob)

        certify()
        tracemalloc.start()
        try:
            certify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        offsets, block = 7 * 7 - 1, (65 - 2 * 3) ** 2
        assert peak < 1.25 * offsets * block * 8


class TestBothSides:
    """One state certifies both sides exactly as two one-side calls do."""

    @pytest.mark.parametrize("min_first", [True, False])
    @pytest.mark.parametrize("d, n", [(1, 65), (2, 21)])
    @pytest.mark.parametrize("kind", ["exact", "planted", "kinked", "random", "steep"])
    def test_reports_equal_one_side_calls(self, kind, d, n, min_first):
        grid = Grid(d=d, n=n)
        if kind == "exact":
            u, prob = _bench_setup("radial-power", {"theta": 1.0, "d": d}, n)
        else:
            u = DiscreteField(grid=grid, values=_oracle_field(kind, grid))
            prob = _mixed_problem(d, t_max=5.0)
        both = BothSides(u)
        sides = [certify_min, certify_max][::1 if min_first else -1]
        for certify in sides:
            shared, alone = certify(both, prob), certify(u, prob)
            assert shared == alone
            assert shared.window_scans == alone.window_scans

    def test_another_problem_builds_afresh(self):
        grid = Grid(d=2, n=21)
        u = DiscreteField(grid=grid, values=_oracle_field("random", grid))
        both = BothSides(u)
        certify_min(both, _mixed_problem(2))
        first = both.state
        prob = _mixed_problem(2, t_max=5.0)
        for certify in (certify_min, certify_max):
            shared, alone = certify(both, prob), certify(u, prob)
            assert shared == alone
            assert shared.window_scans == alone.window_scans
        assert both.state is not first and both.state.prob is prob
