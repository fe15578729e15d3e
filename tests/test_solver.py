"""Grid solver: convergence against closed-form benchmarks."""

import dataclasses

import numpy as np
import pytest

from degenlab import solver
from degenlab.benchmarks import exact_benchmark
from degenlab.elliptic import EllipticityPair, EllipticOperator
from degenlab.errors import ConfigError
from degenlab.grids import DiscreteField, Grid, refine_linear
from degenlab.laws import PowerLaw
from degenlab.problem import ProblemInstance, select_phase
from degenlab.solver import (
    MAX_ITER,
    SchemeConfig,
    cascade_sizes,
    solve,
    solve_cascade,
)

from oracles import two_law_pair


def _rel_sup_error(u, exact):
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(u.values - exact))) / scale


def _sup_residual(u, prob, eps_deg):
    """Sup norm of the interior residual of the scheme ``solve`` uses."""
    disc = solver._make_discretization(prob, u.grid, eps_deg)
    return float(np.max(np.abs(disc.residual_interior(u.values)[0])))


def _solve_benchmark(name, params, n, tol=1e-6, cascade=False):
    bench = exact_benchmark(name, params)
    grid = Grid(d=bench.d, n=n)
    cfg = SchemeConfig(tol=tol, eps_deg=bench.recommended_eps_deg(grid))
    u, diag = (solve_cascade if cascade else solve)(bench.problem, grid, cfg)
    return u, diag, bench.exact_on(grid)


class TestAffine:
    def test_exact_recovery_1d(self):
        u, diag, exact = _solve_benchmark(
            "affine", {"d": 1, "b": [0.75], "a": 0.3}, n=33, tol=1e-8
        )
        assert diag.converged
        assert np.max(np.abs(u.values - exact)) < 1e-6

    def test_exact_recovery_2d(self):
        u, diag, exact = _solve_benchmark(
            "affine", {"d": 2, "b": [0.5, -0.25], "a": 0.1}, n=17
        )
        assert diag.converged
        assert np.max(np.abs(u.values - exact)) < 1e-6


class TestRadial:
    def test_radial_1d_flux_scheme(self):
        u, diag, exact = _solve_benchmark(
            "radial-power", {"theta": 1.0, "d": 1}, n=97, cascade=True
        )
        assert diag.converged
        assert diag.scheme == "flux-1d"
        assert _rel_sup_error(u, exact) < 0.005

    def test_radial_2d_coarse(self):
        u, diag, exact = _solve_benchmark(
            "radial-power", {"theta": 1.0, "d": 2}, n=33
        )
        assert diag.converged
        assert _rel_sup_error(u, exact) < 0.05

    def test_residual_vanishes_on_affine_solution(self):
        bench = exact_benchmark("affine", {"d": 1, "b": [0.75], "a": 0.3})
        grid = Grid(d=1, n=33)
        u = DiscreteField(grid=grid, values=bench.exact_on(grid))
        assert _sup_residual(u, bench.problem, eps_deg=0.0) < 1e-13


class TestTransmission:
    def test_transmission_1d(self):
        u, diag, exact = _solve_benchmark(
            "transmission-1d",
            {"theta1": 1.0, "theta2": 2.0, "c": 1.0},
            n=65,
        )
        assert diag.converged
        assert _rel_sup_error(u, exact) < 0.02
        # solution changes sign across the interface
        assert u.values[-1] > 0 > u.values[0]

    def test_scheme_residual_is_the_converged_one(self):
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=33)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        u, diag = solve(bench.problem, grid, cfg)
        assert diag.converged and diag.scheme == "flux-1d"
        assert _sup_residual(u, bench.problem, eps_deg=cfg.eps_deg) == diag.final_residual


class TestPastTMax:
    """sigma(t) = t frozen at t_max = 0.5: slopes past it keep the flux slope 0.5."""

    @staticmethod
    def _problem(f, g):
        law = PowerLaw(1.0, t_max=0.5)
        return ProblemInstance(
            operator=EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0)),
            sigma_plus=law, sigma_minus=law, f=f, g=g, C0=abs(f),
        )

    def test_steep_forcing(self):
        # u' = -4 sqrt(-x) down to x = -1/64, then u'' = 16 (sigma = 0.5); symmetric
        u, diag = solve_cascade(self._problem(8.0, 0.0), Grid(d=1, n=65), SchemeConfig())
        assert diag.converged
        exact = -((8.0 / 3.0) / 64**1.5 + 0.5 * 63 / 64 + 8.0 * (63 / 64) ** 2)
        assert abs(u.values[32] - exact) < 2e-3

    def test_steep_affine_data_are_recovered(self):
        grid = Grid(d=1, n=33)
        u, diag = solve(self._problem(0.0, lambda x: 5.0 * x + 5.0), grid, SchemeConfig())
        assert diag.converged
        assert np.max(np.abs(u.values - (5.0 * grid.axis + 5.0))) < 1e-9


class TestDiagnostics:
    def test_iteration_cap_reports_nonconvergence(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=33)
        cfg = SchemeConfig(tol=1e-12, max_iter=5)
        u, diag = solve(bench.problem, grid, cfg)
        assert not diag.converged
        assert diag.iterations == 5
        assert diag.final_residual > 1e-12
        u.assert_finite()

    def test_history_records_every_residual(self):
        bench = exact_benchmark("affine", {"d": 1, "b": [1.0], "a": 0.0})
        grid = Grid(d=1, n=33)
        cfg = SchemeConfig(tol=1e-8)
        _, diag = solve(bench.problem, grid, cfg)
        assert len(diag.residual_history) >= 1
        # entries are (iteration, residual) pairs
        its = [it for it, _ in diag.residual_history]
        ress = [r for _, r in diag.residual_history]
        assert its == list(range(1, diag.iterations + 1))
        assert ress[-1] == diag.final_residual
        assert ress[-1] <= ress[0] + 1e-12

    def test_initial_guess_is_used(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=49)
        warm = DiscreteField(grid=grid, values=bench.exact_on(grid))
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag_warm = solve(bench.problem, grid, cfg, start=warm)
        _, diag_cold = solve(bench.problem, grid, cfg)
        assert diag_warm.iterations < diag_cold.iterations
        assert diag_warm.residual_history[0][1] == _sup_residual(warm, bench.problem, cfg.eps_deg)

    @pytest.mark.parametrize("start", [
        DiscreteField(grid=Grid(d=1, n=35), values=np.zeros(35)),
        DiscreteField(grid=Grid(d=2, n=33), values=np.zeros((33, 33))),
        np.zeros(33),
    ], ids=["another-n", "another-d", "an-array"])
    def test_start_on_another_grid_is_config_error(self, start):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        with pytest.raises(ConfigError, match="start is not a field on the solve's grid"):
            solve(bench.problem, Grid(d=1, n=33), SchemeConfig(), start=start)

    def test_cascade_matches_direct_solve(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=97)
        cfg = SchemeConfig(tol=1e-7, eps_deg=bench.recommended_eps_deg(grid))
        u_direct, _ = solve(bench.problem, grid, cfg)
        u_casc, diag = solve_cascade(bench.problem, grid, cfg)
        assert diag.converged
        assert np.max(np.abs(u_direct.values - u_casc.values)) < 1e-4


class TestPseudoTransient:
    @pytest.mark.parametrize("bad", ["nan", "inf-inside", "boundary"])
    def test_nonfinite_initial_field_is_config_error(self, bad):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        prob, grid = bench.problem, Grid(d=1, n=17)
        start = DiscreteField(grid=grid, values=np.full(grid.shape, np.nan))
        if bad == "inf-inside":
            start.values[:] = 0.0
            start.values[8] = np.inf
        elif bad == "boundary":  # a cold start on non-finite boundary data
            prob, start = dataclasses.replace(prob, g=lambda x: np.where(x > 0, np.nan, 0.0)), None
        with pytest.raises(ConfigError, match="start field and boundary data must be finite"):
            solve(prob, grid, SchemeConfig(), start=start)

    @pytest.mark.parametrize("field", ["eps_deg", "tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_tol_or_eps_deg_is_config_error(self, field, value):
        # eps_deg = inf would freeze sigma at sigma(t_max) on every node
        with pytest.raises(ConfigError, match=f"{field} must be .* finite"):
            SchemeConfig(**{field: value})

    def test_stalling_solve_stops_at_the_default_cap(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=17)
        cfg = SchemeConfig(tol=1e-300, eps_deg=bench.recommended_eps_deg(grid))
        u, diag = solve(bench.problem, grid, cfg)
        assert not diag.converged
        assert diag.iterations == MAX_ITER == cfg.max_iter
        assert diag.final_residual < 1e-10
        u.assert_finite()

    def test_cascade_reports_every_level(self):
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=129)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve_cascade(bench.problem, grid, cfg)
        assert [lv["n"] for lv in diag.levels] == [9, 17, 33, 65, 129]
        assert all(lv["final_residual"] <= cfg.tol for lv in diag.levels)
        # a handful of Newton steps per level, not thousands of explicit ones;
        # the refined levels start warm, a few steps from the solution
        assert diag.levels[0]["iterations"] <= 20
        assert all(lv["iterations"] <= 6 for lv in diag.levels[1:])
        finest = diag.levels[-1]
        assert finest["iterations"] == diag.iterations
        assert finest["linear_solves"] == diag.linear_solves
        assert finest["rejected_steps"] == diag.rejected_steps
        assert finest["start_residual"] == diag.residual_history[0][1]
        assert finest["final_residual"] == diag.final_residual
        # every residual is kept by default
        assert [it for it, _ in diag.residual_history] == list(range(1, diag.iterations + 1))

    @pytest.mark.parametrize("n, sizes", [
        (65, [9, 17, 33, 65]),
        (129, [9, 17, 33, 65, 129]),
        (385, [13, 25, 49, 97, 193, 385]),
        (17, [9, 17]),
        (9, [9]),  # 5 nodes would fall below MIN_NODES
        (10, [10]),  # n - 1 odd
        (11, [11]),  # 6 nodes would fall below MIN_NODES
        (64, [64]),
    ])
    def test_ladder_halves_while_it_can(self, n, sizes):
        assert cascade_sizes(n) == sizes

    @pytest.mark.parametrize("n", [10, 64])
    def test_a_grid_that_cannot_coarsen_is_one_cold_solve(self, n):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=n)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        u_casc, diag = solve_cascade(bench.problem, grid, cfg)
        u, _ = solve(bench.problem, grid, cfg)
        assert [lv["n"] for lv in diag.levels] == [n]
        assert np.array_equal(u_casc.values, u.values)

    @pytest.mark.parametrize("kind", ["pucci-minus", "pucci-plus", "bellman-min-of-traces"])
    def test_one_dimensional_wide_stencil_kinds_solve(self, kind):
        from degenlab.elliptic import EllipticityPair, EllipticOperator
        from degenlab.laws import PowerLaw
        from degenlab.problem import ProblemInstance, select_phase

        coeffs = (np.array([[0.7]]), np.array([[1.5]])) if kind.startswith("bellman") else ()
        prob = ProblemInstance(
            operator=EllipticOperator(kind, EllipticityPair(0.5, 2.0), coeffs),
            sigma_plus=PowerLaw(1.0), sigma_minus=PowerLaw(2.0),
            f=0.5, g=lambda x: x, C0=1.0,
        )
        grid = Grid(d=1, n=33)
        u, diag = solve(prob, grid, SchemeConfig(tol=1e-8, eps_deg=0.05))
        assert diag.converged and diag.scheme == "wide"
        assert _sup_residual(u, prob, eps_deg=0.05) <= 1e-8

    # a 1x1 coefficient on a 2-d grid, 3x3 on 2-d and 2x2 on 1-d: the
    # parent raised an IndexError, solved with the upper-left 2x2 block and
    # solved with A[0, 0], in that order
    @pytest.mark.parametrize("d, A", [(2, np.eye(1)), (2, np.eye(3)), (1, np.eye(2))],
                             ids=["1x1-on-2d", "3x3-on-2d", "2x2-on-1d"])
    def test_bellman_coefficient_of_another_dimension_is_config_error(self, d, A):
        prob = ProblemInstance(
            operator=EllipticOperator("bellman-min-of-traces", EllipticityPair(0.5, 2.0), (A,)),
            sigma_plus=PowerLaw(1.0), sigma_minus=PowerLaw(1.0), f=0.5, g=0.0, C0=1.0,
        )
        with pytest.raises(ConfigError, match=f"coefficients are {len(A)}x{len(A)}, the grid is {d}-d"):
            solve(prob, Grid(d=d, n=9), SchemeConfig(eps_deg=0.05))


class TestWarmStart:
    """A given start begins pseudo-time far above the explicit cap."""

    @pytest.mark.parametrize("name, params, n, tol", [
        ("radial-power", {"theta": 1.0, "d": 2}, 65, 1e-4),
        ("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}, 129, 1e-6),
    ], ids=["radial-2d", "transmission-1d"])
    def test_refined_levels_take_a_few_factorizations(self, name, params, n, tol):
        _, diag, _ = _solve_benchmark(name, params, n=n, tol=tol, cascade=True)
        assert diag.converged and [lv["n"] for lv in diag.levels] == cascade_sizes(n)
        for lv in diag.levels[1:]:
            assert lv["linear_solves"] <= 5, lv
            assert lv["rejected_steps"] == 0, lv

    def test_rejected_warm_start_restarts_once_at_the_cap(self):
        # the noise puts the warm first step out of reach; halving back down to
        # the cap would throw away about ten factorizations
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=33)
        noise = np.random.default_rng(0).standard_normal(grid.shape)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        start = DiscreteField(grid=grid, values=bench.exact_on(grid) + 0.05 * noise)
        _, diag = solve(bench.problem, grid, cfg, start=start)
        assert diag.converged
        assert diag.rejected_steps <= 1
        assert diag.cold_restarts == 1

    def test_cascade_calls_solve_once_per_level(self, monkeypatch):
        # bench/spans.py counts solver iterations by wrapping this module-level name
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=65)
        calls = []  # (level n, its start, its solution)
        inner = solver.solve

        def spy(prob, level_grid, cfg, start):
            out = inner(prob, level_grid, cfg, start)
            calls.append((level_grid.n, start, out[0]))
            return out

        monkeypatch.setattr(solver, "solve", spy)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve_cascade(bench.problem, grid, cfg)
        assert [n for n, _, _ in calls] == [lv["n"] for lv in diag.levels] == [9, 17, 33, 65]
        # the coarsest level starts cold, every finer one from the refined level below
        assert calls[0][1] is None
        for (_, _, below), (n, start, _) in zip(calls, calls[1:]):
            assert isinstance(start, DiscreteField) and start.grid == Grid(d=1, n=n)
            assert np.array_equal(start.values, refine_linear(below).values)


def _noisy_start(bench, grid):
    noise = np.random.default_rng(0).standard_normal(grid.shape)
    return DiscreteField(grid=grid, values=bench.exact_on(grid) + 0.05 * noise)


class TestFactorizationReuse:
    """2-d steps reuse a kept SuperLU factorization while it halves the residual;
    1-d steps are always factored afresh."""

    def test_one_dimensional_steps_never_reuse(self):
        _, diag, _ = _solve_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0},
                                      n=129, cascade=True)
        assert {lv["n"]: (lv["iterations"], lv["linear_solves"], lv["rejected_steps"])
                for lv in diag.levels} == {9: (11, 10, 0), 17: (4, 3, 0), 33: (5, 4, 0),
                                           65: (5, 4, 0), 129: (5, 4, 0)}
        assert diag.reused_steps == 0
        # every trial is a factorization, and each level evaluates its start too
        assert diag.residual_evaluations == sum(lv["iterations"] for lv in diag.levels)

    def test_radial_cascade_reuses(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=65)
        cfg = SchemeConfig(tol=1e-4, eps_deg=bench.recommended_eps_deg(grid))
        u, diag = solve_cascade(bench.problem, grid, cfg)
        assert diag.converged and diag.final_residual <= cfg.tol
        # 21 factorizations and 1 rejected step when every step was factored
        assert sum(lv["linear_solves"] for lv in diag.levels) <= 14
        assert sum(lv["rejected_steps"] for lv in diag.levels) <= 1
        assert diag.reused_steps > 0
        assert diag.residual_evaluations == sum(
            lv["iterations"] + lv["rejected_steps"] for lv in diag.levels)
        assert _rel_sup_error(u, bench.exact_on(grid)) < 1e-3

    # bounds: the factorizations and rejected steps of the same solves when
    # every step was factored
    @pytest.mark.parametrize("n, start, solves, rejected", [
        (33, "cold", 12, 0), (65, "cold", 19, 2), (33, "noisy", 9, 1), (65, "noisy", 15, 3),
    ])
    def test_reuse_costs_no_factorization_or_rejection(self, n, start, solves, rejected):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=n)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve(bench.problem, grid, cfg,
                        start=_noisy_start(bench, grid) if start == "noisy" else None)
        assert diag.converged
        assert diag.linear_solves <= solves and diag.rejected_steps <= rejected

    def test_a_factorization_is_kept_only_while_it_halves_the_residual(self, monkeypatch):
        events = []  # "factor", "reuse" and every rms the solve computes, in order
        factor, back_solve, rms = (solver._StencilPattern.solve,
                                   solver._StencilPattern.back_solve, solver._rms)
        monkeypatch.setattr(solver._StencilPattern, "solve",
                            lambda self, *a: events.append("factor") or factor(self, *a))
        monkeypatch.setattr(solver._StencilPattern, "back_solve",
                            lambda self, r: events.append("reuse") or back_solve(self, r))
        monkeypatch.setattr(solver, "_rms", lambda r: events.append(rms(r)) or events[-1])
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=65)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve(bench.problem, grid, cfg, start=_noisy_start(bench, grid))
        assert diag.converged and diag.reused_steps > 0

        # (kind, rms ratio) of the last accepted step; kind None: the explicit step
        current, kind, last, dropped = events[0], None, (None, 1.0), 0
        for event in events[1:]:
            if isinstance(event, str):
                if event == "reuse":  # only after a solved step that halved the rms
                    assert last[0] is not None and last[1] <= 0.5, events
                # a reused step that cut the rms by less than half is factored afresh
                dropped += event == "factor" and last[0] == "reuse" and last[1] > 0.5
                kind = event
                continue
            if event <= current:
                last, current = (kind, event / current), event
            kind = None
        assert dropped > 0

    def test_rejected_reuse_is_factored_afresh(self, monkeypatch):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=17)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        start = DiscreteField(grid=grid, values=bench.exact_on(grid))
        _, plain = solve(bench.problem, grid, cfg, start=start)
        assert plain.reused_steps > 0 and plain.rejected_steps == 0

        factor, back_solve = solver._StencilPattern.solve, solver._StencilPattern.back_solve
        events = []

        def factored(self, coeffs, dt, r):
            events.append(("factor", dt))
            return factor(self, coeffs, dt, r)

        def poisoned_once(self, r):
            events.append(("reuse", self.kept[1]))
            if len([e for e in events if e[0] == "reuse"]) == 1:
                return np.full(r.shape, np.nan)
            return back_solve(self, r)

        monkeypatch.setattr(solver._StencilPattern, "solve", factored)
        monkeypatch.setattr(solver._StencilPattern, "back_solve", poisoned_once)
        _, diag = solve(bench.problem, grid, cfg, start=start)
        assert diag.converged
        assert diag.rejected_steps == plain.rejected_steps + 1
        assert diag.linear_solves == plain.linear_solves + 1
        assert diag.linear_solves == len([e for e in events if e[0] == "factor"])
        # the poisoned reuse is followed by one fresh factorization at a dt not cut
        first = [kind for kind, _ in events].index("reuse")
        (_, kept_dt), (kind, dt) = events[first], events[first + 1]
        assert kind == "factor" and np.all(dt >= kept_dt)


def _wide_problem(kind, d):
    from degenlab.elliptic import EllipticityPair, EllipticOperator
    from degenlab.laws import PowerLaw, PowerLogLaw
    from degenlab.problem import ProblemInstance, select_phase

    bellman = {1: (np.array([[0.7]]), np.array([[1.5]])),
               2: (np.diag([0.6, 1.8]), np.array([[1.0, 0.4], [0.4, 1.0]]))}
    return ProblemInstance(
        operator=EllipticOperator(kind, EllipticityPair(0.5, 2.0),
                                  bellman[d] if kind.startswith("bellman") else ()),
        sigma_plus=PowerLaw(1.5), sigma_minus=PowerLogLaw(1.0, 0.5),
        f=0.3, g=0.0, C0=1.0, q=(0.2,) * d,
    )


def _discretizations():
    """Every operator kind of the wide stencil in 1-d and 2-d, and the flux form."""
    kinds = ("trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces")
    cases = [pytest.param(solver._Discretization(_wide_problem(kind, d), Grid(d=d, n=9), 1e-4),
                          id=f"{kind}-{d}d")
             for d in (1, 2) for kind in kinds]
    bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
    flux = solver._FluxDiscretization1D(bench.problem, Grid(d=1, n=9), 1e-4)
    return cases + [pytest.param(flux, id="flux-1d")]


EACH_DISCRETIZATION = pytest.mark.parametrize("disc", _discretizations())


def _dense_step(disc, coeffs, dt):
    """diag(1/dt) - J as a dense matrix, entry by entry from the stencil stack."""
    shape = disc.f_int.shape
    index = np.arange(int(np.prod(shape))).reshape(shape)
    A = np.diag(1.0 / dt.ravel())
    for k, off in enumerate(disc.offsets):
        for node in np.ndindex(shape):
            nbr = tuple(i + o for i, o in zip(node, off))
            if all(0 <= i < n for i, n in zip(nbr, shape)):
                A[index[node], index[nbr]] -= coeffs[k][node]
    return A


def _step_inputs(disc, seed=7):
    """A stencil stack at a random iterate, with random dt and right-hand side."""
    rng = np.random.default_rng(seed)
    coeffs = disc.residual_interior(rng.uniform(-1.0, 1.0, disc.grid.shape))[3]()
    return coeffs, rng.uniform(0.01, 1.0, disc.f_int.shape), rng.uniform(-1.0, 1.0, disc.f_int.shape)


ONE_D = [case for case in _discretizations() if case.values[0].grid.d == 1]


class TestStepMatrix:
    """2-d: the step matrix is built from the stencil stack in one CSC build.
    1-d: its three bands are read straight from the stack."""

    @staticmethod
    def _reference(pattern, coeffs, dt):
        # the two-matrix build it replaces: J on the pattern, then a sparse subtraction
        from scipy import sparse

        J = sparse.csc_matrix((coeffs.reshape(-1)[pattern.src], pattern.indices, pattern.indptr),
                              shape=(pattern.size,) * 2)
        return sparse.diags(1.0 / dt.ravel(), format="csc") - J

    @pytest.mark.parametrize("zeros", [False, True], ids=["generic", "exact-zeros"])
    @EACH_DISCRETIZATION
    def test_matches_diag_minus_jacobian(self, disc, zeros):
        rng = np.random.default_rng(7)
        coeffs, dt, _ = _step_inputs(disc)
        if zeros:
            coeffs = coeffs.copy()
            coeffs[:, rng.uniform(size=disc.f_int.shape) < 0.3] = 0.0
            cancel = rng.uniform(size=disc.f_int.shape) < 0.3  # 1/dt - J_ii = 0
            coeffs[disc.offsets.index((0,) * disc.grid.d)][cancel] = 1.0 / dt[cancel]
        if disc.grid.d == 1:
            want = _dense_step(disc, coeffs, dt)
            for band, k in zip(disc.pattern.bands(coeffs, dt), (-1, 0, 1)):
                assert np.array_equal(band, np.diag(want, k)), k
            return
        got = disc.pattern.matrix(coeffs, dt)
        want = self._reference(disc.pattern, coeffs, dt)
        if zeros:
            assert got.nnz < coeffs.reshape(-1)[disc.pattern.src].size
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name

    @EACH_DISCRETIZATION
    def test_builds_leave_the_pattern_unchanged(self, disc):
        pattern = disc.pattern
        kept = {name: np.copy(value) for name, value in vars(pattern).items()}
        coeffs = np.zeros((len(disc.offsets),) + disc.f_int.shape)
        coeffs[disc.offsets.index((0,) * disc.grid.d)] = 1.0
        # with dt = 1 every entry vanishes; with dt = 0.5 the matrix is the identity
        r = np.ones(disc.f_int.shape)
        inputs = coeffs.copy(), r.copy()
        for dt in (np.ones(disc.f_int.shape), np.full(disc.f_int.shape, 0.5)):
            pattern.solve(coeffs, dt, r)
        for name, value in kept.items():
            assert np.array_equal(np.asarray(getattr(pattern, name)), value), name
        assert np.array_equal(coeffs, inputs[0]) and np.array_equal(r, inputs[1])


def _tridiagonal_system(rng, kind):
    """Bands and right-hand side of a random tridiagonal system of size 2-130.

    "dominant": diagonally dominant, solved without interchanges; "general":
    entries of one scale, so rows swap; "zero-pivot": d[k] = 0 at a random
    row, and in every other system also the rest of column k, which leaves
    the matrix singular; "nan": NaN entries, and in every other system a NaN
    pivot over a zero subdiagonal entry, the one place a pivot becomes 0.
    The NaNs take both signs, so that the bits show which NaN propagates.
    """
    n = int(rng.integers(2, 131))
    dl, d, du, b = (rng.uniform(-1.0, 1.0, size) for size in (n - 1, n, n - 1, n))
    if kind == "dominant":
        d += np.where(d < 0.0, -2.0, 2.0)
    elif kind == "zero-pivot":
        k = int(rng.integers(0, n))
        d[k] = 0.0
        if rng.uniform() < 0.5:  # column k vanishes
            dl[k:k + 1] = 0.0
            du[max(k - 1, 0):k] = 0.0
    elif kind == "nan":
        for band in (dl, d, du, b):
            at = rng.integers(0, band.size, int(rng.integers(0, 3)))
            band[at] = rng.choice([np.nan, -np.nan], at.size)
        if rng.uniform() < 0.5:
            k = int(rng.integers(0, n - 1))
            d[k], dl[k] = np.nan, 0.0
    return dl, d, du, b


class TestGtsv:
    """``_gtsv`` is LAPACK's dgtsv bit for bit, and None exactly where dgtsv reports INFO > 0."""

    KINDS = ["dominant", "general", "zero-pivot", "nan"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_lapack_dgtsv(self, kind):
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(self.KINDS.index(kind))
        singular = 0
        for _ in range(300):
            bands = _tridiagonal_system(rng, kind)
            inputs = [band.copy() for band in bands]
            *_, want, info = dgtsv(*(band.copy() for band in bands))
            got = solver._gtsv(*bands)
            for band, before in zip(bands, inputs):  # the bands are left as they were
                assert np.array_equal(band, before, equal_nan=True)
            if info > 0:
                singular += 1
                assert got is None
                continue
            assert got is not None and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert (singular > 0) == (kind == "zero-pivot"), singular


class TestTridiagonalStep:
    """1-d steps are solved from the three bands by dgtsv's elimination on
    Python floats (``_gtsv``), not by SuperLU."""

    @pytest.mark.parametrize("disc", ONE_D)
    def test_delta_matches_a_dense_solve(self, disc):
        coeffs, dt, r = _step_inputs(disc)
        want = np.linalg.solve(_dense_step(disc, coeffs, dt), r)
        got = disc.pattern.solve(coeffs, dt, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("disc", ONE_D)
    def test_zero_pivot_is_pivoted_past(self, disc):
        coeffs, dt, r = _step_inputs(disc)
        coeffs = coeffs.copy()
        center = coeffs[disc.offsets.index((0,))]
        center[0] = 1.0 / dt[0]  # A[0, 0] = 0: elimination without pivoting divides by it
        center[3] = 1.0 / dt[3]
        A = _dense_step(disc, coeffs, dt)
        assert A[0, 0] == 0.0 and A[3, 3] == 0.0 and A[1, 0] != 0.0
        want = np.linalg.solve(A, r)
        got = disc.pattern.solve(coeffs, dt, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("disc", ONE_D)
    def test_singular_system_gives_no_trial(self, disc):
        coeffs, dt, r = _step_inputs(disc)
        coeffs = np.zeros_like(coeffs)
        coeffs[disc.offsets.index((0,))][2] = 1.0 / dt[2]  # row 2 and column 2 vanish
        assert disc.pattern.solve(coeffs, dt, r) is None
        u = np.zeros(disc.grid.shape)
        assert solver._advance(u, disc.pattern.solve(coeffs, dt, r), disc.grid.interior) is None

    @pytest.mark.parametrize("disc", ONE_D)
    def test_nan_coefficients_give_no_trial(self, disc):
        coeffs, dt, r = _step_inputs(disc)
        coeffs = coeffs.copy()
        coeffs[disc.offsets.index((1,))][3] = np.nan
        u = np.zeros(disc.grid.shape)
        assert solver._advance(u, disc.pattern.solve(coeffs, dt, r), disc.grid.interior) is None

    def test_singular_step_is_rejected(self, monkeypatch):
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=9)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        pattern = solver._TridiagonalPattern
        bands, step_solve, deltas = pattern.bands, pattern.solve, []

        def first_singular(self, coeffs, dt):
            out = bands(self, coeffs, dt)
            if not deltas:
                for band in out:
                    band[:] = 0.0
            return out

        def recorded(self, *args):
            deltas.append(step_solve(self, *args))
            return deltas[-1]

        monkeypatch.setattr(pattern, "bands", first_singular)
        monkeypatch.setattr(pattern, "solve", recorded)
        u, diag = solve(bench.problem, grid, cfg)
        assert deltas[0] is None  # rejected, and the solve goes on
        assert diag.converged and diag.rejected_steps >= 1
        assert diag.linear_solves == len(deltas)


class TestJacobianOnDemand:
    """J is assembled from its evaluation's arrays, once, and only for a step that factors."""

    @staticmethod
    def _record(monkeypatch, owner, name, events, label):
        inner = getattr(owner, name)

        def recorded(*args, **kwargs):
            events.append(label)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    def test_radial_cascade_assembles_only_where_it_factors(self, monkeypatch):
        events = []
        for owner, name, label in ((solver._Discretization, "residual_interior", "evaluate"),
                                   (solver._Discretization, "_jacobian", "assemble"),
                                   (solver._StencilPattern, "solve", "factor"),
                                   (solver._StencilPattern, "back_solve", "reuse")):
            self._record(monkeypatch, owner, name, events, label)
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=65)
        cfg = SchemeConfig(tol=1e-4, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve_cascade(bench.problem, grid, cfg)
        assert diag.converged and diag.cold_restarts == 0
        factorizations = sum(lv["linear_solves"] for lv in diag.levels)
        assert events.count("factor") == factorizations == 14
        assert events.count("evaluate") == diag.residual_evaluations == 42
        assert events.count("reuse") >= diag.reused_steps == 24
        assert 0 < events.count("assemble") <= factorizations
        # each assembly feeds the factorization right after it, so a back-solve,
        # a rejected trial's iterate or the explicit step never assembles J
        assert all(events[i + 1] == "factor" for i, e in enumerate(events) if e == "assemble")

    @pytest.mark.parametrize("owner", [solver._Discretization, solver._FluxDiscretization1D])
    def test_one_dimensional_solve_assembles_at_most_once_per_factorization(self, monkeypatch,
                                                                            owner):
        events = []
        self._record(monkeypatch, owner, "_jacobian", events, "assemble")
        if owner is solver._Discretization:
            prob, grid = _wide_problem("pucci-minus", 1), Grid(d=1, n=17)
            _, diag = solve(prob, grid, SchemeConfig(tol=1e-6, eps_deg=0.1))
            assert diag.scheme == "wide"
            # a trial rejected at one dt is factored again at a cut dt, from the same J
            assert diag.rejected_steps > 0 and len(events) < diag.linear_solves
        else:
            bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
            grid = Grid(d=1, n=33)
            _, diag = solve(bench.problem, grid,
                            SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid)))
            assert diag.scheme == "flux-1d"
        assert diag.converged
        assert 0 < len(events) <= diag.linear_solves

    @EACH_DISCRETIZATION
    def test_jacobian_is_assembled_once_per_evaluation(self, disc, monkeypatch):
        events = []
        self._record(monkeypatch, type(disc), "_jacobian", events, "assemble")
        jacobian = disc.residual_interior(np.random.default_rng(3).uniform(-1.0, 1.0,
                                                                           disc.grid.shape))[3]
        assert events == []
        assert jacobian() is jacobian()
        assert events == ["assemble"]

    @pytest.mark.parametrize("kind, directions", [
        ("trace", [0, 1]), ("bellman-min-of-traces", [0, 1, 2, 3]),
        ("pucci-minus", [0, 1, 2, 3]), ("pucci-plus", [0, 1, 2, 3]),
    ])
    def test_second_differences_only_in_the_directions_read(self, kind, directions):
        disc = solver._Discretization(_wide_problem(kind, 2), Grid(d=2, n=9), 1e-4)
        assert sorted(disc.second_differences(np.zeros(disc.grid.shape))) == directions

    def test_axis_bellman_reads_two_directions(self):
        axis_only = EllipticOperator("bellman-min-of-traces", EllipticityPair(0.5, 2.0),
                                     (np.diag([0.6, 1.8]), np.eye(2)))
        prob = dataclasses.replace(_wide_problem("bellman-min-of-traces", 2), operator=axis_only)
        disc = solver._Discretization(prob, Grid(d=2, n=9), 1e-4)
        assert sorted(disc.second_differences(np.zeros(disc.grid.shape))) == [0, 1]


class TestOneEvaluationPerIterate:
    """A solve evaluates each iterate's arrays once, for R and for the J built from them."""

    @staticmethod
    def _count(monkeypatch, owner, name, calls):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_wide(self, monkeypatch):
        from degenlab.problem import ProblemInstance, select_phase

        calls = {}
        for name in ("residual_interior", "_gradient", "_branch_values"):
            self._count(monkeypatch, solver._Discretization, name, calls)
        self._count(monkeypatch, ProblemInstance, "law_pair", calls)
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid = Grid(d=2, n=17)
        _, diag = solve(bench.problem, grid,
                        SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid)))
        assert diag.converged and diag.scheme == "wide"
        assert calls["residual_interior"] >= diag.iterations > 1
        assert calls == dict.fromkeys(calls, calls["residual_interior"])

    def test_flux(self, monkeypatch):
        calls = {}
        for name in ("residual_interior", "_edges"):
            self._count(monkeypatch, solver._FluxDiscretization1D, name, calls)
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=33)
        _, diag = solve(bench.problem, grid,
                        SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid)))
        assert diag.converged and diag.scheme == "flux-1d"
        assert calls["residual_interior"] >= diag.iterations > 1
        assert calls["_edges"] == calls["residual_interior"]


class TestOneLaw:
    """One law evaluation on a one-phase problem gives the bits of two."""

    @staticmethod
    def _run(monkeypatch, prob, grid, cfg, u):
        disc = solver._make_discretization(prob, grid, cfg.eps_deg)
        laws = []
        primitive = PowerLaw.primitive
        with monkeypatch.context() as m:
            m.setattr(PowerLaw, "primitive",
                      lambda law, t: laws.append(law) or primitive(law, t))
            r, sig, clamped, jacobian = disc.residual_interior(u)
        field, diag = solve_cascade(prob, grid, cfg)
        return ([r, sig, jacobian(), field.values],
                (clamped, repr(dataclasses.asdict(diag))), len(laws))

    @pytest.mark.parametrize("name, params, n, primitives", [
        ("radial-power", {"theta": 1.0, "d": 2}, 17, 0),  # one law object, wide stencil
        ("affine", {"d": 2}, 17, 0),                      # two equal law objects
        ("radial-power", {"theta": 0.5, "d": 1}, 129, 1),  # flux-1d: one flux potential
        ("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}, 129, 2),  # two phases
    ])
    def test_matches_two_law_evaluation(self, monkeypatch, name, params, n, primitives):
        bench = exact_benchmark(name, params)
        prob = bench.problem
        assert prob.one_law == (name != "transmission-1d")
        grid = Grid(d=bench.d, n=n)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        noise = np.random.default_rng(4).normal(size=grid.shape)
        u = bench.exact_on(grid) + 0.2 * noise - 0.1  # both signs and every branch
        arrays, rest, calls = self._run(monkeypatch, prob, grid, cfg, u)
        assert calls == primitives  # law primitives per residual
        # each law evaluated on its own in every per_law use: sigma, sigma', Psi
        monkeypatch.setattr(ProblemInstance, "per_law",
                            lambda prob, func: (func(prob.sigma_plus), func(prob.sigma_minus)))
        want_arrays, want_rest, _ = self._run(monkeypatch, prob, grid, cfg, u)
        assert rest == want_rest  # iterates' counters, histories and levels too
        for got, want in zip(arrays, want_arrays):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_two_phase_wide_stencil_is_unchanged(self, monkeypatch):
        prob = _wide_problem("pucci-minus", 2)
        assert not prob.one_law
        disc = solver._Discretization(prob, Grid(d=2, n=9), 1e-4)
        u = np.random.default_rng(2).uniform(-1.0, 1.0, disc.grid.shape)

        def evaluate():
            r, sig, clamped, jacobian = disc.residual_interior(u)
            return [r, sig, jacobian()], clamped

        arrays, clamped = evaluate()
        monkeypatch.setattr(ProblemInstance, "law_pair", two_law_pair)
        want_arrays, want_clamped = evaluate()
        assert clamped == want_clamped
        for got, want in zip(arrays, want_arrays):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_equal_laws_are_one_by_value(self):
        law = PowerLaw(p=1.5)
        op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))

        def problem(minus):
            return ProblemInstance(operator=op, sigma_plus=law, sigma_minus=minus,
                                   f=0.0, g=0.0, C0=0.0)

        assert problem(law).one_law and problem(PowerLaw(p=1.5)).one_law
        assert not problem(PowerLaw(p=1.5, t_max=5.0)).one_law
        speed = np.array([0.0, 0.5, 20.0])
        sp, sm, clamped = problem(PowerLaw(p=1.5)).law_pair(speed)
        assert sp is sm and clamped
        u = np.array([1.0, 0.0, -1.0])
        assert select_phase(u, sp, sm) is sp
        assert select_phase(np.ones((2, 3)), sp, sm).shape == (2, 3)  # broadcast, as before
        plus, minus, _ = problem(PowerLaw(p=2.0)).law_pair(speed)
        assert plus is not minus
        assert select_phase(u, plus, minus).tolist() == [plus[0], min(plus[1], minus[1]),
                                                         minus[2]]
