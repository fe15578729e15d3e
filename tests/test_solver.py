"""Grid solver: convergence against closed-form benchmarks."""

import dataclasses

import numpy as np
import pytest

from degenlab import solver
from degenlab.benchmarks import exact_benchmark
from degenlab.errors import ConfigError
from degenlab.grids import DiscreteField, Grid
from degenlab.solver import (
    MAX_ITER,
    SchemeConfig,
    cascade_sizes,
    residual,
    solve,
    solve_cascade,
)


def _rel_sup_error(u, exact):
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(u.values - exact))) / scale


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
        res = residual(u, bench.problem, eps_deg=0.0)
        assert res.sup_norm() < 1e-13


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

    def test_public_residual_is_the_converged_one(self):
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=33)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        u, diag = solve(bench.problem, grid, cfg)
        assert diag.converged and diag.scheme == "flux-1d"
        res = residual(u, bench.problem, eps_deg=cfg.eps_deg)
        assert res.sup_norm() == diag.final_residual


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
        cfg_cold = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        cfg_warm = dataclasses.replace(cfg_cold, initial=warm)
        _, diag_warm = solve(bench.problem, grid, cfg_warm)
        _, diag_cold = solve(bench.problem, grid, cfg_cold)
        assert diag_warm.iterations < diag_cold.iterations

    def test_cascade_matches_direct_solve(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=97)
        cfg = SchemeConfig(tol=1e-7, eps_deg=bench.recommended_eps_deg(grid))
        u_direct, _ = solve(bench.problem, grid, cfg)
        u_casc, diag = solve_cascade(bench.problem, grid, cfg)
        assert diag.converged
        assert np.max(np.abs(u_direct.values - u_casc.values)) < 1e-4


class TestPseudoTransient:
    @pytest.mark.parametrize("bad", ["nan", "inf-inside"])
    def test_nonfinite_initial_field_is_config_error(self, bad):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=17)
        init = np.zeros(grid.shape)
        init[8] = np.inf
        cfg = SchemeConfig(initial=np.nan if bad == "nan" else init)
        with pytest.raises(ConfigError):
            solve(bench.problem, grid, cfg)

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
        from degenlab.problem import ProblemInstance

        coeffs = (np.array([[0.7]]), np.array([[1.5]])) if kind.startswith("bellman") else ()
        prob = ProblemInstance(
            operator=EllipticOperator(kind, EllipticityPair(0.5, 2.0), coeffs),
            sigma_plus=PowerLaw(1.0), sigma_minus=PowerLaw(2.0),
            f=0.5, g=lambda x: x, C0=1.0,
        )
        grid = Grid(d=1, n=33)
        u, diag = solve(prob, grid, SchemeConfig(tol=1e-8, eps_deg=0.05))
        assert diag.converged and diag.scheme == "wide"
        assert residual(u, prob, eps_deg=0.05).sup_norm() <= 1e-8


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
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid),
                           initial=bench.exact_on(grid) + 0.05 * noise)
        _, diag = solve(bench.problem, grid, cfg)
        assert diag.converged
        assert diag.rejected_steps <= 1

    def test_cascade_calls_solve_once_per_level(self, monkeypatch):
        # bench/spans.py counts solver iterations by wrapping this module-level name
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid = Grid(d=1, n=65)
        calls = []
        inner = solver.solve

        def spy(prob, level_grid, cfg):
            calls.append((level_grid.n, cfg.initial))
            return inner(prob, level_grid, cfg)

        monkeypatch.setattr(solver, "solve", spy)
        cfg = SchemeConfig(tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))
        _, diag = solve_cascade(bench.problem, grid, cfg)
        assert [n for n, _ in calls] == [lv["n"] for lv in diag.levels] == [9, 17, 33, 65]
        assert calls[0][1] is None
        for n, initial in calls[1:]:
            assert isinstance(initial, DiscreteField) and initial.grid.n == n


def _wide_problem(kind, d):
    from degenlab.elliptic import EllipticityPair, EllipticOperator
    from degenlab.laws import PowerLaw, PowerLogLaw
    from degenlab.problem import ProblemInstance

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


class TestStepMatrix:
    """The step matrix is built from the stencil stack in one CSC build."""

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
        u = rng.uniform(-1.0, 1.0, disc.grid.shape)
        coeffs = disc.residual_interior(u)[3]
        dt = rng.uniform(0.01, 1.0, disc.f_int.shape)
        if zeros:
            coeffs = coeffs.copy()
            coeffs[:, rng.uniform(size=disc.f_int.shape) < 0.3] = 0.0
            cancel = rng.uniform(size=disc.f_int.shape) < 0.3  # 1/dt - J_ii = 0
            coeffs[0][cancel] = 1.0 / dt[cancel]
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
        indices, indptr = pattern.indices.copy(), pattern.indptr.copy()
        coeffs = np.zeros((len(disc.offsets),) + disc.f_int.shape)
        coeffs[0] = 1.0  # every off-diagonal entry and, with dt = 1, every diagonal one vanishes
        for dt in (np.ones(disc.f_int.shape), np.full(disc.f_int.shape, 0.5)):
            pattern.matrix(coeffs, dt)
        assert np.array_equal(pattern.indices, indices)
        assert np.array_equal(pattern.indptr, indptr)


class TestOneEvaluationPerIterate:
    """A solve evaluates each iterate's arrays once, for R and J together."""

    @staticmethod
    def _count(monkeypatch, owner, name, calls):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_wide(self, monkeypatch):
        from degenlab.problem import ProblemInstance

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
