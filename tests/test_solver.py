"""Monotone grid solver: convergence against closed-form benchmarks."""

import numpy as np
import pytest

from degenlab.benchmarks import exact_benchmark
from degenlab.grids import DiscreteField, Grid
from degenlab.solver import SchemeConfig, residual, solve, solve_cascade


def _rel_sup_error(u, exact):
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(u.values - exact))) / scale


def _solve_benchmark(name, params, n, tol=1e-6, levels=1, scheme="auto"):
    bench = exact_benchmark(name, params)
    grid = Grid(d=bench.d, n=n)
    cfg = SchemeConfig(
        tol=tol, eps_deg=bench.recommended_eps_deg(grid), scheme=scheme
    )
    if levels > 1:
        u, diag = solve_cascade(bench.problem, grid, cfg, levels=levels)
    else:
        u, diag = solve(bench.problem, grid, cfg)
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
            "radial-power", {"theta": 1.0, "d": 1}, n=97, scheme="flux-1d", levels=2
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
            scheme="flux-1d",
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

    def test_history_stride_records_residuals(self):
        bench = exact_benchmark("affine", {"d": 1, "b": [1.0], "a": 0.0})
        grid = Grid(d=1, n=33)
        cfg = SchemeConfig(tol=1e-8, history_stride=10)
        _, diag = solve(bench.problem, grid, cfg)
        assert len(diag.residual_history) >= 1
        # entries are (iteration, residual) pairs
        its = [it for it, _ in diag.residual_history]
        ress = [r for _, r in diag.residual_history]
        assert its == sorted(its)
        assert ress[-1] <= ress[0] + 1e-12

    def test_initial_guess_is_used(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=49)
        warm = DiscreteField(grid=grid, values=bench.exact_on(grid))
        cfg_warm = SchemeConfig(
            tol=1e-6,
            scheme="flux-1d",
            eps_deg=bench.recommended_eps_deg(grid),
            initial=warm,
        )
        _, diag_warm = solve(bench.problem, grid, cfg_warm)
        cfg_cold = SchemeConfig(
            tol=1e-6, scheme="flux-1d", eps_deg=bench.recommended_eps_deg(grid)
        )
        _, diag_cold = solve(bench.problem, grid, cfg_cold)
        assert diag_warm.iterations < diag_cold.iterations

    def test_cascade_matches_direct_solve(self):
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
        grid = Grid(d=1, n=97)
        cfg = SchemeConfig(
            tol=1e-7, scheme="flux-1d", eps_deg=bench.recommended_eps_deg(grid)
        )
        u_direct, _ = solve(bench.problem, grid, cfg)
        u_casc, diag = solve_cascade(bench.problem, grid, cfg, levels=2)
        assert diag.converged
        assert np.max(np.abs(u_direct.values - u_casc.values)) < 1e-4
