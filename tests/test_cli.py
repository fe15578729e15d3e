"""Command-line interface: artifacts, exit codes, determinism."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degenlab import __version__, certifier, cli, lab, solver
from degenlab.certifier import certify_max, certify_min
from degenlab.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_TAIL,
    _parser,
    _ser,
    _write_csv,
    main,
    read_field,
    write_field,
)
from degenlab.config import RunConfig, load_config
from degenlab.grids import DiscreteField, Grid

from oracles import certify_reference, csv_reference, json_reference


@pytest.fixture
def run_config(tmp_path):
    cfg = {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
        "grid": {"d": 1, "n": 49},
        "scheme": {"tol_solve": 1e-6, "scheme": "flux-1d"},
        "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 64},
        "lab": {"centers": [[0.0]], "r": 0.5, "N": 3},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def _manifest_files(out, command):
    """The files of ``command``'s manifest entry: every other file in ``out``."""
    files = json.loads((out / "manifest.json").read_text())["commands"][command]["files"]
    assert set(files) == {p.name for p in out.iterdir()} - {"manifest.json"}
    return set(files)


class TestSolve:
    def test_writes_field_and_diagnostics(self, run_config):
        path, out = run_config
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        assert (out / "field.csv").exists()
        diag = json.loads((out / "solve_diagnostics.json").read_text())
        assert diag["converged"] is True
        err = json.loads((out / "benchmark_error.json").read_text())
        assert err["relative_sup_error"] < 0.01
        manifest = json.loads((out / "manifest.json").read_text())
        assert "field.csv" in manifest["commands"]["solve"]["files"]

    def test_field_csv_shape(self, run_config):
        path, out = run_config
        main(["solve", "--config", str(path)])
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 50
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == -1.0

    def test_nonconvergence_exit_code(self, run_config, tmp_path):
        path, _ = run_config
        cfg = json.loads(path.read_text())
        cfg["scheme"] = {"tol_solve": 1e-13, "max_iter": 4}
        cfg["out"] = str(tmp_path / "stall")
        p2 = tmp_path / "stall.json"
        p2.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(p2)]) == EXIT_DIVERGED
        diag = json.loads((tmp_path / "stall" / "solve_diagnostics.json").read_text())
        assert diag["converged"] is False

    @pytest.mark.parametrize("max_iter, code", [(1000, EXIT_OK), (4, EXIT_DIVERGED)])
    def test_manifest_counts_the_solver_steps_of_every_level(self, run_config, max_iter, code):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg["scheme"]["max_iter"] = max_iter
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == code
        diag = json.loads((out / "solve_diagnostics.json").read_text())
        levels = diag["levels"]
        counters = json.loads((out / "manifest.json").read_text())["commands"]["solve"]["counters"]
        evaluations = counters.pop("solver.residual_evaluations")
        assert counters == {"solver.reused_steps": 0,  # 1-d keeps no factorization
                            # the level above the coarsest one stopped by max_iter
                            # starts far off, and its warm first step misses
                            "solver.cold_restarts": 0 if code == EXIT_OK else 1,
                            **{f"solver.{key}": sum(lv[key] for lv in levels)
                               for key in ("iterations", "linear_solves", "rejected_steps")}}
        # each level evaluates its start and every trial; a level stopped by
        # max_iter also evaluates the step after its last counted iterate
        slack = evaluations - sum(lv["iterations"] + lv["rejected_steps"] for lv in levels)
        assert slack == 0 if code == EXIT_OK else 0 < slack <= len(levels)
        assert len(levels) == 3 and counters["solver.linear_solves"] > levels[-1]["linear_solves"]
        # work counters go to the manifest only
        assert not {"reused_steps", "residual_evaluations", "cold_restarts"} & set(diag)

    def test_diagnostics_report_levels_and_linear_solves(self, run_config):
        path, out = run_config
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        diag = json.loads((out / "solve_diagnostics.json").read_text())
        assert [lv["n"] for lv in diag["levels"]] == [13, 25, 49]
        finest = diag["levels"][-1]
        assert finest["linear_solves"] == diag["linear_solves"] >= 1
        assert finest["iterations"] == diag["iterations"]
        assert set(finest) == {"n", "iterations", "linear_solves", "rejected_steps",
                               "start_residual", "final_residual"}
        assert finest["start_residual"] == diag["residual_history"][0][1]

    @pytest.mark.parametrize("f", [1e300, float("inf")])
    def test_runaway_solve_exits_diverged_not_as_a_law_error(self, tmp_path, capsys,
                                                             monkeypatch, f):
        cfg = {
            "problem": {
                "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
                "sigma_plus": {"family": "power", "p": 1.0},
                "sigma_minus": {"family": "power", "p": 2.0},
                "f": f, "g": 0.0, "C0": 1.0,
            },
            "grid": {"d": 1, "n": 17},
            "scheme": {"tol_solve": 1e-6, "max_iter": 50},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        if f == float("inf"):
            # a config cannot hold an infinite f, so put it into the built problem
            assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("error: config.problem.f must be finite")
            assert not (tmp_path / "out").exists()
            cfg["problem"]["f"] = 0.0
            path.write_text(json.dumps(cfg))
            build = RunConfig.build_problem
            monkeypatch.setattr(RunConfig, "build_problem", lambda self: (
                dataclasses.replace(build(self)[0], f=f), None))
        assert main(["solve", "--config", str(path)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "outside" not in err and err.count("\n") == 1
        diag = json.loads((tmp_path / "out" / "solve_diagnostics.json").read_text())
        assert diag["converged"] is False
        files = _manifest_files(tmp_path / "out", "solve")
        if f == 1e300:  # stops at max_iter with a field
            assert err.startswith("solve: not converged")
            assert files == {"field.csv", "solve_diagnostics.json"}
        else:  # SolverDivergenceError
            assert err.startswith("error: residual became non-finite")
            assert files == {"solve_diagnostics.json"}

    @pytest.mark.parametrize("levels", [None, 2])
    def test_solve_climbs_the_ladder_of_n(self, run_config, tmp_path, monkeypatch, levels):
        path, _ = run_config
        cfg = json.loads(path.read_text())
        cfg["grid"]["n"] = 33
        if levels is not None:
            cfg["scheme"]["levels"] = levels
        p2 = tmp_path / "levels.json"
        p2.write_text(json.dumps(cfg))
        seen = []
        real_solve = solver.solve

        def spy(prob, grid, scheme_cfg, start):
            seen.append(grid.n)
            return real_solve(prob, grid, scheme_cfg, start)

        monkeypatch.setattr(solver, "solve", spy)
        assert main(["solve", "--config", str(p2)]) == EXIT_OK
        assert seen == [9, 17, 33]


class TestCertify:
    def test_solved_field_passes(self, run_config):
        path, out = run_config
        main(["solve", "--config", str(path)])
        code = main(
            ["certify", "--config", str(path), "--field", str(out / "field.csv")]
        )
        assert code == EXIT_OK
        cert = json.loads((out / "certificates.json").read_text())
        assert cert["passed"] is True
        assert cert["min_inequality"]["side"] == "above"

    def test_planted_field_fails(self, run_config, tmp_path):
        path, out = run_config
        xs = np.linspace(-1.0, 1.0, 49)
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "x,u\n" + "\n".join(f"{x:.17g},{10*x*x:.17g}" for x in xs) + "\n"
        )
        code = main(["certify", "--config", str(path), "--field", str(bad)])
        assert code == EXIT_CERTIFICATE
        assert _manifest_files(out, "certify") == {"certificates.json"}

    def test_planted_witness_is_the_paraboloid_at_the_worst_violation(self, run_config,
                                                                      tmp_path):
        path, out = run_config
        xs = np.linspace(-1.0, 1.0, 49)
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "x,u\n" + "\n".join(f"{x:.17g},{10*x*x:.17g}" for x in xs) + "\n"
        )
        code = main(["certify", "--config", str(path), "--field", str(bad)])
        assert code == EXIT_CERTIFICATE
        cert = json.loads((out / "certificates.json").read_text())
        assert cert["max_inequality"]["witness"] is None  # that side passes
        side = cert["min_inequality"]
        cfg = load_config(str(path))
        prob, _ = cfg.build_problem()
        ref = certify_reference(read_field(str(bad), cfg.build_grid()), prob, "above")
        assert side["max_violation"] == ref.max_violation
        assert side["violation_count"] == ref.violation_count > 0
        w = side["witness"]
        assert set(w) == {"center", "rho_test", "p", "M", "side"}
        assert w["center"] == list(ref.witness.center)
        assert w["side"] == "above" and w["rho_test"] == 3
        # u = 10 x^2 is its own Taylor paraboloid: the witness is (20 x0, 20)
        # up to one gradient and one Hessian nudge
        h = xs[1] - xs[0]
        (i,) = w["center"]
        assert abs(w["p"][0] - 20.0 * xs[i]) <= 0.5 * h * h + 1e-9
        assert abs(w["M"][0] - 20.0) <= 0.5 * h + 1e-9

    @staticmethod
    def _certify_1d(tmp_path, values, problem=None):
        """certify's exit code on d = 1, n = 17 with the field of the given
        node values, for the problem block given or radial-power, theta = 1."""
        problem = problem or {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}
        cfg = {"problem": problem, "grid": {"d": 1, "n": 17}, "out": str(tmp_path / "out")}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        field = tmp_path / "field.csv"
        xs = np.linspace(-1.0, 1.0, 17)
        field.write_text("x,u\n" + "".join(
            f"{x:.17g},{v:.17g}\n" for x, v in zip(xs, values(xs))))
        return main(["certify", "--config", str(path), "--field", str(field)])

    def test_an_overflowing_violation_fails(self, tmp_path):
        # sigma F = |u'| u'' overflows to +-inf wherever a candidate touches
        code = self._certify_1d(tmp_path, lambda x: 1e307 * (x * np.abs(x)))
        assert code == EXIT_CERTIFICATE
        cert = json.loads((tmp_path / "out" / "certificates.json").read_text())
        assert cert["passed"] is False
        for key in ("min_inequality", "max_inequality"):
            side = cert[key]
            assert side["passed"] is False and side["max_violation"] == "inf"
            # 4 of 11 nodes touched: 3 with a product of inf on the failing side
            assert side["untouched_nodes"] == 7 and side["violation_count"] == 3
            w = side["witness"]
            assert abs(w["p"][0]) * w["M"][0] == (math.inf if key[:3] == "min" else -math.inf)

    @pytest.mark.filterwarnings("error")
    def test_a_nan_product_at_a_touching_node_is_an_error(self, tmp_path, capsys):
        # u = -2^1022 x^2 has exact Taylor data, but F = 2 u'' overflows to
        # -inf; at x = 0 the gradient is 0, and sigma(0) * F is NaN for the
        # base candidate, which touches from above
        pucci = {"operator": {"kind": "pucci-minus", "lam": 0.5, "Lam": 2.0},
                 "sigma_plus": {"family": "power", "p": 1.0},
                 "sigma_minus": {"family": "power", "p": 1.0},
                 "f": 0.0, "g": 0.0, "C0": 1.0}
        code = self._certify_1d(tmp_path, lambda x: -(2.0**1022) * x**2, pucci)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: certify: sigma * F is NaN at node (8,) "
            "for a test function touching from above\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, node", [
        # every difference overflows: the first node of the block is named
        (lambda x: np.where(np.arange(x.size) % 2, -1e308, 1e308), 3),
        # u'' overflows at x = 0, so its window and those of its neighbours
        # hold inf - inf; node 7 is the first of them
        (lambda x: np.where(x == 0.0, 0.0, 1e308), 7),
    ], ids=["alternating", "spike"])
    def test_overflowing_differences_are_an_error(self, tmp_path, capsys, values, node):
        code = self._certify_1d(tmp_path, values)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: certify: the differences of u overflow in the window of node ({node},)\n")
        assert not (tmp_path / "out").exists()

    def test_manifest_counts_window_scans(self, run_config):
        path, out = run_config
        main(["solve", "--config", str(path)])
        field = out / "field.csv"
        assert main(["certify", "--config", str(path), "--field", str(field)]) == EXIT_OK
        cfg = load_config(str(path))
        prob, _ = cfg.build_problem()
        u = read_field(str(field), cfg.build_grid())
        scans = certify_min(u, prob).window_scans + certify_max(u, prob).window_scans
        entry = json.loads((out / "manifest.json").read_text())["commands"]["certify"]
        assert entry["counters"] == {"certifier.window_scans": scans} and scans > 0
        cert = json.loads((out / "certificates.json").read_text())
        assert "window_scans" not in cert["min_inequality"]

    def test_one_state_per_command(self, run_config, monkeypatch):
        path, out = run_config
        main(["solve", "--config", str(path)])
        built = []

        class Spy(certifier._State):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(certifier, "_State", Spy)
        field = str(out / "field.csv")
        assert main(["certify", "--config", str(path), "--field", field]) == EXIT_OK
        assert len(built) == 1

    def test_missing_field_is_config_error(self, run_config):
        path, _ = run_config
        assert (
            main(["certify", "--config", str(path), "--field", "/nope.csv"])
            == EXIT_CONFIG
        )

    def test_wrong_grid_rejected(self, run_config, tmp_path):
        path, _ = run_config
        xs = np.linspace(-1.0, 1.0, 33)  # config says 49
        bad = tmp_path / "short.csv"
        bad.write_text("x,u\n" + "\n".join(f"{x},0.0" for x in xs) + "\n")
        assert (
            main(["certify", "--config", str(path), "--field", str(bad)])
            == EXIT_CONFIG
        )

    def test_wrong_y_column_rejected(self, tmp_path):
        cfg = {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}},
            "grid": {"d": 2, "n": 17},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run2d.json"
        path.write_text(json.dumps(cfg))
        xs = np.linspace(-1.0, 1.0, 17)
        rows = [f"{x:.17g},{y:.17g},0" for x in xs for y in xs]
        good = tmp_path / "good.csv"
        good.write_text("x,y,u\n" + "\n".join(rows) + "\n")
        assert main(["certify", "--config", str(path), "--field", str(good)]) == EXIT_OK
        rows = [f"{x:.17g},5.0,0" for x in xs for _ in xs]  # x right, y wrong
        bad = tmp_path / "bad_y.csv"
        bad.write_text("x,y,u\n" + "\n".join(rows) + "\n")
        assert (
            main(["certify", "--config", str(path), "--field", str(bad)])
            == EXIT_CONFIG
        )


class TestBuildModulus:
    def test_artifacts_and_eval(self, run_config, capsys):
        path, out = run_config
        code = main(["build-modulus", "--config", str(path), "--eval", "0.5"])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip()
        table = (out / "sequence_table.csv").read_text().splitlines()
        assert table[0] == "k,a_k,c_k,mu1_k,mu2_k,mu_star_k,tau_k"
        assert len(table) == 65
        mod = json.loads((out / "modulus.json").read_text())
        assert mod["K"] == 64
        assert float(printed) > 0.0

    def test_manifest_counts_branches(self, run_config):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        entry = json.loads((out / "manifest.json").read_text())["commands"]["build-modulus"]
        branches = entry["counters"]["modulus.branches"]
        assert set(branches) == {"sigma_plus", "sigma_minus"}
        for counts in branches.values():
            assert set(counts) == {"hold", "root", "cap"}
            assert sum(counts.values()) == 64 - 1  # every step but the seed
        # radial-power has one phase: both laws are power(1), searched once
        assert 0 < entry["counters"]["modulus.root_evaluations"] <= 16

    @pytest.mark.parametrize("C", [0.5, 0.3])
    def test_constant_the_clamp_cannot_save_is_one_error_line(self, run_config, capsys,
                                                              recwarn, C):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg["modulus"].update(C=C, alpha0=1.0)
        path.write_text(json.dumps(cfg))
        assert main(["build-modulus", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config.modulus: choose_scale: C={C:g} with alpha0=1 leaves mu1 <= r; "
            "r < mu1 needs C > r^(1 - alpha0) / 2 = 0.5 at r = 0.0625\n")
        assert not recwarn.list and not out.exists()

    @pytest.mark.parametrize("modulus, message", [
        ({"alpha0": 2.0}, "choose_scale: alpha0 must lie in (0, 1]"),
        ({"C": 0.0}, "choose_scale: C must be positive and finite"),
        ({"delta": 0.5}, "rescale_sequence: delta must lie in (0, 1/4)"),
    ])
    def test_range_error_names_the_block(self, run_config, capsys, modulus, message):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg["modulus"].update(modulus)
        path.write_text(json.dumps(cfg))
        assert main(["build-modulus", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config.modulus: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("modulus", [
        {"C": 1e300, "alpha0": 0.5},   # r = (4C)^(-1/alpha0) underflows to 0
        {"C": 1.0, "alpha0": 1e-300},
        {"C": 1e153, "alpha0": 0.5},   # r normal, 2 C r^(1+alpha0) is not
    ])
    def test_underflowing_scale_is_a_one_line_domain_error(self, run_config, capsys,
                                                            modulus):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg["modulus"].update(modulus)
        path.write_text(json.dumps(cfg))
        assert main(["build-modulus", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config.modulus: choose_scale: C=") and err.count("\n") == 1
        assert f"alpha0={modulus['alpha0']:g}" in err
        assert not out.exists()

    @staticmethod
    def _power_pair(tmp_path, p):
        """build-modulus's exit code on power(p) twice with K = 256."""
        law = {"family": "power", "p": p}
        cfg = {
            "problem": {"operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
                        "sigma_plus": law, "sigma_minus": law},
            "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return main(["build-modulus", "--config", str(path)])

    def test_an_underflowing_driving_sequence_shortens_the_table(self, tmp_path):
        assert self._power_pair(tmp_path, 0.5) == EXIT_OK
        assert json.loads((tmp_path / "out" / "modulus.json").read_text())["K"] == 179
        table = (tmp_path / "out" / "sequence_table.csv").read_text().splitlines()
        assert len(table) == 1 + 179

    def test_a_driving_sequence_that_underflows_at_once_exits_with_the_tail_code(
            self, tmp_path, capsys):
        assert self._power_pair(tmp_path, 0.004) == EXIT_TAIL
        assert capsys.readouterr().err == (
            "error: build_modulus: driving sequence underflows immediately\n")
        entry = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert entry["commands"]["build-modulus"]["counters"] == {}
        assert _manifest_files(tmp_path / "out", "build-modulus") == set()

    def test_flat_law_tail_exit(self, tmp_path, capsys):
        cfg = {
            "problem": {
                "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
                "sigma_plus": {"family": "exponential-flat", "t_max": 10.0},
                "sigma_minus": {"family": "exponential-flat", "t_max": 10.0},
                "f": 1.0,
                "C0": 1.0,
            },
            "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 64},
            "out": str(tmp_path / "flat"),
        }
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(cfg))
        assert main(["build-modulus", "--config", str(p)]) == EXIT_TAIL
        assert _manifest_files(tmp_path / "flat", "build-modulus") == set()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the recursion ran before the tail failed: its capped steps are the reason
        manifest = json.loads((tmp_path / "flat" / "manifest.json").read_text())
        branches = manifest["commands"]["build-modulus"]["counters"]["modulus.branches"]
        assert set(branches) == {"sigma_plus", "sigma_minus"}
        for counts in branches.values():
            assert counts["cap"] > 0 and sum(counts.values()) == 64 - 1
        counters = manifest["commands"]["build-modulus"]["counters"]
        assert 0 < counters["modulus.root_evaluations"] <= 64 + 1


class TestMeasure:
    def test_profile_and_comparison(self, run_config):
        path, out = run_config
        main(["solve", "--config", str(path)])
        code = main(
            ["measure", "--config", str(path), "--field", str(out / "field.csv")]
        )
        assert code == EXIT_OK
        prof = (out / "decay_profile.csv").read_text().splitlines()
        assert prof[0] == "x0,scale,excess,rate"
        assert len(prof) > 1
        cmp_doc = json.loads((out / "comparison.json").read_text())
        entry = cmp_doc["centers"][0]
        assert "comparison" in entry
        assert entry["comparison"]["C_star"] > 0.0


    @staticmethod
    def _measure_1d(tmp_path, **blocks):
        """measure's exit code on u = x^2 at n = 49 with the given blocks."""
        cfg = {"grid": {"d": 1, "n": 49}, "out": str(tmp_path / "out"), **blocks}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        field = tmp_path / "field.csv"
        field.write_text("x,u\n" + "".join(
            f"{x:.17g},{x * x:.17g}\n" for x in np.linspace(-1.0, 1.0, 49)))
        return main(["measure", "--config", str(path), "--field", str(field)])

    @pytest.mark.parametrize("blocks, message", [
        ({"lab": {"centers": [[2.0]]}},
         "config.lab: decay_scan: center (2.0,) lies outside [-1, 1]^d"),
        ({"lab": {"N": 0}}, "config.lab: decay_scan: N must be at least 1"),
        ({"lab": {"r": 1.5}}, "config.lab: decay_scan: r must lie in (0, 1)"),
        ({"lab": {}, "modulus": {"alpha0": 2.0},
          "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}},
         "config.modulus: choose_scale: alpha0 must lie in (0, 1]"),
    ], ids=["center", "N", "r", "modulus"])
    def test_range_error_names_the_block(self, tmp_path, capsys, blocks, message):
        assert self._measure_1d(tmp_path, **blocks) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gap_tol, uncertified", [(None, 0), (-1.0, 4)])
    def test_manifest_counts_fits(self, tmp_path, monkeypatch, gap_tol, uncertified):
        cfg = {
            "grid": {"d": 2, "n": 33},
            "lab": {"centers": [[0.0, 0.0], [0.25, -0.25]], "r": 0.5, "N": 2},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        xs = np.linspace(-1.0, 1.0, 33)
        field = tmp_path / "field.csv"
        field.write_text("x,y,u\n" + "".join(
            f"{x:.17g},{y:.17g},{abs(x) ** 1.5 + x * y:.17g}\n" for x in xs for y in xs))
        if gap_tol is not None:  # every duality gap now counts as too wide
            monkeypatch.setattr(lab, "DUALITY_GAP_TOL", gap_tol)
        assert main(["measure", "--config", str(path), "--field", str(field)]) == EXIT_OK
        entry = json.loads((tmp_path / "out" / "manifest.json").read_text())
        counters = entry["commands"]["measure"]["counters"]
        u = read_field(str(field), Grid(d=2, n=33))
        steps = sum(lab.best_affine(u, x0, rho).exchange_steps
                    for x0 in cfg["lab"]["centers"] for rho in (0.5, 0.25))
        assert steps > 0  # the corner start is not optimal for this field
        assert counters == {"lab.fits": 4, "lab.uncertified_fits": uncertified,
                            "lab.exchange_steps": steps, "modulus.loaded": 0}
        profile = (tmp_path / "out" / "decay_profile.csv").read_text().splitlines()
        assert len(profile) == 1 + counters["lab.fits"]  # one minimax fit per row

    def test_gradient_pairs_hold_the_cloud_once(self, tmp_path):
        cfg = {
            "grid": {"d": 2, "n": 33},
            "lab": {"centers": [[0.0, 0.0], [0.25, -0.25]], "r": 0.5, "N": 2},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        xs = np.linspace(-1.0, 1.0, 33)
        field = tmp_path / "field.csv"
        field.write_text("x,y,u\n" + "".join(
            f"{x:.17g},{y:.17g},{np.sin(3 * x) * y:.17g}\n" for x in xs for y in xs))
        assert main(["measure", "--config", str(path), "--field", str(field)]) == EXIT_OK
        # one cloud for both centers: it does not depend on the center
        cloud = lab.gradient_pairs(read_field(str(field), Grid(d=2, n=33)))
        assert len(cloud) > 0
        assert (tmp_path / "out" / "gradient_pairs.csv").read_text() == csv_reference(
            ("distance", "grad_diff"), cloud)


def _measure(path, out, field):
    """(comparison.json bytes, the modulus.loaded counter) of one measure."""
    argv = ["measure", "--config", str(path), "--out", str(out), "--field", str(field)]
    assert main(argv) == EXIT_OK
    entry = json.loads((out / "manifest.json").read_text())["commands"]["measure"]
    return (out / "comparison.json").read_bytes(), entry["counters"]["modulus.loaded"]


class TestMeasureReusesModulus:
    """measure loads the omega of modulus.json only when the manifest vouches for it."""

    @pytest.fixture
    def field(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,u\n" + "".join(
            f"{x:.17g},{abs(x) ** 1.5:.17g}\n" for x in np.linspace(-1.0, 1.0, 49)))
        return path

    def test_loaded_equals_built(self, run_config, field, tmp_path):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        loaded = _measure(path, out, field)
        built = _measure(path, tmp_path / "fresh", field)  # no build-modulus there
        assert (loaded[1], built[1]) == (1, 0)
        assert loaded[0] == built[0]
        assert b'"C_star"' in loaded[0]

    def test_edited_modulus_is_rebuilt(self, run_config, field, tmp_path):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        mod = json.loads((out / "modulus.json").read_text())
        mod["tail_bound"] += 1.0
        (out / "modulus.json").write_text(json.dumps(mod))
        assert _measure(path, out, field) == (_measure(path, tmp_path / "fresh", field)[0], 0)

    def test_another_config_is_rebuilt(self, run_config, field, tmp_path):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        cfg = json.loads(path.read_text())
        cfg["modulus"]["K"] = 32
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        assert _measure(other, out, field) == (_measure(other, tmp_path / "fresh", field)[0], 0)

    def test_exit_4_build_is_not_reused(self, run_config, field, tmp_path):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        flat = json.loads(path.read_text())
        flat["problem"] = {
            "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
            "sigma_plus": {"family": "exponential-flat", "t_max": 10.0},
            "sigma_minus": {"family": "exponential-flat", "t_max": 10.0},
            "f": 1.0,
            "C0": 1.0,
        }
        flat_path = tmp_path / "flat.json"
        flat_path.write_text(json.dumps(flat))
        # the entry now carries this config's digest; modulus.json is the power one's
        assert main(["build-modulus", "--config", str(flat_path)]) == EXIT_TAIL
        assert (out / "modulus.json").exists()
        comparison, loaded = _measure(flat_path, out, field)
        assert (comparison, loaded) == (_measure(flat_path, tmp_path / "fresh", field)[0], 0)
        assert set(json.loads(comparison)["centers"][0]["comparison"]) == {"error"}

    @pytest.mark.parametrize("commands", [[], "build-modulus"])
    def test_commands_not_an_object_is_not_a_manifest(self, run_config, field, commands):
        path, out = run_config
        out.mkdir()
        bad = json.dumps({"schema": "degenlab-manifest-v2", "package_version": __version__,
                          "commands": commands})
        (out / "manifest.json").write_text(bad)
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["commands"]) == ["build-modulus"]
        (out / "manifest.json").write_text(bad)  # modulus.json is now unvouched for
        assert _measure(path, out, field)[1] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["commands"]) == ["measure"]

    def test_other_package_version_is_not_a_manifest(self, run_config, field):
        path, out = run_config
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["package_version"] = "0.0.0"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert _measure(path, out, field)[1] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["package_version"] == __version__
        assert list(manifest["commands"]) == ["measure"]


class TestReport:
    def test_bundles_artifacts(self, run_config):
        path, out = run_config
        main(["solve", "--config", str(path)])
        main(["build-modulus", "--config", str(path)])
        assert main(["report", "--config", str(path)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["artifacts"]) >= {
            "solve_diagnostics.json",
            "modulus.json",
        }

    def test_empty_dir_is_error(self, run_config, tmp_path):
        path, _ = run_config
        empty = tmp_path / "empty"
        assert (
            main(["report", "--config", str(path), "--out", str(empty)])
            == EXIT_CONFIG
        )

    @pytest.mark.parametrize("artifact", ["a directory", "not UTF-8", "not JSON"])
    def test_unreadable_artifact_is_one_line_config_error(self, run_config, capsys,
                                                          artifact):
        path, out = run_config
        bad = out / "bad.json"
        if artifact == "a directory":
            bad.mkdir(parents=True)
        else:
            out.mkdir()
            bad.write_bytes(b"\xff\xfe{" if artifact == "not UTF-8" else b"{oops")
        assert main(["report", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: report: cannot read {bad} as JSON")
        assert err.count("\n") == 1


class TestManifest:
    def test_one_entry_per_command(self, run_config):
        path, out = run_config
        base = ["--config", str(path)]
        field = [*base, "--field", str(out / "field.csv")]
        assert main(["solve", *base]) == EXIT_OK
        assert main(["certify", *field]) == EXIT_OK
        assert main(["build-modulus", *base]) == EXIT_OK
        assert main(["measure", *field]) == EXIT_OK
        assert main(["report", *base]) == EXIT_OK
        commands = json.loads((out / "manifest.json").read_text())["commands"]
        assert set(commands) == {"solve", "certify", "build-modulus", "measure", "report"}
        digests = {}
        for entry in commands.values():
            assert set(entry) == {"config_sha256", "wall_times_s", "counters", "files"}
            digests.update(entry["files"])
        others = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(digests) == others
        for name, digest in digests.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()

    def test_cached_parser_keeps_no_state_between_calls(self, run_config, capsys):
        path, out = run_config
        argv = ["build-modulus", "--config", str(path)]
        assert main([*argv, "--out", str(out / "first"), "--eval", "0.5"]) == EXIT_OK
        assert float(capsys.readouterr().out) > 0.0
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert (out / "manifest.json").exists()  # the config's out, not the first --out

    def test_rerun_replaces_its_entry(self, run_config):
        path, out = run_config
        main(["build-modulus", "--config", str(path)])
        cfg = json.loads(path.read_text())
        cfg["modulus"]["K"] = 32
        path.write_text(json.dumps(cfg))
        main(["build-modulus", "--config", str(path)])
        commands = json.loads((out / "manifest.json").read_text())["commands"]
        assert list(commands) == ["build-modulus"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert commands["build-modulus"]["config_sha256"] == digest

    def test_config_rewritten_after_parsing_is_not_the_digested_one(self, run_config,
                                                                     monkeypatch):
        """The manifest digests the config bytes the command parsed: a file
        edited while build-modulus runs does not vouch for its modulus."""
        path, out = run_config
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        ran = path.read_bytes()
        cfg = json.loads(ran)
        cfg["modulus"]["K"] = 128
        load = cli.load_config

        def load_then_edit(name):
            parsed = load(name)
            path.write_text(json.dumps(cfg))
            return parsed

        monkeypatch.setattr(cli, "load_config", load_then_edit)
        assert main(["build-modulus", "--config", str(path)]) == EXIT_OK
        monkeypatch.undo()
        commands = json.loads((out / "manifest.json").read_text())["commands"]
        assert commands["build-modulus"]["config_sha256"] == hashlib.sha256(ran).hexdigest()
        assert json.loads((out / "modulus.json").read_text())["K"] == 64
        # measure under the edited config (K = 128) builds its own modulus
        assert main(["measure", "--config", str(path), "--field", str(out / "field.csv")
                     ]) == EXIT_OK
        commands = json.loads((out / "manifest.json").read_text())["commands"]
        assert commands["measure"]["counters"]["modulus.loaded"] == 0


class TestFieldFiles:
    @pytest.mark.parametrize("d, header, first_nodes", [
        (1, "x,u", [["-1"], ["-0.875"]]),
        (2, "x,y,u", [["-1", "-1"], ["-1", "-0.875"]]),  # row-major
    ])
    def test_csv_headers_name_the_coordinates(self, tmp_path, d, header, first_nodes):
        cfg = {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": d}},
            "grid": {"d": d, "n": 17},
            "lab": {"centers": [[0.0] * d], "r": 0.5, "N": 1},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        xs = [f"{x:.17g}" for x in np.linspace(-1.0, 1.0, 17)]
        nodes = itertools.product(xs, repeat=d)
        field = tmp_path / "zero.csv"
        field.write_text(header + "\n" + "\n".join(",".join((*c, "0")) for c in nodes) + "\n")
        assert main(["measure", "--config", str(path), "--field", str(field)]) == EXIT_OK
        centers = ",".join(f"{c}0" for c in header.split(",")[:d])
        assert (out / "decay_profile.csv").read_text().splitlines()[0] == (
            f"{centers},scale,excess,rate")
        assert (out / "gradient_pairs.csv").read_text().splitlines()[0] == "distance,grad_diff"
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == header and len(lines) == 1 + 17**d
        assert [ln.split(",")[:d] for ln in lines[1:3]] == first_nodes

    @pytest.mark.parametrize("command", ["certify", "measure"])
    def test_non_finite_value_is_a_one_line_config_error(self, run_config, tmp_path,
                                                         capsys, command):
        path, out = run_config
        xs = np.linspace(-1.0, 1.0, 49)
        vals = ["nan" if k == 20 else "0.25" for k in range(49)]
        bad = tmp_path / "nan.csv"
        bad.write_text("x,u\n" + "\n".join(f"{x:.17g},{v}" for x, v in zip(xs, vals)) + "\n")
        assert main([command, "--config", str(path), "--field", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: field: {bad} holds a non-finite value\n"
        assert not out.exists()


def _five_stage_run(tmp_path, d):
    """The output directory of solve, certify, build-modulus, measure and
    report on radial-power in d dimensions, n = 33."""
    cfg = {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": d}},
        "grid": {"d": d, "n": 33},
        "scheme": {"tol_solve": 1e-6},
        "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 32},
        "lab": {"centers": [[0.0] * d, [0.25] * d], "r": 0.5, "N": 2},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    base = ["--config", str(path)]
    field = [*base, "--field", str(out / "field.csv")]
    for argv in (["solve", *base], ["certify", *field], ["build-modulus", *base],
                 ["measure", *field], ["report", *base]):
        assert main(argv) == EXIT_OK
    return out


class TestCsvBytes:
    """The column writer gives the bytes of the cell-by-cell reference writer."""

    def test_mixed_columns_and_non_finite_cells(self, tmp_path):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2**63, size=300, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300, -1e-300,
                   np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 2.0**53, 1e16, 1e17, 123.0]
        floats = np.concatenate([special, bits, rng.normal(size=83)])
        ks = np.arange(-3, floats.size - 3)
        columns = (ks, floats, floats[::-1].copy(), ks * 1_000_003)
        header = ("k", "a", "b", "big_k")
        path = tmp_path / "mixed.csv"
        _write_csv(path, header, columns)
        rows = zip(*(c.tolist() for c in columns))  # Python ints and floats, as before
        assert path.read_text() == csv_reference(header, rows)
        _write_csv(path, header, [c[:0] for c in columns])
        assert path.read_text() == "k,a,b,big_k\n"

    def test_repeated_values_are_told_apart_by_their_bits(self, tmp_path):
        X, Y = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9),
                           indexing="ij")
        rows = X.size
        nans = (np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                          0xFFF0000000000abc, 0x7FF4000000000000], dtype=np.uint64)
                .view(np.float64))
        special = np.resize(np.concatenate([nans, [np.inf, -np.inf, np.inf, 1.5]]), rows)
        columns = (X.ravel(), Y.ravel(), np.full(rows, 0.1),
                   np.resize([0.0, -0.0], rows), special,
                   np.arange(rows) % 7 - 3,
                   np.random.default_rng(3).normal(size=rows))
        header = ("x", "y", "c", "zero", "special", "k", "distinct")
        distinct = [np.unique(c.view(np.int64) if c.dtype == float else c).size
                    for c in columns]
        # every column but the last takes the formatted-once branch
        assert distinct == [9, 9, 1, 2, 8, 7, rows]
        path = tmp_path / "repeated.csv"
        _write_csv(path, header, columns)
        text = path.read_text()
        assert text == csv_reference(header, zip(*(c.tolist() for c in columns)))
        assert {ln.split(",")[3] for ln in text.splitlines()[1:]} == {"0", "-0"}

    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_is_bit_identical(self, tmp_path, d):
        grid = Grid(d=d, n=9)
        values = np.random.default_rng(d).normal(size=grid.shape)
        edge = [-0.0, 5e-324, 1e308, 1e-300, -1e-300, -5e-324, -1e308, 2.0**-1074 * 3]
        values.flat[: len(edge)] = edge

        class Run:
            def emit_csv(self, name, header, columns):
                _write_csv(tmp_path / name, header, columns)

        write_field(Run(), "field.csv", DiscreteField(grid, values))
        got = read_field(str(tmp_path / "field.csv"), grid).values
        assert got.view(np.int64).tolist() == values.view(np.int64).tolist()

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_csv_of_a_five_stage_run(self, tmp_path, d):
        out = _five_stage_run(tmp_path, d)
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["decay_profile.csv", "field.csv", "gradient_pairs.csv",
                         "sequence_table.csv"]
        for name in names:
            header, *lines = (out / name).read_text().splitlines()
            header = header.split(",")
            # parse back, then format cell by cell: %.17g round-trips every double
            rows = [[int(c) if col == "k" else float(c) for col, c in zip(header, ln.split(","))]
                    for ln in lines]
            assert (out / name).read_text() == csv_reference(header, rows), name


class TestJsonBytes:
    """The one-pass serializer gives the text of the value-by-value reference."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_json_of_a_five_stage_run(self, tmp_path, monkeypatch, d):
        written = {}

        def spy(path, obj):
            written[path.name] = obj  # the manifest's last write is the file's
            return write(path, obj)

        write = cli._write_json
        monkeypatch.setattr(cli, "_write_json", spy)
        out = _five_stage_run(tmp_path, d)
        assert sorted(written) == sorted(p.name for p in out.glob("*.json"))
        assert len(written) == 7
        for name, obj in written.items():
            assert (out / name).read_text() == json_reference(obj) + "\n", name

    CRAFTED = {
        "float_run": [0.1, -2.5, 1e300, 5e-324, -0.0, 2.0**53],
        "non_finite_run": [1.0, math.inf, 2.0, -math.inf, math.nan],
        "non_finite_tuple": (math.nan,),
        "mixed": [1.0, 2, True, None, "s", np.float64(0.5), [], {}, ()],
        "numpy_scalars": [np.float64(1.0 / 3.0), np.int64(-7), np.float64(math.inf),
                          np.float32(0.1), np.uint8(255)],
        "numpy_run": [np.float64(0.25), np.float64(-1.5)],
        "bool_and_int": [True, 1, False, 0],
        "nested_empty": {"d": {}, "l": [], "t": (), "deep": [[{}], [[]], {"e": ()}]},
        "text": ["caf\u00e9", "\u2202u/\u2202x", "tab\there", "nul\x00", "\"q\" \\ /",
                 "\U0001d70e"],
        3: "int key",
        2.5: "float key",
        None: [1.5],
        "\u00fc\n": {7: [True]},
        "scalars": [0, -1, 10**30, math.inf, -math.inf, math.nan],
    }

    @pytest.mark.parametrize("obj", list(CRAFTED.values()), ids=list(map(repr, CRAFTED)))
    @pytest.mark.parametrize("indent", [0, 2])
    def test_crafted_values(self, obj, indent):
        assert _ser(obj, indent) == json_reference(obj, indent)

    def test_crafted_document(self):
        assert _ser(self.CRAFTED) == json_reference(self.CRAFTED)

    @pytest.mark.parametrize("bad", [{1, 2}, np.bool_(True), object(), [1.0, {2.0}],
                                     {"a": np.zeros(2)}, [1.0, 2.0, 1j]])
    def test_unsupported_type_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match="cannot serialize") as got:
            _ser(bad)
        with pytest.raises(TypeError) as want:
            json_reference(bad)
        assert str(got.value) == str(want.value)


class TestReadField:
    """read_field's contract: each rejection is one error line, exit 1, no output."""

    XS = [f"{x:.17g}" for x in np.linspace(-1.0, 1.0, 49)]
    GOOD = "x,u\n" + "".join(f"{x},0.25\n" for x in XS)

    # name: (file body, the part of the error line after "field: <path> ")
    REJECTED = {
        "letters": (GOOD.replace(",0.25\n", ",abc\n", 1), "has a malformed row"),
        "ragged": (GOOD.replace(",0.25\n", ",0.25,1\n", 1), "has a malformed row"),
        "empty_cells": (GOOD.replace(",0.25\n", ",,\n", 1), "has a malformed row"),
        "extra_column": ("x,u\n" + "".join(f"{x},0.25,1\n" for x in XS),
                         "has a malformed row"),
        "one_column": ("x,u\n" + "".join(f"{x}\n" for x in XS), "has a malformed row"),
        "underscore": (GOOD.replace("0.25", "1_0", 1), "has a malformed row"),
        "node_count": ("x,u\n" + "".join(f"{x},0.25\n" for x in XS[:-1]),
                       "holds 48 nodes, grid wants 49"),
        "off_grid": ("x,u\n" + "".join(f"{x},0.25\n" for x in XS[1:] + ["1.125"]),
                     "coordinates do not match the config grid"),
        # every coordinate 5e-6 relative off: within allclose's default rtol
        "scaled_axis": ("x,u\n" + "".join(f"{float(x) * (1 + 5e-6):.17g},0.25\n" for x in XS),
                        "coordinates do not match the config grid"),
        "dimension": ("x,y,u\n" + "".join(f"{x},0,0.25\n" for x in XS),
                      "is 2-dimensional, config grid is 1"),
        "empty": ("", "is empty"),
        "blank": (" \n\t\n\n", "is empty"),
        "header_only": ("x,u\n", "holds 0 nodes, grid wants 49"),
    }

    @pytest.mark.parametrize("case", list(REJECTED))
    @pytest.mark.parametrize("command", ["certify", "measure"])
    @pytest.mark.filterwarnings("error")
    def test_rejection_is_a_one_line_config_error(self, run_config, tmp_path, capsys,
                                                  case, command):
        path, out = run_config
        body, message = self.REJECTED[case]
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert main([command, "--config", str(path), "--field", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: field: {bad} {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_undecodable_file_is_a_config_error(self, run_config, tmp_path, capsys):
        path, out = run_config
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(self.GOOD.encode() + b"\xff\n")
        assert main(["certify", "--config", str(path), "--field", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: field: cannot read {bad}: ")
        assert not out.exists()

    def test_blank_and_whitespace_lines_are_skipped(self, run_config, tmp_path):
        path, _ = run_config
        grid = load_config(str(path)).build_grid()
        clean = tmp_path / "clean.csv"
        clean.write_text(self.GOOD)
        lines = self.GOOD.splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n \n" + lines[0] + "\n\t\n" + "\n  \n".join(lines[1:]) + "\n\n \n")
        want = read_field(str(clean), grid).values
        assert np.array_equal(read_field(str(spaced), grid).values, want)
        assert np.all(want == 0.25)


class TestNoOutputOnConfigError:
    """A command that exits 1 on its configuration leaves no --out directory."""

    def _run(self, tmp_path, command, cfg, field=None, extra=()):
        cfg = {**cfg, "out": str(tmp_path / "out")}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), *extra]
        if field is not None:
            argv += ["--field", str(field)]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def _field_1d(self, tmp_path, n):
        path = tmp_path / "field.csv"
        xs = np.linspace(-1.0, 1.0, n)
        path.write_text("x,u\n" + "\n".join(f"{x:.17g},{x * x:.17g}" for x in xs) + "\n")
        return path

    BAD_LAW = {
        "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
        "sigma_plus": {"family": "mystery"},
        "sigma_minus": {"family": "power", "p": 1.0},
        "f": 0.0, "C0": 1.0,
    }
    MODULUS = {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 64}

    def test_solve_with_a_mismatched_scheme(self, tmp_path):
        self._run(tmp_path, "solve", {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
            "grid": {"d": 1, "n": 17},
            "scheme": {"scheme": "wide"},
        })

    @pytest.mark.parametrize("name, params", [
        ("radial-power", {"theta": 1.0, "d": 1.5}),
        ("affine", {"d": 2.5}),
    ])
    def test_solve_with_a_fractional_benchmark_dimension(self, tmp_path, name, params):
        self._run(tmp_path, "solve", {
            "problem": {"benchmark": name, "params": params},
            "grid": {"d": 1, "n": 17},
        })

    def test_solve_with_a_cascade_below_the_minimum_grid(self, tmp_path, capsys):
        self._run(tmp_path, "solve", {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
            "grid": {"d": 1, "n": 17},
            "scheme": {"levels": 2},
        })
        assert capsys.readouterr().err == ("error: config.scheme.levels is 2, but the n=17 "
                                           "grid gets 1; omit it or use 1\n")

    def test_solve_on_a_grid_past_an_array_index(self, tmp_path, capsys):
        self._run(tmp_path, "solve", {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}},
            "grid": {"d": 2, "n": 2**32},
        })
        err = capsys.readouterr().err
        assert err.startswith("error: config.grid") and err.count("\n") == 1

    # a benchmark of another dimension than the grid is rejected before any compute
    @pytest.mark.parametrize("command, params, d, n", [
        ("solve", {"benchmark": "transmission-1d", "params": {"theta1": 1, "theta2": 2}}, 2, 17),
        ("solve", {"benchmark": "radial-power", "params": {"theta": 1, "d": 2}}, 1, 33),
        ("certify", {"benchmark": "radial-power", "params": {"theta": 1, "d": 2}}, 1, 33),
    ], ids=["solve-1d-on-2d", "solve-2d-on-1d", "certify-2d-on-1d"])
    def test_a_benchmark_of_another_dimension(self, tmp_path, capsys, monkeypatch,
                                             command, params, d, n):
        for stage in ("solve_cascade", "certify_min", "read_field"):
            monkeypatch.setattr(f"degenlab.cli.{stage}", lambda *a, s=stage: pytest.fail(s))
        field = self._field_1d(tmp_path, n) if command == "certify" else None
        self._run(tmp_path, command, {"problem": params, "grid": {"d": d, "n": n}}, field=field)
        bench = params["benchmark"]
        assert capsys.readouterr().err == (
            f"error: config.problem: benchmark {bench} is {3 - d}-d, but config.grid.d is {d}\n")

    @pytest.mark.parametrize("d, A", [(2, [[1.0]]), (2, np.eye(3).tolist()),
                                      (1, np.eye(2).tolist())],
                             ids=["1x1-on-2d", "3x3-on-2d", "2x2-on-1d"])
    def test_solve_with_a_bellman_coefficient_of_another_dimension(self, tmp_path, capsys, d, A):
        op = {"kind": "bellman-min-of-traces", "lam": 0.5, "Lam": 2.0, "coefficients": [A]}
        self._run(tmp_path, "solve", {
            "problem": {**self.BAD_LAW, "operator": op, "sigma_plus": {"family": "power", "p": 1.0}},
            "grid": {"d": d, "n": 9},
        })
        assert capsys.readouterr().err == (
            f"error: bellman coefficients are {len(A)}x{len(A)}, the grid is {d}-d\n")

    def test_report_into_a_missing_directory(self, tmp_path):
        self._run(tmp_path, "report", {})

    def test_certify_with_a_malformed_law(self, tmp_path):
        self._run(tmp_path, "certify", {"problem": self.BAD_LAW, "grid": {"d": 1, "n": 17}},
                  field=self._field_1d(tmp_path, 17))

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])  # JSON 1e400 and NaN
    def test_solve_with_a_non_finite_t_max(self, tmp_path, capsys, t_max):
        law = {"family": "power", "p": 1.0, "t_max": t_max}
        self._run(tmp_path, "solve", {
            "problem": {**self.BAD_LAW, "sigma_plus": law}, "grid": {"d": 1, "n": 17},
        })
        assert capsys.readouterr().err == (
            f"error: config.problem.sigma_plus.t_max must be finite, got {t_max!r}\n")

    LAWS_1D = {**BAD_LAW, "sigma_plus": {"family": "power", "p": 1.0},
               "sigma_minus": {"family": "power", "p": 2.0}}

    # a range error of a law, a benchmark builder, the operator or the scheme names its key
    @pytest.mark.parametrize("command, problem, scheme, message", [
        ("report", {**LAWS_1D, "sigma_minus": {"family": "power", "p": 0}}, {},
         "config.problem.sigma_minus: power: exponent p must be positive and finite"),
        ("solve", {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 3}}, {},
         "config.problem.params: radial-power benchmark: d must be 1 or 2, got 3"),
        ("solve", {**LAWS_1D, "operator": {"kind": "trace", "lam": 2.0, "Lam": 1.0}}, {},
         "config.problem.operator: EllipticityPair: need 0 < lam <= Lam < inf"),
        ("solve", {**LAWS_1D, "operator": {"kind": "bellman-min-of-traces", "lam": 0.5,
                                           "Lam": 2.0, "coefficients": [[[1, 0.5], [0, 1]]]}},
         {}, "config.problem.operator: bellman coefficient is not symmetric"),
        ("solve", LAWS_1D, {"max_iter": 0},
         "config.scheme: SchemeConfig: max_iter must be positive"),
        ("solve", LAWS_1D, {"tol_solve": 0},
         "config.scheme: SchemeConfig: tol must be positive and finite"),
    ], ids=["law", "benchmark", "operator", "bellman", "max_iter", "tol_solve"])
    def test_a_range_error_names_its_key(self, tmp_path, capsys, command, problem, scheme,
                                         message):
        self._run(tmp_path, command, {"problem": problem, "grid": {"d": 1, "n": 17},
                                      "scheme": scheme})
        assert capsys.readouterr().err == f"error: {message}\n"
    BELLMAN = {"kind": "bellman-min-of-traces", "lam": 0.5, "Lam": 2.0}
    MALFORMED = {
        "bellman-entry": {**LAWS_1D, "operator": {**BELLMAN, "coefficients": [[1, [2]]]}},
        "bellman-ragged": {**LAWS_1D, "operator": {**BELLMAN,
                                                   "coefficients": [[[1.0, 0.0], [0.0]]]}},
        "q-nested": {**LAWS_1D, "q": [[1.0]]},
        "theta2-list": {"benchmark": "transmission-1d",
                        "params": {"theta1": 1.0, "theta2": [2, 3]}},
        "theta-list": {"benchmark": "radial-power", "params": {"theta": [1.0], "d": 1}},
        "b-number": {"benchmark": "affine", "params": {"d": 1, "b": 1.0}},
        "b-nested": {"benchmark": "affine", "params": {"d": 1, "b": [[1.0]]}},
        "params-unknown-key": {"benchmark": "radial-power",
                               "params": {"theta": 1.0, "d": 1, "zz": 2}},
        "p-string": {**LAWS_1D, "sigma_plus": {"family": "power", "p": "2"}},
        "p-bool": {**LAWS_1D, "sigma_plus": {"family": "power", "p": True}},
        "t_max-string": {**LAWS_1D, "sigma_plus": {"family": "power", "p": 1.0, "t_max": "10"}},
        "law-unknown-key": {**LAWS_1D, "sigma_plus": {"family": "power", "p": 1.0, "zz": 2}},
        "law-missing-key": {**LAWS_1D, "sigma_minus": {"family": "power-log", "p": 1.0}},
        "law-not-an-object": {**LAWS_1D, "sigma_plus": "power"},
    }

    @pytest.mark.parametrize("problem", MALFORMED.values(), ids=MALFORMED.keys())
    @pytest.mark.parametrize("command", ["solve", "build-modulus"])
    def test_malformed_problem_is_one_config_error_line(self, tmp_path, capsys, command,
                                                        problem):
        # an exception other than a typed error escapes main and fails the test
        self._run(tmp_path, command, {
            "problem": problem, "grid": {"d": 1, "n": 17}, "modulus": self.MODULUS,
        })
        err = capsys.readouterr().err
        assert err.startswith("error: config.") and err.count("\n") == 1, err

    def test_build_modulus_with_a_malformed_law(self, tmp_path):
        self._run(tmp_path, "build-modulus", {"problem": self.BAD_LAW, "modulus": self.MODULUS})

    @pytest.mark.parametrize("t", ["2", "-1", "nan"])
    def test_build_modulus_eval_outside_the_unit_interval(self, tmp_path, capsys, t):
        self._run(tmp_path, "build-modulus", {
            "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
            "modulus": self.MODULUS,
        }, extra=("--eval", t))
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: Modulus")

    def test_measure_with_a_center_of_the_wrong_dimension(self, tmp_path):
        self._run(tmp_path, "measure", {
            "grid": {"d": 1, "n": 17}, "lab": {"centers": [[0.0, 0.0]], "r": 0.5, "N": 2},
        }, field=self._field_1d(tmp_path, 17))

    def test_measure_with_a_malformed_law(self, tmp_path):
        self._run(tmp_path, "measure", {
            "problem": self.BAD_LAW, "grid": {"d": 1, "n": 17}, "modulus": self.MODULUS,
            "lab": {"centers": [[0.0]], "r": 0.5, "N": 2},
        }, field=self._field_1d(tmp_path, 17))


class TestUnusableOutputDirectory:
    """A write into --out that fails is one error line and exit 1."""

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_under_or_at_a_file(self, run_config, tmp_path, capsys, out):
        path, _ = run_config
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        argv = ["build-modulus", "--config", str(path), "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out: cannot write sequence_table.csv")
        assert err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    def test_manifest_that_cannot_be_written(self, run_config, capsys):
        path, out = run_config
        (out / "manifest.json").mkdir(parents=True)
        assert main(["build-modulus", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out: cannot write manifest.json") and err.count("\n") == 1


class TestImports:
    def test_only_solve_loads_scipy(self, run_config, tmp_path):
        # a fresh interpreter: the test process has scipy loaded already
        path, _ = run_config
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps({
            "problem": {"benchmark": "affine", "params": {"d": 2}},
            "grid": {"d": 2, "n": 9},
            "out": str(tmp_path / "plane"),
        }))
        field = tmp_path / "field.csv"
        field.write_text("x,u\n" + "".join(
            f"{x:.17g},{abs(x) ** 1.5:.17g}\n" for x in np.linspace(-1.0, 1.0, 49)))
        script = "\n".join([
            "import sys, degenlab.cli as cli",
            "def scipy(): return sorted(m for m in sys.modules if m.startswith('scipy'))",
            "print(scipy())",
            "for cmd in ('certify', 'build-modulus', 'measure', 'report'):",
            f"    argv = [cmd, '--config', {str(path)!r}]",
            f"    extra = ['--field', {str(field)!r}] if cmd in ('certify', 'measure') else []",
            "    print(cmd, cli.main(argv + extra))",
            "print(scipy())",
            f"print('solve', cli.main(['solve', '--config', {str(path)!r}]))",
            "print(scipy())",
            f"print('solve', cli.main(['solve', '--config', {str(plane)!r}]))",
            "print('scipy.sparse' in scipy())",
        ])
        src = str(Path(lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300, check=True)
        assert done.stdout.splitlines() == [
            "[]", "certify 0", "build-modulus 0", "measure 0", "report 0", "[]",
            "solve 0", "[]",  # a 1-d step is tridiagonal, solved in Python floats
            "solve 0", "True",  # the check can fail: a 2-d solve factorizes with SuperLU
        ]


class TestErrorsAndDeterminism:
    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    def test_config_that_is_not_utf8_is_one_error_line(self, run_config, capsys):
        path, out = run_config
        path.write_bytes(json.dumps({"out": "\xff\xfe"}, ensure_ascii=False).encode("latin-1"))
        assert main(["report", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read {path}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert not out.exists() and not (path.parent / "\xff\xfe").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve"], "the following arguments are required: --config"),
        (["build-modulus", "--config", "c.json", "--eval", "x"],
         "invalid float value: 'x'"),
    ])
    def test_usage_error_is_one_line_config_error(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: degenlab {argv[0]}: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    FLAGS = {
        "solve": {"--config", "--out"},
        "certify": {"--config", "--out", "--field"},
        "build-modulus": {"--config", "--out", "--eval"},
        "measure": {"--config", "--out", "--field"},
        "report": {"--config", "--out"},
    }

    def test_each_command_takes_only_the_flags_it_reads(self):
        commands = next(a for a in _parser()._actions if a.dest == "command").choices
        assert set(commands) == set(self.FLAGS)
        for name, sub in commands.items():
            flags = {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
            assert flags == self.FLAGS[name], name

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FLAGS.items()
        for flag in sorted({"--field", "--eval", "--seed"} - flags)
    ])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, run_config, capsys,
                                                                command, flag):
        path, out = run_config
        argv = [command, "--config", str(path), flag, "1"]
        if "--field" in self.FLAGS[command]:
            argv += ["--field", str(out / "field.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: degenlab: unrecognized arguments: {flag} 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "measure"])
    def test_field_is_required(self, run_config, capsys, command):
        path, out = run_config
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: degenlab {command}: the following arguments are "
                       "required: --field\n")
        assert not out.exists()

    def test_a_seed_in_the_config_is_one_error_line(self, run_config, capsys):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg["seed"] = 7
        path.write_text(json.dumps(cfg))
        assert main(["build-modulus", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config: unknown keys ['seed']\n"
        assert not out.exists()

    @pytest.mark.parametrize("block, key, value", [
        ("scheme", "tol_solve", "abc"),
        ("scheme", "max_iter", 10.5),
        ("scheme", "levels", 2.5),
        ("scheme", "levels", -1),
        ("scheme", "eps_deg", True),
        ("scheme", "tol_solve", math.inf),
        ("scheme", "eps_deg", math.inf),
        ("scheme", "max_iter", math.inf),
        ("modulus", "C", math.inf),
        ("lab", "r", math.inf),
        ("lab", "centers", [[-math.inf]]),
        ("problem", "C0", math.inf),
        ("problem", "params", {"theta": math.inf, "d": 1}),
        ("problem", "params", {"theta": -math.inf, "d": 1}),
        ("grid", "d", "one"),
        ("grid", "n", [49]),
        ("modulus", "K", "abc"),
        ("modulus", "C", -1.0),
        ("lab", "r", "x"),
        ("lab", "N", -2),
        ("lab", "centers", [0.0]),
        ("problem", "C0", "big"),
        ("problem", "params", {"theta": "x", "d": 1}),
        ("grid", "n", 10**51),
        ("grid", "d", 2**62),
        ("scheme", "max_iter", 2**63),
        ("scheme", "levels", 10**20),
        ("modulus", "K", 1e30),
        ("lab", "N", 2**64),
    ])
    @pytest.mark.parametrize("command", ["solve", "measure"])
    def test_malformed_value_is_one_line_config_error(self, run_config, tmp_path, capsys,
                                                      block, key, value, command):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg[block][key] = value
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path)]
        if command == "measure":
            argv += ["--field", str(out / "field.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and err.count("\n") == 1
        assert not out.exists()

    # every 1-d problem gets flux-1d, a pucci one as much as a trace one
    PUCCI_MINUS = {"operator": {"kind": "pucci-minus", "lam": 0.5, "Lam": 2.0},
                   "sigma_plus": {"family": "power", "p": 1.0},
                   "sigma_minus": {"family": "power", "p": 1.0}, "f": 0.5, "C0": 1.0}

    @pytest.mark.parametrize("problem, d, scheme, code", [
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "wide",
         EXIT_CONFIG),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}}, 2, "flux-1d",
         EXIT_CONFIG),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "explicit",
         EXIT_CONFIG),
        (PUCCI_MINUS, 1, "flux-1d", EXIT_OK),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "auto", EXIT_OK),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "flux-1d",
         EXIT_OK),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}}, 2, "wide", EXIT_OK),
        (PUCCI_MINUS, 1, "wide", EXIT_CONFIG),
    ])
    def test_scheme_key_must_name_the_problems_discretization(self, tmp_path, capsys,
                                                              problem, d, scheme, code):
        cfg = {
            "problem": problem,
            "grid": {"d": d, "n": 17},
            "scheme": {"tol_solve": 1e-6, "scheme": scheme},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == code
        if code == EXIT_CONFIG:
            assert "error: config.scheme.scheme" in capsys.readouterr().err
            assert not (tmp_path / "out" / "field.csv").exists()
        else:
            diag = json.loads((tmp_path / "out" / "solve_diagnostics.json").read_text())
            assert diag["scheme"] == ("flux-1d" if d == 1 else "wide")

    def test_byte_identical_reruns(self, run_config, tmp_path):
        path, _ = run_config
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["solve", "--config", str(path), "--out", str(out)])
            main(["certify", "--config", str(path), "--field", str(out / "field.csv"),
                  "--out", str(out)])
            main(["build-modulus", "--config", str(path), "--out", str(out)])
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name == "manifest.json":
                continue  # carries wall-clock timings
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
