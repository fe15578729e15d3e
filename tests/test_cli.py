"""Command-line interface: artifacts, exit codes, determinism."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from degenlab import solver
from degenlab.certifier import CertifierConfig
from degenlab.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_TAIL,
    main,
    read_field,
)
from degenlab.config import load_config

from oracles import certify_reference


@pytest.fixture
def run_config(tmp_path):
    cfg = {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
        "grid": {"d": 1, "n": 49},
        "scheme": {"tol_solve": 1e-6, "scheme": "flux-1d"},
        "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 64},
        "lab": {"centers": [[0.0]], "r": 0.5, "N": 3},
        "out": str(tmp_path / "out"),
        "seed": 7,
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

    def test_diagnostics_report_levels_and_linear_solves(self, run_config, tmp_path):
        path, _ = run_config
        cfg = json.loads(path.read_text())
        cfg["scheme"]["levels"] = 1
        cfg["out"] = str(tmp_path / "levels")
        p2 = tmp_path / "levels.json"
        p2.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(p2)]) == EXIT_OK
        diag = json.loads((tmp_path / "levels" / "solve_diagnostics.json").read_text())
        assert [lv["n"] for lv in diag["levels"]] == [25, 49]
        finest = diag["levels"][-1]
        assert finest["linear_solves"] == diag["linear_solves"] >= 1
        assert finest["iterations"] == diag["iterations"]
        assert set(finest) == {"n", "iterations", "linear_solves", "rejected_steps",
                               "final_residual"}

    @pytest.mark.parametrize("f", [1e300, float("inf")])
    def test_runaway_solve_exits_diverged_not_as_a_law_error(self, tmp_path, capsys, f):
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

    @pytest.mark.parametrize("levels, sizes", [(None, [33]), (0, [33]), (1, [17, 33])])
    def test_levels_counts_coarsenings(self, run_config, tmp_path, monkeypatch,
                                       levels, sizes):
        path, _ = run_config
        cfg = json.loads(path.read_text())
        cfg["grid"]["n"] = 33
        if levels is not None:
            cfg["scheme"]["levels"] = levels
        p2 = tmp_path / "levels.json"
        p2.write_text(json.dumps(cfg))
        seen = []
        real_solve = solver.solve

        def spy(prob, grid, scheme_cfg):
            seen.append(grid.n)
            return real_solve(prob, grid, scheme_cfg)

        monkeypatch.setattr(solver, "solve", spy)
        assert main(["solve", "--config", str(p2)]) == EXIT_OK
        assert seen == sizes


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
        ref = certify_reference(read_field(str(bad), cfg.build_grid()), prob,
                                CertifierConfig(), "above")
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


class TestManifest:
    def test_one_entry_per_command(self, run_config):
        path, out = run_config
        base = ["--config", str(path), "--seed", "7"]
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
            assert entry["seed"] == 7
            digests.update(entry["files"])
        others = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(digests) == others
        for name, digest in digests.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()

    def test_rerun_replaces_its_entry(self, run_config):
        path, out = run_config
        main(["build-modulus", "--config", str(path), "--seed", "1"])
        main(["build-modulus", "--config", str(path), "--seed", "2"])
        commands = json.loads((out / "manifest.json").read_text())["commands"]
        assert list(commands) == ["build-modulus"]
        assert commands["build-modulus"]["seed"] == 2


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
        assert (out / "gradient_pairs.csv").read_text().splitlines()[0] == (
            f"{centers},distance,grad_diff")
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "levels=2" in err and err.count("\n") == 1

    def test_report_into_a_missing_directory(self, tmp_path):
        self._run(tmp_path, "report", {})

    def test_certify_with_a_malformed_law(self, tmp_path):
        self._run(tmp_path, "certify", {"problem": self.BAD_LAW, "grid": {"d": 1, "n": 17}},
                  field=self._field_1d(tmp_path, 17))

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


class TestErrorsAndDeterminism:
    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv, message", [
        (["solve"], "the following arguments are required: --config"),
        (["solve", "--config", "c.json", "--seed", "x"], "invalid int value: 'x'"),
    ])
    def test_usage_error_is_one_line_config_error(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: degenlab solve: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("block, key, value", [
        ("scheme", "tol_solve", "abc"),
        ("scheme", "max_iter", 10.5),
        ("scheme", "levels", 2.5),
        ("scheme", "levels", -1),
        ("scheme", "eps_deg", True),
        ("grid", "d", "one"),
        ("grid", "n", [49]),
        ("modulus", "K", "abc"),
        ("modulus", "C", -1.0),
        ("lab", "r", "x"),
        ("lab", "N", -2),
        ("lab", "centers", [0.0]),
        ("problem", "C0", "big"),
        ("problem", "params", {"theta": "x", "d": 1}),
    ])
    @pytest.mark.parametrize("command", ["solve", "measure"])
    def test_malformed_value_is_one_line_config_error(self, run_config, tmp_path, capsys,
                                                      block, key, value, command):
        path, out = run_config
        cfg = json.loads(path.read_text())
        cfg[block][key] = value
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--field", str(out / "field.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("problem, d, scheme, code", [
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "wide",
         EXIT_CONFIG),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}}, 2, "flux-1d",
         EXIT_CONFIG),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "explicit",
         EXIT_CONFIG),
        ({"operator": {"kind": "pucci-minus", "lam": 0.5, "Lam": 2.0},
          "sigma_plus": {"family": "power", "p": 1.0},
          "sigma_minus": {"family": "power", "p": 1.0}, "f": 0.5, "C0": 1.0},
         1, "flux-1d", EXIT_CONFIG),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "auto", EXIT_OK),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}}, 1, "flux-1d",
         EXIT_OK),
        ({"benchmark": "radial-power", "params": {"theta": 1.0, "d": 2}}, 2, "wide", EXIT_OK),
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
            main(["solve", "--config", str(path), "--out", str(out), "--seed", "7"])
            main(
                [
                    "certify",
                    "--config",
                    str(path),
                    "--field",
                    str(out / "field.csv"),
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            main(
                ["build-modulus", "--config", str(path), "--out", str(out), "--seed", "7"]
            )
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name == "manifest.json":
                continue  # carries wall-clock timings
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
