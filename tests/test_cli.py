"""Command-line interface: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from degenlab import solver
from degenlab.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_TAIL,
    main,
)


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
        assert manifest["command"] == "solve"
        assert "field.csv" in manifest["files"]

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

    def test_flat_law_tail_exit(self, tmp_path):
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


class TestErrorsAndDeterminism:
    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

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
