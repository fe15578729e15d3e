"""Run-configuration schema: validation, builders, defaults."""

import json

import pytest

from degenlab.config import load_config, validate_config
from degenlab.errors import ConfigError
from degenlab.solver import SchemeConfig


def _base():
    return {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
        "grid": {"d": 1, "n": 49},
        "scheme": {"tol_solve": 1e-6},
        "out": "out",
    }


class TestValidation:
    def test_benchmark_config_builds(self):
        cfg = validate_config(_base())
        grid = cfg.build_grid()
        prob, bench = cfg.build_problem()
        assert grid.n == 49 and grid.d == 1
        assert bench is not None and bench.name == "radial-power"
        assert prob.C0 > 0.0

    def test_explicit_problem_builds(self):
        data = {
            "problem": {
                "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
                "sigma_plus": {"family": "power", "p": 1.0},
                "sigma_minus": {"family": "power", "p": 2.0},
                "f": 1.0,
                "g": 0.0,
                "C0": 1.0,
                "q": [0.1],
            },
            "grid": {"d": 1, "n": 33},
            "out": "out",
        }
        cfg = validate_config(data)
        prob, bench = cfg.build_problem()
        assert bench is None
        assert prob.q == (0.1,)
        assert prob.sigma_minus(0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(bogus=1),
            lambda d: d["grid"].update(spacing=0.1),
            lambda d: d["scheme"].update(solver="x"),
            lambda d: d["problem"].update(benchmark="mystery"),
            lambda d: d.update(seed="not-an-int"),
            lambda d: d.update(modulus={"K": 0}),
        ],
    )
    def test_rejections(self, mutate):
        data = _base()
        mutate(data)
        with pytest.raises(ConfigError):
            validate_config(data)

    def test_problem_requires_full_explicit_block(self):
        data = _base()
        data["problem"] = {"operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0}}
        with pytest.raises(ConfigError):
            validate_config(data)

    def test_missing_benchmark_parameter_is_config_error(self):
        data = _base()
        del data["problem"]["params"]["theta"]
        with pytest.raises(ConfigError, match="theta"):
            validate_config(data).build_problem()

    def test_values_are_converted_once(self):
        data = _base()
        data["grid"]["n"] = 49.0
        data["scheme"].update(max_iter=10.0, eps_deg=None, levels=2)
        data["lab"] = {"centers": [[0], [0.5]], "r": 1}
        cfg = validate_config(data)
        assert cfg.grid == {"d": 1, "n": 49} and type(cfg.grid["n"]) is int
        assert cfg.scheme == {"tol_solve": 1e-6, "max_iter": 10, "levels": 2}
        assert cfg.lab == {"centers": [(0.0,), (0.5,)], "r": 1.0}

    def test_c0_override_on_benchmark(self):
        data = _base()
        data["problem"]["C0"] = 9.5
        cfg = validate_config(data)
        prob, _ = cfg.build_problem()
        assert prob.C0 == 9.5


class TestSchemeBuild:
    def test_absent_keys_take_the_scheme_config_defaults(self):
        cfg = validate_config({"grid": {"d": 1, "n": 33}})
        prob, _ = validate_config(_base()).build_problem()
        assert cfg.build_scheme(prob, cfg.build_grid()) == SchemeConfig()

    def test_defaults_fill_in(self):
        cfg = validate_config(_base())
        grid = cfg.build_grid()
        prob, bench = cfg.build_problem()
        scheme = cfg.build_scheme(prob, grid, bench)
        assert isinstance(scheme, SchemeConfig)
        assert scheme.tol == 1e-6
        assert scheme.eps_deg == pytest.approx(bench.recommended_eps_deg(grid))

    def test_explicit_eps_deg_wins(self):
        data = _base()
        data["scheme"]["eps_deg"] = 0.01
        cfg = validate_config(data)
        grid = cfg.build_grid()
        prob, bench = cfg.build_problem()
        assert cfg.build_scheme(prob, grid, bench).eps_deg == 0.01

    def test_levels_default_and_override(self):
        assert validate_config(_base()).levels == 0
        data = _base()
        data["scheme"]["levels"] = 3
        assert validate_config(data).levels == 3


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_base()))
        cfg = load_config(str(path))
        assert cfg.grid == {"d": 1, "n": 49}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_require_lists_missing_blocks(self):
        cfg = validate_config({"grid": {"d": 1, "n": 33}})
        with pytest.raises(ConfigError, match="problem"):
            cfg.require("problem", "grid")
