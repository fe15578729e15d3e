"""Run-configuration schema: validation, builders, defaults."""

import dataclasses
import inspect
import json
import math

import pytest

from degenlab import benchmarks, config
from degenlab.config import load_config, validate_config
from degenlab.errors import ConfigError, DomainError
from degenlab.laws import ExponentialFlatLaw, PowerLaw, PowerLogLaw, TabulatedLaw
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
            lambda d: d.update(seed=0),  # no key draws or records a seed
            lambda d: d.update(modulus={"K": 0}),
            lambda d: d.update(modulus={"K": 1}),  # no tail to certify: exit 4 at every build
            lambda d: d["grid"].update(n=10**51),
            lambda d: d["grid"].update(n=1e30),
            lambda d: d["scheme"].update(max_iter=2**63),
            lambda d: d.update(lab={"N": -1}),
            lambda d: d.update(grid={"d": 2, "n": 2**32}),
            lambda d: d.update(grid={"d": 2**62, "n": 9}),
        ],
    )
    def test_rejections(self, mutate):
        data = _base()
        mutate(data)
        with pytest.raises(ConfigError):
            validate_config(data)

    def test_largest_int64_value_passes(self):
        data = _base()
        data["scheme"]["max_iter"] = 2**63 - 1
        cfg = validate_config(data)
        assert cfg.scheme["max_iter"] == 2**63 - 1

    def test_problem_requires_full_explicit_block(self):
        data = _base()
        data["problem"] = {"operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0}}
        with pytest.raises(ConfigError):
            validate_config(data)

    @pytest.mark.parametrize("params", [{"d": 1}, None])
    def test_missing_benchmark_parameter_is_config_error(self, params):
        data = _base()
        data["problem"]["params"] = params
        with pytest.raises(ConfigError, match="config.problem.params needs 'theta'"):
            validate_config(data)

    def test_builder_range_error_names_the_params(self):
        data = _base()
        data["problem"]["params"] = {"theta": 1.0, "d": 3}
        cfg = validate_config(data)
        with pytest.raises(DomainError, match=r"^config\.problem\.params: radial-power "
                                              r"benchmark: d must be 1 or 2, got 3$"):
            cfg.build_problem()

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


def _law_config(sigma_plus):
    return {"problem": {
        "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
        "sigma_plus": sigma_plus, "sigma_minus": {"family": "power", "p": 1.0},
    }}


class TestLawBlocks:
    FAMILIES = [
        ({"family": "power", "p": 1.5}, PowerLaw(p=1.5), ("p",)),
        ({"family": "power-log", "p": 1.0, "q": 2.0}, PowerLogLaw(p=1.0, q=2.0), ("p", "q")),
        ({"family": "exponential-flat", "t_max": 5.0}, ExponentialFlatLaw(t_max=5.0), ()),
        ({"family": "tabulated", "points": [[0.5, 0.25], [1.0, 1.0]]},
         TabulatedLaw(((0.5, 0.25), (1.0, 1.0))), ("points",)),
    ]

    @pytest.mark.parametrize("block, law, required", FAMILIES)
    def test_each_family_is_built_once(self, block, law, required):
        cfg = validate_config(_law_config(block))
        assert cfg.problem["sigma_plus"] == law
        assert cfg.build_problem()[0].sigma_plus is cfg.problem["sigma_plus"]

    @pytest.mark.parametrize("block, message", [
        ({"family": "mystery"}, "sigma_plus.family must be one of"),
        ({"p": 1.0}, "sigma_plus.family must be one of"),
        ([1.0], "sigma_plus must be an object"),
        ({"family": "power", "p": "abc"}, "sigma_plus.p must be a number"),
        ({"family": "power", "p": True}, "sigma_plus.p must be a number"),
        ({"family": "power", "p": 10**400}, "sigma_plus.p must be finite"),  # past a double
        ({"family": "tabulated", "points": [[0.5]]}, "must be a list of lists of 2 numbers"),
    ])
    def test_rejects_a_malformed_block(self, block, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(_law_config(block))

    @pytest.mark.parametrize("block, law, required", FAMILIES)
    def test_rejects_an_unknown_or_a_missing_key(self, block, law, required):
        with pytest.raises(ConfigError, match=r"sigma_plus: unknown keys \['zz'\]"):
            validate_config(_law_config({**block, "zz": 2}))
        for key in required:
            partial = {k: v for k, v in block.items() if k != key}
            with pytest.raises(ConfigError, match=f"sigma_plus needs '{key}'"):
                validate_config(_law_config(partial))

    # JSON reads 1e400 as inf and NaN as nan: a law is sigma on a finite [0, t_max]
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("block, key", [
        pytest.param(lambda x: {"family": "power", "p": 1.0, "t_max": x}, "t_max", id="power"),
        pytest.param(lambda x: {"family": "power-log", "p": 1.0, "q": 1.0, "t_max": x},
                     "t_max", id="power-log"),
        pytest.param(lambda x: {"family": "exponential-flat", "t_max": x}, "t_max",
                     id="exponential-flat"),
        pytest.param(lambda x: {"family": "tabulated", "points": [[0.5, 0.25], [1.0, x]]},
                     "points", id="tabulated-sigma"),
        pytest.param(lambda x: {"family": "tabulated", "points": [[x, 0.25]]}, "points",
                     id="tabulated-t"),
    ])
    def test_non_finite_value_is_a_config_error(self, block, key, bad):
        with pytest.raises(ConfigError, match=f"sigma_plus.{key} must be finite, got {bad}"):
            validate_config(_law_config(block(bad)))

    @pytest.mark.parametrize("side", ["sigma_plus", "sigma_minus"])
    def test_law_range_error_names_its_block(self, side):
        data = _law_config({"family": "power", "p": 1.0})
        data["problem"][side] = {"family": "power", "p": 0}
        with pytest.raises(DomainError, match=rf"^config\.problem\.{side}: power: exponent p "
                                              r"must be positive and finite$"):
            validate_config(data)

    def test_schemas_name_the_parameters_of_what_they_build(self):
        for law, schema, required in config._LAWS.values():
            init = [f for f in dataclasses.fields(law) if f.init]
            assert set(schema) == {f.name for f in init}
            assert set(required) == {f.name for f in init
                                     if f.default is dataclasses.MISSING}
        for name, (schema, required) in config._BENCHMARK_PARAMS.items():
            signature = inspect.signature(benchmarks._BUILDERS[name]).parameters.values()
            assert set(schema) == {p.name for p in signature}
            assert set(required) == {p.name for p in signature if p.default is p.empty}


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

    @pytest.mark.parametrize("n, levels", [(49, None), (49, 2), (65, 3), (129, 4), (64, 0)])
    def test_levels_equal_to_the_ladder_depth_is_accepted(self, n, levels):
        data = _base()
        data["grid"]["n"] = n
        data["scheme"]["levels"] = levels
        cfg = validate_config(data)
        grid = cfg.build_grid()
        prob, bench = cfg.build_problem()
        assert cfg.build_scheme(prob, grid, bench) == SchemeConfig(
            tol=1e-6, eps_deg=bench.recommended_eps_deg(grid))

    @pytest.mark.parametrize("n, levels, depth", [(17, 2, 1), (49, 0, 2), (97, 2, 3),
                                                 (385, 4, 5), (64, 1, 0)])
    def test_levels_other_than_the_ladder_depth_is_rejected(self, n, levels, depth):
        data = _base()
        data["grid"]["n"] = n
        data["scheme"]["levels"] = levels
        cfg = validate_config(data)
        prob, bench = cfg.build_problem()
        message = (f"config.scheme.levels is {levels}, but the n={n} grid gets {depth}; "
                   f"omit it or use {depth}")
        with pytest.raises(ConfigError) as info:
            cfg.build_scheme(prob, cfg.build_grid(), bench)
        assert str(info.value) == message


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
