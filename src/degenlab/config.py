"""Run configuration: one JSON file drives every command.

Schema (all blocks optional; each command checks for the blocks it
needs and rejects unknown keys everywhere):

    {
      "problem": {                      # either a named benchmark ...
        "benchmark": "radial-power",
        "params": {"theta": 1.0, "d": 2},
        "C0": 4.0                       # optional override
      },
      # ... or an explicit instance:
      # "problem": {
      #   "operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0},
      #   "sigma_plus":  {"family": "power", "p": 1.0},
      #   "sigma_minus": {"family": "power", "p": 2.0},
      #   "f": 0.0, "g": 0.0, "C0": 1.0, "q": [0.0, 0.0]
      # },
      "grid":    {"d": 2, "n": 65},
      "scheme":  {"tol_solve": 1e-6, "max_iter": 200000,
                  "eps_deg": 1e-4, "dt": null, "scheme": "auto",
                  "levels": 0},         # coarsenings below grid.n
      "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256},
      "lab":     {"centers": [[0.0, 0.0]], "r": 0.5, "N": 6},
      "out":     "runs/demo",
      "seed":    0
    }

The benchmark form also fixes grid-independent defaults (exact boundary
data, forcing, recommended gradient clamp); explicit fields f and g must
be numbers in a config file (callables are API-only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .benchmarks import BENCHMARK_NAMES, Benchmark, exact_benchmark
from .elliptic import EllipticOperator, EllipticityPair
from .errors import ConfigError
from .grids import Grid
from .laws import law_from_config
from .problem import ProblemInstance
from .solver import SchemeConfig

_TOP_KEYS = {"problem", "grid", "scheme", "modulus", "lab", "out", "seed"}
_PROBLEM_BENCH_KEYS = {"benchmark", "params", "C0"}
_PROBLEM_EXPLICIT_KEYS = {"operator", "sigma_plus", "sigma_minus", "f", "g", "C0", "q"}
_OPERATOR_KEYS = {"kind", "lam", "Lam", "coefficients"}
_GRID_KEYS = {"d", "n"}
_SCHEME_KEYS = {"tol_solve", "max_iter", "eps_deg", "dt", "scheme", "levels"}
_MODULUS_KEYS = {"C", "alpha0", "delta", "K"}
_LAB_KEYS = {"centers", "r", "N"}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one run configuration file."""

    problem: dict | None
    grid: dict | None
    scheme: dict
    modulus: dict | None
    lab: dict | None
    out: str | None
    seed: int
    raw: dict = field(repr=False)

    def require(self, *blocks: str) -> None:
        for b in blocks:
            if getattr(self, b) is None:
                raise ConfigError(f"config: missing required block '{b}'")

    # ---- materialization -------------------------------------------------

    def build_grid(self) -> Grid:
        self.require("grid")
        return Grid(d=int(self.grid["d"]), n=int(self.grid["n"]))

    def build_problem(self) -> tuple[ProblemInstance, Benchmark | None]:
        """(instance, benchmark-or-None)."""
        self.require("problem")
        spec = self.problem
        if "benchmark" in spec:
            bench = exact_benchmark(spec["benchmark"], dict(spec.get("params", {})))
            prob = bench.problem
            if "C0" in spec:
                import dataclasses

                prob = dataclasses.replace(prob, C0=float(spec["C0"]))
            return prob, bench
        op_spec = dict(spec["operator"])
        pair = EllipticityPair(
            lam=float(op_spec.pop("lam")), Lam=float(op_spec.pop("Lam"))
        )
        kind = op_spec.pop("kind")
        coeffs = tuple(op_spec.pop("coefficients", ()))
        if op_spec:
            raise ConfigError(f"operator: unknown keys {sorted(op_spec)}")
        operator = EllipticOperator(kind=kind, pair=pair, coefficients=coeffs)
        prob = ProblemInstance(
            operator=operator,
            sigma_plus=law_from_config(spec["sigma_plus"]),
            sigma_minus=law_from_config(spec["sigma_minus"]),
            f=float(spec.get("f", 0.0)),
            g=float(spec.get("g", 0.0)),
            C0=float(spec.get("C0", 0.0)),
            q=tuple(float(v) for v in spec.get("q", ())),
        )
        return prob, None

    def build_scheme(self, bench: Benchmark | None = None,
                     grid: Grid | None = None) -> SchemeConfig:
        s = self.scheme
        eps = s.get("eps_deg")
        if eps is None and bench is not None and grid is not None:
            eps = bench.recommended_eps_deg(grid)
        kwargs = {
            "tol": float(s.get("tol_solve", 1e-8)),
            "max_iter": int(s.get("max_iter", 200000)),
            "scheme": s.get("scheme", "auto"),
        }
        if eps is not None:
            kwargs["eps_deg"] = float(eps)
        if s.get("dt") is not None:
            kwargs["dt_max"] = float(s["dt"])
        return SchemeConfig(**kwargs)

    def modulus_kwargs(self) -> dict:
        """The C / alpha0 / delta / K keyword arguments of build_modulus."""
        self.require("modulus")
        m = self.modulus
        return {
            "C": float(m.get("C", 1.0)),
            "alpha0": float(m.get("alpha0", 0.5)),
            "delta": float(m.get("delta", 0.125)),
            "K": int(m.get("K", 256)),
        }

    @property
    def levels(self) -> int:
        """Number of coarsenings of the solve cascade (0: fine grid only)."""
        return int(self.scheme.get("levels", 0))


def _check_keys(block: dict, allowed: set, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"config: block '{name}' must be an object")
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"config: unknown keys in '{name}': {sorted(extra)}")


def validate_config(data: dict) -> RunConfig:
    """Schema-check a parsed configuration dictionary."""
    _check_keys(data, _TOP_KEYS, "top level")

    problem = data.get("problem")
    if problem is not None:
        if not isinstance(problem, dict):
            raise ConfigError("config: 'problem' must be an object")
        if "benchmark" in problem:
            _check_keys(problem, _PROBLEM_BENCH_KEYS, "problem")
            if problem["benchmark"] not in BENCHMARK_NAMES:
                raise ConfigError(
                    f"config: unknown benchmark {problem['benchmark']!r}; "
                    f"available: {sorted(BENCHMARK_NAMES)}"
                )
        else:
            _check_keys(problem, _PROBLEM_EXPLICIT_KEYS, "problem")
            for req in ("operator", "sigma_plus", "sigma_minus"):
                if req not in problem:
                    raise ConfigError(f"config: problem block needs '{req}'")
            _check_keys(problem["operator"], _OPERATOR_KEYS, "problem.operator")

    grid = data.get("grid")
    if grid is not None:
        _check_keys(grid, _GRID_KEYS, "grid")
        for req in ("d", "n"):
            if req not in grid:
                raise ConfigError(f"config: grid block needs '{req}'")

    scheme = data.get("scheme", {})
    _check_keys(scheme, _SCHEME_KEYS, "scheme")

    modulus = data.get("modulus")
    if modulus is not None:
        _check_keys(modulus, _MODULUS_KEYS, "modulus")
        if int(modulus.get("K", 256)) < 1:
            raise ConfigError("config: modulus K must be at least 1")

    lab = data.get("lab")
    if lab is not None:
        _check_keys(lab, _LAB_KEYS, "lab")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config: 'out' must be a string path")

    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("config: 'seed' must be an integer")

    return RunConfig(
        problem=problem,
        grid=grid,
        scheme=dict(scheme),
        modulus=modulus,
        lab=lab,
        out=out,
        seed=seed,
        raw=data,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    return validate_config(data)
