"""Run configuration: one JSON file drives every command.

Schema (all blocks optional; each command checks for the blocks it
needs and rejects unknown keys everywhere; null stands for the default):

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
      "scheme":  {"tol_solve": 1e-6, "max_iter": 1000, "eps_deg": 1e-4,
                  "scheme": "auto",     # or the name of the one it picks
                  "levels": 0},         # coarsenings below grid.n
      "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256},
      "lab":     {"centers": [[0.0, 0.0]], "r": 0.5, "N": 6},
      "out":     "runs/demo",
      "seed":    0
    }

The benchmark form also fixes grid-independent defaults (exact boundary
data, forcing, recommended gradient clamp); explicit fields f and g must
be numbers in a config file (callables are API-only).  The problem fixes
its discretization (``solver.scheme_name``); "scheme" only checks it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import partial

from .benchmarks import BENCHMARK_NAMES, Benchmark, exact_benchmark
from .elliptic import EllipticOperator, EllipticityPair
from .errors import ConfigError
from .grids import Grid
from .laws import law_from_config
from .problem import ProblemInstance
from .solver import SchemeConfig, scheme_name

# Every value is converted once, by validate_config: each key of a block
# names its conversion, and a malformed value is a one-line ConfigError.


def _block(block, where: str, schema: dict, required=()) -> dict:
    """``block`` without its null values, the others converted by ``schema``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    extra = set(block) - set(schema)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    out = {k: schema[k](v, f"{where}.{k}") for k, v in block.items() if v is not None}
    for req in required:
        if req not in out:
            raise ConfigError(f"{where} needs '{req}'")
    return out


def _number(value, where: str, integer: bool = False, least: float = 0.0):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if not value >= least:
        raise ConfigError(f"{where} must be at least {least:g}, got {value!r}")
    return int(value) if integer else float(value)


_count = partial(_number, integer=True)
_real = partial(_number, least=-math.inf)


def _reals(value, where):
    """A list of numbers or of such lists (checked, not converted)."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    for v in value:
        (_reals if isinstance(v, list) else _real)(v, where)
    return value


def _points(value, where):
    if not (isinstance(value, list) and all(isinstance(p, list) for p in value)):
        raise ConfigError(f"{where} must be a list of coordinate lists, got {value!r}")
    return [tuple(_real(v, where) for v in p) for p in value]


def _params(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    _reals(list(value.values()), where)  # each benchmark converts its own
    return value


def _benchmark(value, where):
    if value not in BENCHMARK_NAMES:
        raise ConfigError(f"{where}: unknown benchmark {value!r}; "
                          f"available: {sorted(BENCHMARK_NAMES)}")
    return value


def _text(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _keep(value, where):  # checked where it is used
    return value


def _problem(value, where):
    if isinstance(value, dict) and "benchmark" in value:
        return _block(value, where, _PROBLEM_BENCH_KEYS, ("benchmark",))
    required = ("operator", "sigma_plus", "sigma_minus")
    return _block(value, where, _PROBLEM_EXPLICIT_KEYS, required)


# _number takes a non-negative number, _count a non-negative integer.
_OPERATOR_KEYS = {"kind": _keep, "lam": _number, "Lam": _number, "coefficients": _reals}
_PROBLEM_BENCH_KEYS = {"benchmark": _benchmark, "params": _params, "C0": _number}
_PROBLEM_EXPLICIT_KEYS = {
    "operator": partial(_block, schema=_OPERATOR_KEYS, required=("kind", "lam", "Lam")),
    "sigma_plus": _keep, "sigma_minus": _keep,
    "f": _real, "g": _real, "C0": _number, "q": _reals,
}
_GRID_KEYS = {"d": _count, "n": _count}
_SCHEME_KEYS = {"tol_solve": _number, "max_iter": _count, "eps_deg": _number,
                "scheme": _keep, "levels": _count}
_MODULUS_KEYS = {"C": _number, "alpha0": _number, "delta": _number,
                 "K": partial(_number, integer=True, least=1)}
_LAB_KEYS = {"centers": _points, "r": _number, "N": _count}
_TOP_KEYS = {
    "problem": _problem,
    "grid": partial(_block, schema=_GRID_KEYS, required=("d", "n")),
    "scheme": partial(_block, schema=_SCHEME_KEYS),
    "modulus": partial(_block, schema=_MODULUS_KEYS),
    "lab": partial(_block, schema=_LAB_KEYS),
    "out": _text,
    "seed": partial(_number, integer=True, least=-math.inf),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one run configuration file."""

    problem: dict | None = None
    grid: dict | None = None
    scheme: dict = field(default_factory=dict)
    modulus: dict | None = None
    lab: dict | None = None
    out: str | None = None
    seed: int = 0

    def require(self, *blocks: str) -> None:
        for b in blocks:
            if getattr(self, b) is None:
                raise ConfigError(f"config: missing required block '{b}'")

    # ---- materialization -------------------------------------------------

    def build_grid(self) -> Grid:
        self.require("grid")
        return Grid(d=self.grid["d"], n=self.grid["n"])

    def build_problem(self) -> tuple[ProblemInstance, Benchmark | None]:
        """(instance, benchmark-or-None)."""
        self.require("problem")
        spec = self.problem
        if "benchmark" in spec:
            try:
                bench = exact_benchmark(spec["benchmark"], spec.get("params", {}))
            except KeyError as exc:
                raise ConfigError(f"config.problem.params needs {exc}") from None
            prob = bench.problem
            if "C0" in spec:
                prob = dataclasses.replace(prob, C0=spec["C0"])
            return prob, bench
        op = spec["operator"]
        operator = EllipticOperator(
            kind=op["kind"],
            pair=EllipticityPair(lam=op["lam"], Lam=op["Lam"]),
            coefficients=tuple(op.get("coefficients", ())),
        )
        prob = ProblemInstance(
            operator=operator,
            sigma_plus=law_from_config(spec["sigma_plus"]),
            sigma_minus=law_from_config(spec["sigma_minus"]),
            f=spec.get("f", 0.0),
            g=spec.get("g", 0.0),
            C0=spec.get("C0", 0.0),
            q=tuple(spec.get("q", ())),
        )
        return prob, None

    def build_scheme(self, prob: ProblemInstance, grid: Grid,
                     bench: Benchmark | None = None) -> SchemeConfig:
        """SchemeConfig of the keys present; a benchmark recommends eps_deg."""
        s = self.scheme
        fixed = scheme_name(prob, grid)
        if s.get("scheme", "auto") not in ("auto", fixed):
            raise ConfigError(f"config.scheme.scheme is {s['scheme']!r}, but this "
                              f"problem gets {fixed!r}; use 'auto' or {fixed!r}")
        kwargs = {arg: s[key] for key, arg in (
            ("tol_solve", "tol"), ("max_iter", "max_iter"), ("eps_deg", "eps_deg"),
        ) if key in s}
        if "eps_deg" not in kwargs and bench is not None:
            kwargs["eps_deg"] = float(bench.recommended_eps_deg(grid))
        return SchemeConfig(**kwargs)

    def modulus_kwargs(self) -> dict:
        """The C / alpha0 / delta / K keyword arguments of build_modulus."""
        self.require("modulus")
        return {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256, **self.modulus}

    @property
    def levels(self) -> int:
        """Number of coarsenings of the solve cascade (0: fine grid only)."""
        return self.scheme.get("levels", 0)


def validate_config(data: dict) -> RunConfig:
    """Schema-check a parsed configuration dictionary and convert its values."""
    return RunConfig(**_block(data, "config", _TOP_KEYS))


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
