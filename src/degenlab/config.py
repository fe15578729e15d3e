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
                  "levels": 3},         # or the ladder depth of grid.n
      "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256},
      "lab":     {"centers": [[0.0, 0.0]], "r": 0.5, "N": 6},
      "out":     "runs/demo"
    }

Benchmark params, required ones before any ";": affine (d = 2, b = [0.75]
* d, a = 0), radial-power (theta; d = 2), transmission-1d (theta1,
theta2; c = 1).  Law blocks by "family": power (p; t_max = 10), power-log
(p, q; t_max = 10), exponential-flat (t_max = 10), tabulated (points, a
list of [t, sigma(t)] pairs).  Bellman "coefficients" are a list of square
matrices, each a list of rows; modulus "K" is at least 2, the depth
whose tail can be certified.  A value that a law, a benchmark builder, the
operator, the modulus pipeline or the decay scan rejects (a DomainError)
is raised again with its block's key path in front, such as
"config.problem.sigma_minus: power: ..." or "config.lab: decay_scan: ...";
so is a "scheme" value that SchemeConfig rejects ("config.scheme: ...").

The benchmark form also fixes grid-independent defaults (exact boundary
data, forcing, recommended gradient clamp); explicit fields f and g must
be numbers in a config file (callables are API-only).  The grid's d fixes
the discretization (``solver.scheme_name``) and n its coarsening ladder
(``solver.cascade_sizes``); "scheme" and "levels" only check them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from .benchmarks import BENCHMARK_NAMES, Benchmark, exact_benchmark
from .elliptic import EllipticOperator, EllipticityPair
from .errors import ConfigError, DomainError
from .grids import Grid
from .laws import ExponentialFlatLaw, PowerLaw, PowerLogLaw, TabulatedLaw
from .problem import ProblemInstance
from .solver import SchemeConfig, cascade_sizes, scheme_name

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
    if not (integer or abs(value) <= sys.float_info.max):  # NaN, an infinity or too large
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if integer and not value < 2**63:
        raise ConfigError(f"{where} must fit in a 64-bit integer, got {value!r}")
    if not value >= least:
        raise ConfigError(f"{where} must be at least {least:g}, got {value!r}")
    return int(value) if integer else float(value)


_count = partial(_number, integer=True)
_real = partial(_number, least=-math.inf)


def _reals(value, where):
    """A flat list of numbers."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_real(v, where) for v in value]


def _rows(value, where, width=None):
    """A list of lists of numbers, each ``width`` long when given."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and width in (None, len(row)) for row in value)):
        rows = "coordinate lists" if width is None else f"lists of {width} numbers"
        raise ConfigError(f"{where} must be a list of {rows}, got {value!r}")
    return [tuple(_real(v, where) for v in row) for row in value]


def _matrices(value, where):
    """A list of square matrices, each a list of rows."""
    if not (isinstance(value, list) and all(isinstance(m, list) for m in value)):
        raise ConfigError(f"{where} must be a list of square matrices, got {value!r}")
    return [_rows(m, where, len(m)) for m in value]


def _name(value, where, names):
    if not (isinstance(value, str) and value in names):
        raise ConfigError(f"{where} must be one of {sorted(names)}, got {value!r}")
    return value


def _text(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _keep(value, where):  # checked where it is used
    return value


def _grid(value, where):
    out = _block(value, where, _GRID_KEYS, ("d", "n"))
    d, n = out["d"], out["n"]
    # sys.maxsize is numpy's largest index (np.intp); n > 1 and d >= 64 give
    # at least 2**64 nodes, and below that n**d is cheap to form
    if n > 1 and (d >= 64 or n ** d > sys.maxsize):
        raise ConfigError(f"{where}: n**d = {n}**{d} nodes do not fit in an array index")
    return out


def _law(value, where):
    """The law a block names by its "family", built from its other keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    law, schema, required = _LAWS[_name(value.get("family"), f"{where}.family", _LAWS)]
    params = {k: v for k, v in value.items() if k != "family"}
    with named(where):
        return law(**_block(params, where, schema, required))


@contextmanager
def named(where, error=DomainError):
    """Prefix ``where`` to a range error (``error``) raised on a block's
    values, here or in the command that uses them."""
    try:
        yield
    except error as exc:
        raise error(f"{where}: {exc}") from exc


def _problem(value, where):
    if not (isinstance(value, dict) and "benchmark" in value):
        required = ("operator", "sigma_plus", "sigma_minus")
        return _block(value, where, _PROBLEM_EXPLICIT_KEYS, required)
    name = _name(value["benchmark"], f"{where}.benchmark", BENCHMARK_NAMES)
    schema, required = _BENCHMARK_PARAMS[name]
    keys = {"benchmark": _text, "C0": _number,
            "params": partial(_block, schema=schema, required=required)}
    params = value.get("params")
    return _block({**value, "params": {} if params is None else params}, where, keys)


# _number takes a finite non-negative number, _count a non-negative 64-bit integer.
# family -> (law class, schema of its keys, required keys)
_LAWS = {
    "power": (PowerLaw, {"p": _number, "t_max": _number}, ("p",)),
    "power-log": (PowerLogLaw, {"p": _number, "q": _real, "t_max": _number}, ("p", "q")),
    "exponential-flat": (ExponentialFlatLaw, {"t_max": _number}, ()),
    "tabulated": (TabulatedLaw, {"points": partial(_rows, width=2)}, ("points",)),
}
# benchmark -> (schema of its params, required params): the builder's parameters
_BENCHMARK_PARAMS = {
    "affine": ({"d": _count, "b": _reals, "a": _real}, ()),
    "radial-power": ({"theta": _number, "d": _count}, ("theta",)),
    "transmission-1d": ({"theta1": _number, "theta2": _number, "c": _number},
                        ("theta1", "theta2")),
}
_OPERATOR_KEYS = {"kind": _keep, "lam": _number, "Lam": _number, "coefficients": _matrices}
_PROBLEM_EXPLICIT_KEYS = {
    "operator": partial(_block, schema=_OPERATOR_KEYS, required=("kind", "lam", "Lam")),
    "sigma_plus": _law, "sigma_minus": _law,
    "f": _real, "g": _real, "C0": _number, "q": _reals,
}
_GRID_KEYS = {"d": _count, "n": _count}
_SCHEME_KEYS = {"tol_solve": _number, "max_iter": _count, "eps_deg": _number,
                "scheme": _keep, "levels": _count}
_MODULUS_KEYS = {"C": _number, "alpha0": _number, "delta": _number,
                 "K": partial(_number, integer=True, least=2)}
_LAB_KEYS = {"centers": _rows, "r": _number, "N": _count}
_TOP_KEYS = {
    "problem": _problem,
    "grid": _grid,
    "scheme": partial(_block, schema=_SCHEME_KEYS),
    "modulus": partial(_block, schema=_MODULUS_KEYS),
    "lab": partial(_block, schema=_LAB_KEYS),
    "out": _text,
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
    # sha256 of the bytes load_config parsed; None from validate_config
    sha256: str | None = field(default=None, init=False, compare=False, repr=False)

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
            with named("config.problem.params"):
                bench = exact_benchmark(spec["benchmark"], spec["params"])
            if self.grid is not None and self.grid["d"] != bench.d:
                raise ConfigError(f"config.problem: benchmark {bench.name} is {bench.d}-d, "
                                  f"but config.grid.d is {self.grid['d']}")
            prob = bench.problem
            if "C0" in spec:
                prob = dataclasses.replace(prob, C0=spec["C0"])
            return prob, bench
        op = spec["operator"]
        with named("config.problem.operator"):
            operator = EllipticOperator(
                kind=op["kind"],
                pair=EllipticityPair(lam=op["lam"], Lam=op["Lam"]),
                coefficients=tuple(op.get("coefficients", ())),
            )
        prob = ProblemInstance(
            operator=operator,
            sigma_plus=spec["sigma_plus"],
            sigma_minus=spec["sigma_minus"],
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
        depth = len(cascade_sizes(grid.n)) - 1
        if s.get("levels", depth) != depth:
            raise ConfigError(f"config.scheme.levels is {s['levels']}, but the n={grid.n} "
                              f"grid gets {depth}; omit it or use {depth}")
        kwargs = {arg: s[key] for key, arg in (
            ("tol_solve", "tol"), ("max_iter", "max_iter"), ("eps_deg", "eps_deg"),
        ) if key in s}
        if "eps_deg" not in kwargs and bench is not None:
            kwargs["eps_deg"] = float(bench.recommended_eps_deg(grid))
        with named("config.scheme", ConfigError):
            return SchemeConfig(**kwargs)

    def modulus_kwargs(self) -> dict:
        """The C / alpha0 / delta / K keyword arguments of build_modulus."""
        self.require("modulus")
        return {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256, **self.modulus}


def validate_config(data: dict) -> RunConfig:
    """Schema-check a parsed configuration dictionary and convert its values."""
    return RunConfig(**_block(data, "config", _TOP_KEYS))


def load_config(path: str) -> RunConfig:
    """Read a JSON configuration file once; validate it and digest those bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    cfg = validate_config(data)
    object.__setattr__(cfg, "sha256", hashlib.sha256(raw).hexdigest())
    return cfg
