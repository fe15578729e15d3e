"""Command-line front end: batch runs with reproducible file outputs.

Subcommands
-----------
solve          solve the configured problem; writes field.csv and
               solve_diagnostics.json
certify        check both viscosity inequalities on a stored field;
               writes certificates.json
build-modulus  run the modulus pipeline; writes sequence_table.csv and
               modulus.json (--eval T also prints omega(T))
measure        affine-excess decay of a stored field (+ comparison with
               the configured modulus); writes decay_profile.csv,
               gradient_pairs.csv and comparison.json
report         bundle every JSON artifact in the output directory into
               summary.json

Exit codes: 0 success, 1 configuration/IO or usage error, 2 solver
non-convergence, 3 certificate failure, 4 modulus tail uncertifiable.
``main`` owns the run: every command computes before it writes, and the
output directory is made by the first file written into it, so an exit 1
writes nothing, not even the directory.  Exits 0, 2, 3 and 4 record the
command in manifest.json.  A typed error prints one ``error:`` line.

manifest.json keeps one entry per command that ran into the directory:
config digest, seed, wall times per stage and a sha256 inventory of the
files the command emitted; rerunning a command replaces its entry.  All
other outputs are byte-deterministic for a fixed config and seed; floats are
written with 17 significant digits (JSON encodes non-finite values as
the strings "inf", "-inf", "nan").
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .certifier import certify_max, certify_min
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    DegenlabError,
    SolverDivergenceError,
    UncertifiableTailError,
)
from .grids import DiscreteField, Grid
from .lab import compare_modulus, decay_scan
from .modulus import build_modulus
# ``solve`` is bound here although the commands call only ``solve_cascade``:
# bench/spans.py times the solver by wrapping degenlab.cli.solve.
from .solver import solve, solve_cascade  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CERTIFICATE = 3
EXIT_TAIL = 4


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _ser(obj, indent: int = 0) -> str:
    """JSON text with fixed float formatting (17 significant digits)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_ser(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_ser(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_ser(obj) + "\n", encoding="utf-8")


def _cell(v) -> str:
    return f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Run:
    """Output directory plus stage timings, flushed into manifest.json.

    The directory is made when the first file is written into it.
    """

    def __init__(self, cfg: RunConfig, args):
        out = args.out or cfg.out
        if not out:
            raise ConfigError("config: no output directory ('out' key or --out)")
        self.dir = Path(out)
        self.command = args.command
        self.seed = cfg.seed
        self.config_digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
        self.times: dict = {}
        self.files: list = []

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0

    def _path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

    def emit_json(self, name: str, obj) -> None:
        _write_json(self._path(name), obj)
        self.files.append(name)

    def emit_csv(self, name: str, header, rows) -> None:
        _write_csv(self._path(name), header, rows)
        self.files.append(name)

    def finish(self) -> None:
        path = self._path("manifest.json")
        try:
            commands = json.loads(path.read_text(encoding="utf-8"))["commands"]
        except (OSError, ValueError, KeyError, TypeError):
            commands = {}  # none yet, or not one of ours: start afresh
        commands[self.command] = {
            "config_sha256": self.config_digest,
            "seed": self.seed,
            "wall_times_s": self.times,
            "files": {name: _sha256(self.dir / name) for name in sorted(self.files)},
        }
        _write_json(path, {
            "schema": "degenlab-manifest-v2",
            "package_version": __version__,
            "commands": commands,
        })


# ---------------------------------------------------------------------------
# field files


def write_field(run: _Run, name: str, u: DiscreteField) -> None:
    grid = u.grid
    columns = [c.ravel() for c in (*grid.meshgrid(), u.values)]
    run.emit_csv(name, ("x", "y")[: grid.d] + ("u",), zip(*columns))


def read_field(path: str, grid: Grid) -> DiscreteField:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"field: cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"field: {path} is empty")
    header = lines[0].split(",")
    d = len(header) - 1
    if d != grid.d:
        raise ConfigError(f"field: {path} is {d}-dimensional, config grid is {grid.d}")
    try:
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise ConfigError(f"field: {path} has a malformed row: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"field: {path} holds a non-finite value")
    if data.shape[0] != grid.n**grid.d:
        raise ConfigError(
            f"field: {path} holds {data.shape[0]} nodes, grid wants {grid.n**grid.d}"
        )
    # sanity: every coordinate column must match the grid
    for k, expect in enumerate(grid.meshgrid()):
        if not np.allclose(data[:, k].reshape(grid.shape), expect, atol=1e-10):
            raise ConfigError(f"field: {path} coordinates do not match the config grid")
    return DiscreteField(grid=grid, values=data[:, -1].reshape(grid.shape))


# ---------------------------------------------------------------------------
# report fragments


def _diag_json(diag) -> dict:
    return {"schema": "degenlab-solve-diagnostics-v2", **dataclasses.asdict(diag)}


def _cert_json(rep) -> dict:
    w = rep.witness
    return {
        "side": rep.side,
        "passed": rep.passed,
        "checked_nodes": rep.checked_nodes,
        "tested_candidates": rep.tested_candidates,
        "max_violation": rep.max_violation,
        "eta_cert": rep.eta_cert,
        "eta_touch": rep.eta_touch,
        "sigma_saturated": rep.sigma_saturated,
        "witness": None if w is None else {
            "center": list(w.center),
            "rho_test": w.rho_test,
            "p": list(w.p),
            "M": list(w.M.upper),
            "side": w.side,
        },
        "violation_count": rep.violation_count,
        "untouched_nodes": rep.untouched_nodes,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig, args, run: _Run) -> int:
    grid = cfg.build_grid()
    prob, bench = cfg.build_problem()
    scheme = cfg.build_scheme(prob, grid, bench)
    try:
        with run.stage("solve"):
            u, diag = solve_cascade(prob, grid, scheme, levels=cfg.levels)
    except SolverDivergenceError as exc:
        if exc.diagnostics is not None:
            run.emit_json("solve_diagnostics.json", _diag_json(exc.diagnostics))
        raise
    bench_error = None
    if bench is not None:
        exact = bench.exact_on(grid)
        sup = float(np.max(np.abs(u.values - exact)))
        scale = float(np.max(np.abs(exact))) or 1.0
        bench_error = {"benchmark": bench.name, "sup_error": sup,
                       "relative_sup_error": sup / scale}
    with run.stage("write"):
        write_field(run, "field.csv", u)
        run.emit_json("solve_diagnostics.json", _diag_json(diag))
        if bench_error is not None:
            run.emit_json("benchmark_error.json", bench_error)
    if diag.converged:
        return EXIT_OK
    print(f"solve: not converged after {diag.iterations} iterations "
          f"(residual {diag.final_residual:.3e})", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_certify(cfg: RunConfig, args, run: _Run) -> int:
    if not args.field:
        raise ConfigError("certify: --field PATH is required")
    grid = cfg.build_grid()
    prob, _ = cfg.build_problem()
    u = read_field(args.field, grid)
    with run.stage("certify"):
        rep_min = certify_min(u, prob)
        rep_max = certify_max(u, prob)
    passed = rep_min.passed and rep_max.passed
    run.emit_json(
        "certificates.json",
        {
            "schema": "degenlab-certificates-v2",
            "C0": prob.C0,
            "min_inequality": _cert_json(rep_min),
            "max_inequality": _cert_json(rep_max),
            "passed": passed,
        },
    )
    if not passed:
        worst = max(rep_min.max_violation, rep_max.max_violation)
        print(f"certify: failed (worst violation {worst:.6g})", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_build_modulus(cfg: RunConfig, args, run: _Run) -> int:
    prob, _ = cfg.build_problem()
    with run.stage("build-modulus"):
        schedule, table, omega = build_modulus(
            prob.sigma_plus, prob.sigma_minus, **cfg.modulus_kwargs()
        )
    if args.eval is not None:  # a T outside [0, 1] is an exit 1: before any write
        print(f"{omega(float(args.eval)):.17g}")
    run.emit_csv(
        "sequence_table.csv",
        ("k", "a_k", "c_k", "mu1_k", "mu2_k", "mu_star_k", "tau_k"),
        table.rows(),
    )
    run.emit_json(
        "modulus.json",
        {
            "schema": "degenlab-modulus-v1",
            "r": omega.r,
            "K": omega.K,
            "theta": schedule.theta,
            "mu1": schedule.mu1,
            "C": schedule.C,
            "alpha0": schedule.alpha0,
            "tail_bound": omega.tail_bound,
            "tau": list(omega.tau),
        },
    )
    return EXIT_OK


def cmd_measure(cfg: RunConfig, args, run: _Run) -> int:
    cfg.require("lab")
    if not args.field:
        raise ConfigError("measure: --field PATH is required")
    grid = cfg.build_grid()
    u = read_field(args.field, grid)
    lab = cfg.lab
    centers = lab.get("centers", [(0.0,) * grid.d])
    if any(len(center) != grid.d for center in centers):
        raise ConfigError(f"config.lab.centers must be points of the {grid.d}-d grid")
    r, N = lab.get("r", 0.5), lab.get("N", 6)
    omega = None
    omega_error = None
    if cfg.modulus is not None and cfg.problem is not None:
        prob, _ = cfg.build_problem()
        try:
            _, _, omega = build_modulus(
                prob.sigma_plus, prob.sigma_minus, **cfg.modulus_kwargs()
            )
        except UncertifiableTailError as exc:
            omega_error = str(exc)

    with run.stage("measure"):
        profiles = [decay_scan(u, center, r, N) for center in centers]

    rows = [(*c, *row) for c, prof in zip(centers, profiles) for row in prof.rows()]
    pair_rows = [(*c, *pair) for c, prof in zip(centers, profiles)
                 for pair in prof.gradient_pairs]
    comparison: dict = {"schema": "degenlab-comparison-v1", "centers": []}
    for center, prof in zip(centers, profiles):
        entry = {
            "center": list(center),
            "scales": list(prof.scales),
            "rates": list(prof.rates),
            "slope": prof.slope,
            "intercept": prof.intercept,
            "clean_affine": prof.clean_affine,
            "truncated": prof.truncated,
        }
        if omega is not None:
            cmp_rep = compare_modulus(prof, omega)
            entry["comparison"] = {
                "C_star": cmp_rep.C_star,
                "spread": cmp_rep.spread,
                "ratios": list(cmp_rep.ratios),
            }
        elif omega_error is not None:
            entry["comparison"] = {"error": omega_error}
        comparison["centers"].append(entry)

    coord_cols = tuple(f"{c}0" for c in ("x", "y")[: grid.d])
    run.emit_csv("decay_profile.csv", (*coord_cols, "scale", "excess", "rate"), rows)
    run.emit_csv("gradient_pairs.csv", (*coord_cols, "distance", "grad_diff"), pair_rows)
    run.emit_json("comparison.json", comparison)
    return EXIT_OK


def cmd_report(cfg: RunConfig, args, run: _Run) -> int:
    pieces = {}
    for path in sorted(run.dir.glob("*.json")):
        if path.name in ("summary.json", "manifest.json"):
            continue
        try:
            pieces[path.name] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report: {path} is not valid JSON: {exc}") from exc
    if not pieces:
        raise ConfigError(f"report: no JSON artifacts in {run.dir}")
    run.emit_json(
        "summary.json",
        {"schema": "degenlab-summary-v1", "artifacts": pieces},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are ConfigErrors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="degenlab",
        description="numerical laboratory for a degenerate free transmission problem",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("certify", cmd_certify),
        ("build-modulus", cmd_build_modulus),
        ("measure", cmd_measure),
        ("report", cmd_report),
    ):
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="path to the JSON run config")
        q.add_argument("--field", help="path to a stored field.csv")
        q.add_argument("--out", help="output directory (overrides config)")
        q.add_argument("--seed", type=int, help="seed recorded in the manifest")
        if name == "build-modulus":
            q.add_argument("--eval", type=float, help="also print omega(T)")
        q.set_defaults(fn=fn)
    return p


# The first entry that matches an error's type gives its exit code.
_EXIT_CODES = (
    (SolverDivergenceError, EXIT_DIVERGED),
    (UncertifiableTailError, EXIT_TAIL),
    (DegenlabError, EXIT_CONFIG),
)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        run = _Run(cfg, args)
        code = args.fn(cfg, args, run)
    except DegenlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = next(c for kind, c in _EXIT_CODES if isinstance(exc, kind))
    if code != EXIT_CONFIG:
        run.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
