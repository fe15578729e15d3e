"""Command-line front end: batch runs with reproducible file outputs.

Subcommands
-----------
solve          solve the configured problem; writes field.csv and
               solve_diagnostics.json
certify        check both viscosity inequalities on the field stored at
               --field, both sides from one certifier state; writes
               certificates.json
build-modulus  run the modulus pipeline; writes sequence_table.csv and
               modulus.json (--eval T also prints omega(T))
measure        affine-excess decay of the field stored at --field around
               each center (+ comparison with the configured modulus); writes
               decay_profile.csv, comparison.json and gradient_pairs.csv,
               the field's one gradient-increment cloud.  The modulus is
               read back from modulus.json when the manifest's
               build-modulus entry has this config's digest and that
               file's current digest; otherwise it is built
report         bundle every JSON artifact in the output directory into
               summary.json

Every subcommand takes --config and --out (which overrides the config's
"out") and only the flags it reads; any other flag is a usage error.

Exit codes: 0 success, 1 configuration/IO or usage error, 2 solver
non-convergence, 3 certificate failure, 4 modulus tail uncertifiable.
``main`` owns the run: every command computes before it writes, and the
output directory is made by the first file written into it, so an exit 1
writes nothing, not even the directory.  Exits 0, 2, 3 and 4 record the
command in manifest.json.  A typed error prints one ``error:`` line, and
so does a failed write into the output directory (exit 1; when only
manifest.json cannot be written, the command's other files stay).

manifest.json keeps one entry per command that ran into the directory:
config digest, wall times per stage, counters (solve: iterations,
linear solves (factorizations), rejected steps, steps taken with a kept
factorization (solver.reused_steps), residual evaluations and warm
starts that missed and restarted a level on the cold path
(solver.cold_restarts), summed over the cascade levels, when the cascade
returns; certify: the window scans of both sides;
build-modulus: hold/root/cap steps per law and the root search's calls
of each law, also on exit 4; measure: minimax fits, the
fits whose duality gap is too wide to certify, the exchange steps of
all fits and whether the modulus was read back) and a sha256 inventory
of the files the command emitted, both of the bytes parsed or written
(nothing is read back to be digested); rerunning a command replaces its entry.
A manifest of another schema or package version, or one that is not
JSON or whose ``commands`` is not an object, is not ours: the next
command starts it afresh, and measure does not trust it.
All other outputs are byte-deterministic for fixed config and input files;
floats are written with 17 significant digits (JSON encodes non-finite
values as the strings "inf", "-inf", "nan").  Field and CSV files move
between disk and arrays a whole column at a time; a CSV column that
repeats its values (the grid axes, a symmetric field) has each distinct
value formatted once, with the bytes of formatting every cell.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .certifier import BothSides, certify_max, certify_min
from .config import RunConfig, load_config, named
from .errors import (
    ConfigError,
    DegenlabError,
    SolverDivergenceError,
    UncertifiableTailError,
)
from .grids import DiscreteField, Grid
from .lab import compare_modulus, decay_scan, gradient_pairs
from .modulus import Modulus, build_modulus
# ``solve`` is bound here although the commands call only ``solve_cascade``:
# bench/spans.py times the solver by wrapping degenlab.cli.solve.
from .solver import WORK_COUNTERS, solve, solve_cascade  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CERTIFICATE = 3
EXIT_TAIL = 4


# ---------------------------------------------------------------------------
# deterministic serialization


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str


def _ser(obj, indent: int = 0) -> str:
    """JSON text with fixed float formatting (17 significant digits).

    One pass that appends every piece to one list.  A list or tuple of
    plain floats is joined in one go; the other values are written one at
    a time.
    """
    parts: list = []
    _ser_into(obj, "\n" + "  " * indent, parts)
    return "".join(parts)


def _ser_into(obj, nl: str, parts: list) -> None:
    """Append obj's JSON text to parts; ``nl`` is a newline and obj's indent."""
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        sep = "{" + inner
        for k, v in obj.items():
            parts += (sep, _quote(str(k)), ": ")
            _ser_into(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        if set(map(type, obj)) == {float}:
            run = ("," + inner).join(map("%.17g".__mod__, obj))
            if "n" not in run:  # every float finite: no "inf" or "nan"
                parts += ("[", inner, run, nl, "]")
                return
        sep = "[" + inner
        for v in obj:
            parts.append(sep)
            _ser_into(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):  # non-finite: the string "nan", "inf", "-inf"
        parts.append(f"{obj:.17g}" if math.isfinite(obj) else _quote(str(float(obj))))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> bytes:
    """Write obj's JSON text; the bytes written."""
    data = (_ser(obj) + "\n").encode("utf-8")
    path.write_bytes(data)
    return data


def _write_csv(path: Path, header, columns) -> bytes:
    """Equal-length columns, ``%d`` for an integer column and ``%.17g`` for
    the rest, formatted by one ``%`` on the row template repeated per row.

    A column with at most half as many distinct values as rows has each
    distinct value formatted once and placed by ``np.unique``'s inverse as
    a ``%s`` cell.  Values are told apart by their bits (a float column is
    keyed by its int64 view), so -0.0 and 0.0 stay apart and the bytes are
    those of formatting every cell.  Returns the bytes written.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    cells = np.empty((rows, len(columns)), dtype=object)
    slots = []
    for j, c in enumerate(columns):
        if c.dtype.kind in "iu":
            fmt, key = "%d", c
        else:
            c = c.astype(np.float64, copy=False)
            fmt, key = "%.17g", c.view(np.int64)
        distinct, where = np.unique(key, return_inverse=True)
        if 2 * distinct.size <= rows:
            texts = [fmt % v for v in distinct.view(c.dtype).tolist()]
            cells[:, j] = np.array(texts, dtype=object)[where]
            fmt = "%s"
        else:
            cells[:, j] = c
        slots.append(fmt)
    body = ((",".join(slots) + "\n") * rows) % tuple(cells.ravel().tolist())
    data = (",".join(header) + "\n" + body).encode("utf-8")
    path.write_bytes(data)
    return data


_MANIFEST_SCHEMA = "degenlab-manifest-v3"


class _Run:
    """Output directory plus stage timings and counters, flushed into manifest.json.

    The directory is made when the first file is written into it.
    """

    def __init__(self, cfg: RunConfig, args):
        out = args.out or cfg.out
        if not out:
            raise ConfigError("config: no output directory ('out' key or --out)")
        self.dir = Path(out)
        self.command = args.command
        self.config_digest = cfg.sha256
        self.times: dict = {}
        self.counters: dict = {}
        self.files: dict = {}  # name -> sha256 of the bytes written

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0

    def _write(self, name: str, write, *args) -> bytes:
        """write(path, *args) for the file ``name``; an OSError is a ConfigError."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            return write(self.dir / name, *args)
        except OSError as exc:
            raise ConfigError(f"out: cannot write {name} into {self.dir}: {exc}") from exc

    def emit_json(self, name: str, obj) -> None:
        data = self._write(name, _write_json, obj)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def emit_csv(self, name: str, header, columns) -> None:
        data = self._write(name, _write_csv, header, columns)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def commands(self) -> dict:
        """The command entries of the directory's manifest.

        Empty when there is none of ours yet: no file, or one that is not
        JSON, has another schema or package version, or whose ``commands``
        is not an object.
        """
        try:
            doc = json.loads((self.dir / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not (isinstance(doc, dict) and doc.get("schema") == _MANIFEST_SCHEMA
                and doc.get("package_version") == __version__
                and isinstance(doc.get("commands"), dict)):
            return {}
        return doc["commands"]

    def finish(self) -> None:
        commands = self.commands()
        commands[self.command] = {
            "config_sha256": self.config_digest,
            "wall_times_s": self.times,
            "counters": self.counters,
            "files": dict(sorted(self.files.items())),
        }
        self._write("manifest.json", _write_json, {
            "schema": _MANIFEST_SCHEMA,
            "package_version": __version__,
            "commands": commands,
        })


# ---------------------------------------------------------------------------
# field files


def write_field(run: _Run, name: str, u: DiscreteField) -> None:
    grid = u.grid
    run.emit_csv(name, ("x", "y")[: grid.d] + ("u",),
                 [c.ravel() for c in (*grid.meshgrid(), u.values)])


def read_field(path: str, grid: Grid) -> DiscreteField:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"field: cannot read {path}: {exc}") from exc
    # loadtxt rejects whitespace-only lines, so every blank line goes here
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"field: {path} is empty")
    d = lines[0].count(",")
    if d != grid.d:
        raise ConfigError(f"field: {path} is {d}-dimensional, config grid is {grid.d}")
    if len(lines) - 1 != grid.n**grid.d:  # before loadtxt, which warns on no rows
        raise ConfigError(
            f"field: {path} holds {len(lines) - 1} nodes, grid wants {grid.n**grid.d}"
        )
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != d + 1:  # loadtxt rejects ragged rows, not a wrong width
            raise ValueError(f"{data.shape[1]} columns under a {d + 1}-column header")
    except ValueError as exc:
        raise ConfigError(f"field: {path} has a malformed row: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"field: {path} holds a non-finite value")
    nodes = np.stack([c.ravel() for c in grid.meshgrid()], axis=1)
    if not np.allclose(data[:, :-1], nodes, rtol=0.0, atol=1e-10):  # every coordinate column
        raise ConfigError(f"field: {path} coordinates do not match the config grid")
    return DiscreteField(grid=grid, values=data[:, -1].reshape(grid.shape))


# ---------------------------------------------------------------------------
# report fragments


def _diag_json(diag) -> dict:
    out = dataclasses.asdict(diag)
    for key in WORK_COUNTERS:  # they go to the manifest
        del out[key]
    return {"schema": "degenlab-solve-diagnostics-v2", **out}


def _cert_json(rep) -> dict:
    out = dataclasses.asdict(rep)
    del out["window_scans"]  # a work counter; it goes to the manifest
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig, args, run: _Run) -> int:
    grid = cfg.build_grid()
    prob, bench = cfg.build_problem()
    scheme = cfg.build_scheme(prob, grid, bench)
    try:
        with run.stage("solve"):
            u, diag = solve_cascade(prob, grid, scheme)
    except SolverDivergenceError as exc:
        if exc.diagnostics is not None:
            run.emit_json("solve_diagnostics.json", _diag_json(exc.diagnostics))
        raise
    for key in ("iterations", "linear_solves", "rejected_steps"):
        run.counters[f"solver.{key}"] = sum(level[key] for level in diag.levels)
    for key in WORK_COUNTERS:
        run.counters[f"solver.{key}"] = getattr(diag, key)
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
    grid = cfg.build_grid()
    prob, _ = cfg.build_problem()
    u = read_field(args.field, grid)
    with run.stage("certify"):
        both = BothSides(u)  # certify_min builds the state that certify_max reuses
        rep_min = certify_min(both, prob)
        rep_max = certify_max(both, prob)
    run.counters["certifier.window_scans"] = rep_min.window_scans + rep_max.window_scans
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


def _count_recursion(run: _Run, table) -> None:
    run.counters["modulus.branches"] = table.branch_counts()
    run.counters["modulus.root_evaluations"] = table.root_evaluations


def cmd_build_modulus(cfg: RunConfig, args, run: _Run) -> int:
    prob, _ = cfg.build_problem()
    try:
        with run.stage("build-modulus"), named("config.modulus"):
            schedule, table, omega = build_modulus(
                prob.sigma_plus, prob.sigma_minus, **cfg.modulus_kwargs()
            )
    except UncertifiableTailError as exc:
        if exc.table is not None:  # the recursion ran: its caps explain the exit
            _count_recursion(run, exc.table)
        raise
    _count_recursion(run, table)
    if args.eval is not None:  # a T outside [0, 1] is an exit 1: before any write
        print(f"{omega(float(args.eval)):.17g}")
    run.emit_csv(
        "sequence_table.csv",
        ("k", "a_k", "c_k", "mu1_k", "mu2_k", "mu_star_k", "tau_k"),
        table.columns(),
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
    grid = cfg.build_grid()
    u = read_field(args.field, grid)
    lab = cfg.lab
    centers = lab.get("centers", [(0.0,) * grid.d])
    if any(len(center) != grid.d for center in centers):
        raise ConfigError(f"config.lab.centers must be points of the {grid.d}-d grid")
    r, N = lab.get("r", 0.5), lab.get("N", 6)
    configured = cfg.modulus is not None and cfg.problem is not None
    omega = _written_modulus(run) if configured else None
    run.counters["modulus.loaded"] = int(omega is not None)
    omega_error = None
    if configured and omega is None:
        prob, _ = cfg.build_problem()
        try:
            with named("config.modulus"):
                _, _, omega = build_modulus(
                    prob.sigma_plus, prob.sigma_minus, **cfg.modulus_kwargs()
                )
        except UncertifiableTailError as exc:
            omega_error = str(exc)

    with run.stage("measure"):
        with named("config.lab"):
            profiles = [decay_scan(u, center, r, N) for center in centers]
        cloud = gradient_pairs(u)  # one cloud: it does not depend on the center
    run.counters["lab.fits"] = sum(len(prof.scales) for prof in profiles)
    run.counters["lab.uncertified_fits"] = sum(prof.uncertified for prof in profiles)
    run.counters["lab.exchange_steps"] = sum(prof.exchange_steps for prof in profiles)

    rows = np.array([(*c, *row) for c, prof in zip(centers, profiles) for row in prof.rows()],
                    dtype=float).reshape(-1, grid.d + 3)
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
    run.emit_csv("decay_profile.csv", (*coord_cols, "scale", "excess", "rate"), rows.T)
    run.emit_csv("gradient_pairs.csv", ("distance", "grad_diff"), cloud.T)
    run.emit_json("comparison.json", comparison)
    return EXIT_OK


def _written_modulus(run: _Run) -> Modulus | None:
    """The modulus that build-modulus wrote into the output directory from
    the same config file, or None unless the manifest vouches for it.

    The manifest must hold this package version's build-modulus entry with
    this config's digest and the digest of modulus.json as it is now.  The
    file's floats have 17 significant digits, so omega is the built one bit
    for bit.
    """
    entry = run.commands().get("build-modulus")
    try:
        if entry["config_sha256"] != run.config_digest:
            return None
        data = (run.dir / "modulus.json").read_bytes()
        if entry["files"]["modulus.json"] != hashlib.sha256(data).hexdigest():
            return None  # edited since it was written
        doc = json.loads(data)
        return Modulus(r=float(doc["r"]), K=int(doc["K"]),
                       tau=tuple(float(t) for t in doc["tau"]),
                       tail_bound=float(doc["tail_bound"]))
    except (OSError, ValueError, KeyError, TypeError, DegenlabError):
        # no entry, an exit-4 entry that lists no modulus.json, no file, or
        # not the shape build-modulus writes
        return None


def cmd_report(cfg: RunConfig, args, run: _Run) -> int:
    pieces = {}
    for path in sorted(run.dir.glob("*.json")):
        if path.name in ("summary.json", "manifest.json"):
            continue
        try:
            pieces[path.name] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"report: cannot read {path} as JSON: {exc}") from exc
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="degenlab",
        description="numerical laboratory for a degenerate free transmission problem",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for fn in (cmd_solve, cmd_certify, cmd_build_modulus, cmd_measure, cmd_report):
        name = fn.__name__.removeprefix("cmd_").replace("_", "-")
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="path to the JSON run config")
        q.add_argument("--out", help="output directory (overrides config)")
        if name in ("certify", "measure"):
            q.add_argument("--field", required=True, help="path to a stored field.csv")
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
        run = _Run(cfg, args)
        code = args.fn(cfg, args, run)
    except DegenlabError as exc:
        code = _fail(exc)
    if code != EXIT_CONFIG:
        try:
            run.finish()
        except ConfigError as exc:  # the manifest could not be written
            code = _fail(exc)
    return code


def _fail(exc: DegenlabError) -> int:
    """Print the one ``error:`` line of a typed error; its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return next(c for kind, c in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
