"""The benchmark's workloads: inputs made from a seed, CLI commands, checks.

A workload is a list of operations.  Each operation is one ``degenlab``
command line, the exit code it must return and a check of what it wrote.
One round runs every operation once, in order, into a fresh output tree.
The seed places the off-centre lab centres and the planted bump on grid
nodes; it changes no grid size, scale count or command, so every seed
does the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

MODULUS = {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 256}
LAB_R = 0.5
LAB_N = 6
LAW_PROBLEM = {"operator": {"kind": "trace", "lam": 1.0, "Lam": 1.0}, "f": 0.0, "C0": 1.0}


@dataclass
class Op:
    """One command line, its expected exit code and a check of its output."""

    argv: list
    expect: int = 0
    check: Callable[[], list] | None = None

    @property
    def stage(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list]


def _write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def _axis_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, n)
    return axis[(np.abs(axis) >= lo) & (np.abs(axis) <= hi)]


def _off_centre(rng, n: int, d: int) -> list:
    """A grid node whose sup-norm lies in (0.5, 0.75].

    Every such centre drops scale 0.5 (the ball would leave the domain)
    and keeps all smaller ones, so the number of fits does not depend on
    the seed.
    """
    far = _axis_nodes(n, 0.51, 0.75)
    c = [float(rng.choice(far)) * float(rng.choice((-1.0, 1.0)))]
    if d == 2:
        c.append(float(rng.choice(_axis_nodes(n, 0.0, 0.75))) * float(rng.choice((-1.0, 1.0))))
        rng.shuffle(c)
    return c


def _write_field_csv(path: Path, coords, values) -> None:
    cols = ("x", "u") if len(coords) == 1 else ("x", "y", "u")
    cells = np.column_stack([c.ravel() for c in coords] + [values.ravel()])
    lines = [",".join(cols)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in cells.tolist()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field(path: Path):
    """(coordinate columns, values) of a field.csv artifact."""
    _, data = ck.read_csv(path)
    return tuple(data[:, j] for j in range(data.shape[1] - 1)), data[:, -1]


def _profile(out: Path):
    """{center tuple: [(scale, excess), ...]} from decay_profile.csv."""
    header, data = ck.read_csv(out / "decay_profile.csv")
    d = header.index("scale")
    prof: dict = {}
    for row in data.tolist():
        prof.setdefault(tuple(row[:d]), []).append((row[d], row[d + 1]))
    return prof


def _a_column(out: Path):
    """(a_k column of sequence_table.csv, the schedule's theta)."""
    _, table = ck.read_csv(out / "sequence_table.csv")
    return table[:, 1], ck.read_json(out / "modulus.json")["theta"]


def _check_a_power(out: Path, p1: float, p2: float) -> list:
    return ck.check_a_power(*_a_column(out), p1, p2)


def _check_a_inverse(out: Path, law1, law2) -> list:
    a, theta = _a_column(out)
    return ck.check_a_inverse(a.tolist(), theta, law1, law2)


def _check_report(out: Path) -> list:
    artifacts = {
        p.name: ck.read_json(p)
        for p in sorted(out.glob("*.json"))
        if p.name not in ("summary.json", "manifest.json")
    }
    return ck.check_report(ck.read_json(out / "summary.json"), artifacts)


def _check_cert(out: Path, expect_pass: bool, code: int) -> list:
    return ck.check_certificate(ck.read_json(out / "certificates.json"), code, expect_pass)


def _pipeline(cfg_path: str, out: Path, field_check, measure_check, a_check) -> list:
    """solve -> certify -> build-modulus -> measure -> report into one directory."""
    field = str(out / "field.csv")
    base = ["--config", cfg_path, "--out", str(out)]
    return [
        Op(["solve", *base], check=field_check),
        Op(["certify", *base, "--field", field], check=lambda: _check_cert(out, True, 0)),
        Op(["build-modulus", *base], check=a_check),
        Op(["measure", *base, "--field", field], check=measure_check),
        Op(["report", *base], check=lambda: _check_report(out)),
    ]


# ---------------------------------------------------------------------------
# radial-2d: the wide-stencil solver dominates


RADIAL_THETA = 1.0
RADIAL_N = 65
RADIAL_TOL = 1e-4


def radial_2d(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    centers = [[0.0, 0.0], _off_centre(rng, RADIAL_N, 2), _off_centre(rng, RADIAL_N, 2)]
    cfg_path = _write_config(work / "in" / "radial-2d.json", {
        "problem": {"benchmark": "radial-power", "params": {"theta": RADIAL_THETA, "d": 2}},
        "grid": {"d": 2, "n": RADIAL_N},
        "scheme": {"tol_solve": RADIAL_TOL, "scheme": "wide", "levels": 3},
        "modulus": MODULUS,
        "lab": {"centers": centers, "r": LAB_R, "N": LAB_N},
    })
    out = work / "out" / "radial-2d"
    solved = {}

    def field_check():
        coords, u = _field(out / "field.csv")
        exact = ck.radial_exact(RADIAL_THETA, *coords)
        solved.update(coords=coords, exact=exact, err=float(np.max(np.abs(u - exact))))
        return (
            ck.check_grid_coords(coords, RADIAL_N)
            + ck.check_sup_error(u, exact, 0.05)
            + ck.check_converged(ck.read_json(out / "solve_diagnostics.json"), RADIAL_TOL)
        )

    def measure_check():
        return _check_radial_measure(out, solved, solved["err"])

    return _pipeline(cfg_path, out, field_check, measure_check,
                     lambda: _check_a_power(out, RADIAL_THETA, RADIAL_THETA))


def _check_radial_measure(out: Path, field: dict, atol: float) -> list:
    """Origin: excess = half the ball maximum, slope 1/(1+theta).

    Off-centre: the minimax excess over the ball lies between the
    minimax of the centre row and column (subsets of the ball) and the
    error of the tangent plane of the closed form (one affine candidate),
    each widened by the field's sup error.
    """
    problems = []
    coords, exact = field["coords"], field["exact"]
    for center, rows in _profile(out).items():
        for rho, excess in rows:
            if center == (0.0, 0.0):
                problems += ck.check_radial_origin_excess(excess, rho, coords, exact, atol)
                continue
            ball = ck.sup_ball(coords, center, rho)
            lower = 0.0
            for j in (0, 1):
                line = ball & (coords[1 - j] == center[1 - j])
                lower = max(lower, ck.minimax_affine_1d(coords[j][line], exact[line]))
            upper = float(np.max(np.abs(exact[ball] - _tangent_plane(center, coords, ball))))
            if not (lower - atol - 1e-12 <= excess <= upper + atol + 1e-12):
                problems.append(
                    f"excess {excess:.6g} at {center}, scale {rho:g} outside "
                    f"[{lower:.6g}, {upper:.6g}] +- {atol:.3g}"
                )
    comparison = ck.read_json(out / "comparison.json")
    for entry in comparison["centers"]:
        if entry["center"] == [0.0, 0.0]:
            problems += ck.check_decay_slope(entry["slope"], RADIAL_THETA)
    return problems


def _tangent_plane(center, coords, ball):
    gamma = ck.radial_gamma(RADIAL_THETA)
    c = np.asarray(center)
    r = float(np.hypot(*c))
    grad = gamma * r ** (gamma - 2.0) * c
    return r**gamma + grad[0] * (coords[0][ball] - c[0]) + grad[1] * (coords[1][ball] - c[1])


# ---------------------------------------------------------------------------
# transmission-1d: the flux-form solver, bound by per-step overhead


TRANS = {"theta1": 1.0, "theta2": 2.0, "c": 1.0}
TRANS_N = 129
TRANS_TOL = 1e-6


def transmission_1d(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    centers = [[0.0], _off_centre(rng, TRANS_N, 1), _off_centre(rng, TRANS_N, 1)]
    cfg_path = _write_config(work / "in" / "transmission-1d.json", {
        "problem": {"benchmark": "transmission-1d", "params": TRANS},
        "grid": {"d": 1, "n": TRANS_N},
        "scheme": {"tol_solve": TRANS_TOL, "scheme": "flux-1d", "levels": 4},
        "modulus": MODULUS,
        "lab": {"centers": centers, "r": LAB_R, "N": LAB_N},
    })
    out = work / "out" / "transmission-1d"
    solved = {}

    def field_check():
        (x,), u = _field(out / "field.csv")
        exact = ck.transmission_exact(TRANS["theta1"], TRANS["theta2"], TRANS["c"], x)
        solved.update(x=x, exact=exact, err=float(np.max(np.abs(u - exact))))
        return (
            ck.check_grid_coords((x,), TRANS_N)
            + ck.check_sup_error(u, exact, 0.02)
            + ck.check_converged(ck.read_json(out / "solve_diagnostics.json"), TRANS_TOL)
            + ck.check_sign_change_at_origin(x, u)
        )

    def measure_check():
        problems = []
        for (center,), rows in _profile(out).items():
            for rho, excess in rows:
                problems += ck.check_excess_1d(
                    excess, rho, center, solved["x"], solved["exact"], solved["err"]
                )
        return problems

    return _pipeline(cfg_path, out, field_check, measure_check,
                     lambda: _check_a_power(out, TRANS["theta1"], TRANS["theta2"]))


# ---------------------------------------------------------------------------
# analyze-fields: certifier, lab, modulus, laws and file I/O; nothing solved


FIELDS_N = 129
BUMP = 10.0
POWER_PAIRS = ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0))


def analyze_fields(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    axis = np.linspace(-1.0, 1.0, FIELDS_N)
    coords = tuple(c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    exact = ck.radial_exact(RADIAL_THETA, *coords)
    bump_at = [float(v) for v in rng.choice(_axis_nodes(FIELDS_N, 0.0, 0.5), 2)]
    bump_at = [v * float(rng.choice((-1.0, 1.0))) for v in bump_at]
    planted = exact + BUMP * ((coords[0] - bump_at[0]) ** 2 + (coords[1] - bump_at[1]) ** 2)
    _write_field_csv(work / "in" / "exact.csv", coords, exact)
    _write_field_csv(work / "in" / "planted.csv", coords, planted)
    centers = [[0.0, 0.0], _off_centre(rng, FIELDS_N, 2), _off_centre(rng, FIELDS_N, 2)]
    cfg_path = _write_config(work / "in" / "fields.json", {
        "problem": {"benchmark": "radial-power", "params": {"theta": RADIAL_THETA, "d": 2}},
        "grid": {"d": 2, "n": FIELDS_N},
        "modulus": MODULUS,
        "lab": {"centers": centers, "r": LAB_R, "N": LAB_N},
    })
    ex_out = work / "out" / "exact"
    pl_out = work / "out" / "planted"
    field = {"coords": coords, "exact": exact}
    ops = [
        Op(["certify", "--config", cfg_path, "--out", str(ex_out),
            "--field", str(work / "in" / "exact.csv")],
           check=lambda: _check_cert(ex_out, True, 0)),
        Op(["certify", "--config", cfg_path, "--out", str(pl_out),
            "--field", str(work / "in" / "planted.csv")],
           expect=3, check=lambda: _check_cert(pl_out, False, 3)),
        Op(["build-modulus", "--config", cfg_path, "--out", str(ex_out)],
           check=lambda: _check_a_power(ex_out, RADIAL_THETA, RADIAL_THETA)),
        Op(["measure", "--config", cfg_path, "--out", str(ex_out),
            "--field", str(work / "in" / "exact.csv")],
           check=lambda: _check_radial_measure(ex_out, field, 0.0)),
        Op(["report", "--config", cfg_path, "--out", str(ex_out)],
           check=lambda: _check_report(ex_out)),
        Op(["report", "--config", cfg_path, "--out", str(pl_out)],
           check=lambda: _check_report(pl_out)),
    ]
    for p1, p2 in POWER_PAIRS:
        out = work / "out" / f"power-{p1:g}-{p2:g}"
        ops.append(_law_op(work, out, {"family": "power", "p": p1}, {"family": "power", "p": p2},
                           check=lambda out=out, p1=p1, p2=p2: _check_a_power(out, p1, p2)))
    # Not Dini: the inverse sums diverge, and exit 4 is the right answer.
    flat = {"family": "exponential-flat"}
    ops.append(_law_op(work, work / "out" / "exp-flat", flat, flat, expect=4))
    # Summable, so a modulus exists and exit 0 is the right answer.  The
    # law inverse's absolute tolerance breaks this build on every run;
    # it is counted as a failed operation until that is mended.
    out = work / "out" / "power-log"
    ops.append(_law_op(
        work, out, {"family": "power-log", "p": 1.0, "q": 1.0}, {"family": "power", "p": 1.0},
        check=lambda: _check_a_inverse(out, ck.power_log_law(1.0, 1.0), ck.power_law(1.0)),
    ))
    return ops


def _law_op(work: Path, out: Path, law1: dict, law2: dict, expect: int = 0, check=None) -> Op:
    cfg_path = _write_config(work / "in" / f"{out.name}.json", {
        "problem": {**LAW_PROBLEM, "sigma_plus": law1, "sigma_minus": law2},
        "modulus": MODULUS,
    })
    return Op(["build-modulus", "--config", cfg_path, "--out", str(out)], expect=expect, check=check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "radial-2d",
            "five stages on radial-power, d=2, theta=1, n=65: the wide-stencil "
            "relaxation does most of the work, so a 2-d solver gain shows here",
            radial_2d,
        ),
        Workload(
            "transmission-1d",
            "five stages on the sign-switching transmission-1d problem, n=129: the "
            "flux-1d solver path, bound by per-step Python overhead",
            transmission_1d,
        ),
        Workload(
            "analyze-fields",
            "certify, build-modulus, measure and report on closed-form 2-d fields "
            "at n=129 and on six law pairs: nothing solved",
            analyze_fields,
        ),
    )
}
