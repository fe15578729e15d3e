"""Output checks, computed apart from degenlab.

Closed forms, ball node sets and minimax fits are evaluated here from
their formulas, never through degenlab, so a fault in the program cannot
also hide in the reference.  Every check returns a list of problems,
empty when the output is right; ``selftest.py`` feeds each one a
perturbed field or answer and shows that it fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BALL_SLACK = 1e-9


# ---------------------------------------------------------------------------
# closed forms


def radial_gamma(theta: float) -> float:
    """Exponent of u = |x|^gamma solving |Du|^theta trace(D^2 u) = f."""
    return (2.0 + theta) / (1.0 + theta)


def radial_exact(theta: float, *coords) -> np.ndarray:
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    return r2 ** (radial_gamma(theta) / 2.0)


def _branch(theta: float, c: float):
    # u = kappa x^gamma solves |u'|^theta u'' = c when
    # (kappa gamma)^(1+theta) (gamma - 1) = c and gamma - 1 = 1/(1+theta).
    gamma = radial_gamma(theta)
    kappa = ((1.0 + theta) * c) ** (1.0 / (1.0 + theta)) / gamma
    return kappa, gamma


def transmission_exact(theta1: float, theta2: float, c: float, x) -> np.ndarray:
    """kappa1 x^gamma1 for x >= 0, -kappa2 |x|^gamma2 for x < 0."""
    x = np.asarray(x, dtype=float)
    k1, g1 = _branch(theta1, c)
    k2, g2 = _branch(theta2, c)
    return np.where(x >= 0.0, k1 * np.abs(x) ** g1, -k2 * np.abs(x) ** g2)


def power_law(p: float):
    return lambda t: t**p


def power_log_law(p: float, q: float):
    return lambda t: t**p * (1.0 + math.log1p(1.0 / t)) ** (-q)


# ---------------------------------------------------------------------------
# reading artifacts


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path: Path):
    """(header, float array of rows) of a CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def sup_ball(coords, center, rho):
    """Mask of nodes in the sup-norm ball of radius rho around center."""
    mask = np.ones(coords[0].shape, dtype=bool)
    for c, c0 in zip(coords, center):
        mask &= np.abs(c - c0) <= rho + BALL_SLACK
    return mask


def minimax_affine_1d(x, u) -> float:
    """Least sup-norm error of an affine fit to samples (x, u).

    The vertical width max(u - b x) - min(u - b x) is convex in the slope
    b, and its minimum lies between the smallest and largest slope of
    consecutive samples; a ternary search on b finds it.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    slopes = np.diff(u) / np.diff(x)
    lo, hi = float(slopes.min()), float(slopes.max())

    def width(b):
        v = u - b * x
        return float(v.max() - v.min())

    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if width(m1) <= width(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * width(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# checks


def check_grid_coords(coords, n: int) -> list:
    axis = np.linspace(-1.0, 1.0, n)
    if len(coords) == 1:
        expect = (axis,)
    else:
        expect = np.meshgrid(axis, axis, indexing="ij")
        expect = tuple(e.ravel() for e in expect)
    for j, (got, want) in enumerate(zip(coords, expect)):
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12):
            return [f"field coordinate column {j} is not the {n}-node grid"]
    return []


def check_sup_error(u, exact, rel_tol: float) -> list:
    """Relative sup error of u against the closed form at most rel_tol."""
    scale = float(np.max(np.abs(exact))) or 1.0
    err = float(np.max(np.abs(u - exact))) / scale
    if not err <= rel_tol:
        return [f"relative sup error {err:.4g} exceeds {rel_tol:.4g}"]
    return []


def check_converged(diag: dict, tol: float) -> list:
    problems = []
    if diag.get("converged") is not True:
        problems.append("solve_diagnostics.json does not report converged")
    res = diag.get("final_residual")
    if not (isinstance(res, float) and res <= tol):
        problems.append(f"final residual {res!r} is not <= tol {tol:g}")
    return problems


def check_certificate(cert: dict, code: int, expect_pass: bool) -> list:
    """Exact and solved fields pass (exit 0); planted fields fail decisively.

    A planted convex bump must fail the min inequality (exit 3) with a
    violation above ten times the certificate tolerance.
    """
    if expect_pass:
        if code != 0 or cert.get("passed") is not True:
            return [f"certificate failed on a solution field (exit {code})"]
        return []
    side = cert.get("min_inequality", {})
    problems = []
    if code != 3 or cert.get("passed") is not False or side.get("passed") is not False:
        problems.append(f"planted field was not rejected (exit {code})")
    viol, eta = side.get("max_violation"), side.get("eta_cert")
    if not (isinstance(viol, float) and isinstance(eta, float) and viol > 10.0 * eta):
        problems.append(f"planted min-side violation {viol!r} is not > 10 eta_cert {eta!r}")
    return problems


def check_sign_change_at_origin(x, u) -> list:
    """u < 0 left of x = 0 and u > 0 right of it: one sign change, at 0."""
    x = np.asarray(x)
    u = np.asarray(u)
    if np.all(u[x < 0.0] < 0.0) and np.all(u[x > 0.0] > 0.0):
        return []
    return ["u does not change sign exactly once, at x = 0"]


def check_a_power(a, theta: float, p1: float, p2: float) -> list:
    """a_k = max(theta^(k/p1), theta^(k/p2)) for a pair of power laws."""
    k = np.arange(1, len(a) + 1, dtype=float)
    want = np.maximum(theta ** (k / p1), theta ** (k / p2))
    rel = np.abs(np.asarray(a) - want) / want
    if not np.all(rel <= 1e-12):
        return [f"a_k differs from max(theta^(k/p)) by up to {rel.max():.3g}"]
    return []


def check_a_inverse(a, theta: float, law1, law2, rel_tol: float = 1e-6) -> list:
    """sigma_i(a_k) = theta^k for the law whose inverse attains the max.

    Both laws increase, so a_k = max_i sigma_i^{-1}(theta^k) gives
    sigma_i(a_k) >= theta^k for both, with equality for the maximiser:
    the smaller of the two ratios sigma_i(a_k)/theta^k must be 1.
    """
    worst = 0.0
    for k, ak in enumerate(a, start=1):
        target = theta**k
        worst = max(worst, abs(min(law1(ak), law2(ak)) / target - 1.0))
    if not worst <= rel_tol:
        return [f"sigma(a_k)/theta^k is off 1 by up to {worst:.3g}"]
    return []


def check_radial_origin_excess(excess, rho, coords, exact, atol, rtol=1e-9) -> list:
    """Excess at the origin of a radial field equals half its ball maximum.

    |x|^gamma is radially symmetric with minimum 0 at the origin, so the
    best affine fit on a centred ball is the constant max/2.
    """
    want = 0.5 * float(np.max(exact[sup_ball(coords, (0.0,) * len(coords), rho)]))
    if not abs(excess - want) <= atol + rtol * want:
        return [f"origin excess {excess:.17g} at scale {rho:g}, closed form {want:.17g}"]
    return []


def check_decay_slope(slope, theta: float, slack: float = 0.1) -> list:
    """log(E/rho) against log(rho) has slope gamma - 1 = 1/(1+theta)."""
    want = 1.0 / (1.0 + theta)
    if not (isinstance(slope, float) and abs(slope - want) <= slack):
        return [f"decay slope {slope!r} is not within {slack} of {want:.4g}"]
    return []


def check_excess_1d(excess, rho, center, x, exact, atol) -> list:
    """Measured 1-d excess within atol of the minimax fit of the closed form."""
    mask = sup_ball((x,), (center,), rho)
    want = minimax_affine_1d(x[mask], exact[mask])
    if not abs(excess - want) <= atol + 1e-12:
        return [f"1-d excess {excess:.6g} at {center:g}, scale {rho:g}; minimax {want:.6g}"]
    return []


def check_report(summary: dict, artifacts: dict) -> list:
    """summary.json bundles every other JSON artifact of its directory."""
    got = summary.get("artifacts")
    if not isinstance(got, dict) or got.keys() != artifacts.keys():
        return ["summary.json does not list exactly the directory's JSON artifacts"]
    if any(got[k] != v for k, v in artifacts.items()):
        return ["summary.json differs from the artifacts it bundles"]
    return []
