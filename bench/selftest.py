"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check in ``checks.py`` gets a right answer, which it must accept,
and a perturbed field or answer, which it must reject.  A check that
accepts both could not catch a wrong output.  Exits 1 if any check
misbehaves.  Needs numpy only, not degenlab.
"""

from __future__ import annotations

import sys

import numpy as np

import checks as ck


def _radial(n=33, theta=1.0):
    axis = np.linspace(-1.0, 1.0, n)
    coords = tuple(c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    return coords, ck.radial_exact(theta, *coords)


def cases():
    """(name, problems for the right answer, problems for a perturbed one)."""
    coords, exact = _radial()
    x = np.linspace(-1.0, 1.0, 65)
    u1 = ck.transmission_exact(1.0, 2.0, 1.0, x)
    bump = 0.1 * np.exp(-((coords[0] - 0.3) ** 2 + coords[1] ** 2) / 0.01)

    yield ("grid coordinates",
           ck.check_grid_coords(coords, 33),
           ck.check_grid_coords((coords[0], coords[1][::-1]), 33))
    yield ("sup error 2-d",
           ck.check_sup_error(exact + 0.01 * exact.max(), exact, 0.05),
           ck.check_sup_error(exact + bump, exact, 0.05))
    yield ("sup error 1-d",
           ck.check_sup_error(u1, u1, 0.02),
           ck.check_sup_error(u1 * 1.03, u1, 0.02))
    yield ("transmission closed form solves its ODE",
           _ode_problems(x, u1),
           _ode_problems(x, 1.1 * u1))
    diag = {"converged": True, "final_residual": 9e-7}
    yield ("converged",
           ck.check_converged(diag, 1e-6),
           ck.check_converged({**diag, "final_residual": 2e-6}, 1e-6)
           + ck.check_converged({**diag, "converged": False}, 1e-6))
    good = {"passed": True}
    planted = {"passed": False,
               "min_inequality": {"passed": False, "max_violation": 50.0, "eta_cert": 0.1}}
    yield ("certificate of a solution",
           ck.check_certificate(good, 0, True),
           ck.check_certificate({"passed": False}, 3, True))
    yield ("certificate of a planted field",
           ck.check_certificate(planted, 3, False),
           ck.check_certificate(
               {**planted, "min_inequality": {**planted["min_inequality"], "max_violation": 0.5}},
               3, False))
    shifted = ck.transmission_exact(1.0, 2.0, 1.0, x - 2 * (x[1] - x[0]))
    yield ("sign change at 0",
           ck.check_sign_change_at_origin(x, u1),
           ck.check_sign_change_at_origin(x, shifted))
    theta, K = 0.25, 64
    k = np.arange(1, K + 1)
    a = np.maximum(theta**k, theta ** (k / 2.0))
    yield ("a_k of power pairs",
           ck.check_a_power(a, theta, 1.0, 2.0),
           ck.check_a_power(a * (1.0 + 1e-9), theta, 1.0, 2.0))
    law1, law2 = ck.power_log_law(1.0, 1.0), ck.power_law(1.0)
    a_pl = [max(_invert(law1, theta**j), theta**j) for j in range(1, 41)]
    a_bad = list(a_pl)
    a_bad[-1] = 1.16e-9  # what an absolute bisection stop returns
    yield ("a_k of the power-log pair",
           ck.check_a_inverse(a_pl, theta, law1, law2),
           ck.check_a_inverse(a_bad, theta, law1, law2))
    rho = 0.5
    half_max = 0.5 * float(np.max(exact[ck.sup_ball(coords, (0.0, 0.0), rho)]))
    yield ("origin excess",
           ck.check_radial_origin_excess(half_max * (1 + 1e-12), rho, coords, exact, 0.0),
           ck.check_radial_origin_excess(half_max * (1 + 1e-6), rho, coords, exact, 0.0))
    yield ("decay slope",
           ck.check_decay_slope(0.53, 1.0),
           ck.check_decay_slope(0.65, 1.0))
    mask = ck.sup_ball((x,), (0.5,), 0.25)
    # a convex function's minimax line is its chord, shifted by half the gap
    xs, us = x[mask], x[mask] ** 2
    chord = us[0] + (us[-1] - us[0]) / (xs[-1] - xs[0]) * (xs - xs[0])
    want = 0.5 * float(np.max(chord - us))
    got = ck.minimax_affine_1d(xs, us)
    yield ("1-d minimax of a parabola",
           [] if abs(got - want) <= 1e-12 else [f"{got} != {want}"], None)
    excess = ck.minimax_affine_1d(x[mask], u1[mask])
    yield ("1-d excess",
           ck.check_excess_1d(excess + 1e-6, 0.25, 0.5, x, u1, 2e-6),
           ck.check_excess_1d(excess + 1e-4, 0.25, 0.5, x, u1, 2e-6))
    art = {"a.json": {"v": 1.0}, "b.json": {"w": [1, 2]}}
    yield ("report bundle",
           ck.check_report({"artifacts": dict(art)}, art),
           ck.check_report({"artifacts": {"a.json": {"v": 1.0}}}, art)
           + ck.check_report({"artifacts": {**art, "a.json": {"v": 2.0}}}, art))


def _ode_problems(x, u):
    """|u'|^theta u'' = sgn(x), theta = 1 right and 2 left of 0, away from 0.

    Checks the closed form that the transmission checks rest on: a wrong
    kappa breaks the equation.
    """
    h = x[1] - x[0]
    du = (u[2:] - u[:-2]) / (2 * h)
    d2u = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    xi = x[1:-1]
    lhs = np.abs(du) ** np.where(xi > 0, 1.0, 2.0) * d2u
    far = np.abs(xi) > 0.25
    err = float(np.max(np.abs(lhs[far] - np.sign(xi[far]))))
    return [] if err < 0.01 else [f"ODE residual {err:.3g}"]


def _invert(law, s):
    """sigma^{-1}(s) by bisection in log t with a relative stop."""
    lo, hi = -700.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if law(np.exp(mid)) < s:
            lo = mid
        else:
            hi = mid
    return float(np.exp(hi))


def main() -> int:
    bad = 0
    for name, right, perturbed in cases():
        ok = (right is None or right == []) and (perturbed is None or perturbed != [])
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: right -> {right}, perturbed -> {perturbed}")
    print(f"{bad} misbehaving check(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
