"""Acceptance suite: every primary deliverable, one pass/fail line each.

Each test exercises one advertised guarantee end to end at its stated
tolerance and prints a single [PASS]/[FAIL] line to the terminal, bypassing
pytest capture, so a plain ``pytest -v`` run shows the scorecard inline.
"""

import dataclasses
import json
import time

import numpy as np

from degenlab.benchmarks import exact_benchmark
from degenlab.certifier import certify_max, certify_min
from degenlab.cli import main as cli_main
from degenlab.elliptic import EllipticityPair, EllipticOperator, pucci_minus, pucci_plus
from degenlab.grids import DiscreteField, Grid
from degenlab.lab import compare_modulus, decay_scan
from degenlab.laws import ExponentialFlatLaw, PowerLaw, dini_sum
from degenlab.modulus import (
    RescaleParams,
    build_modulus,
    certified_tail,
    rescale_sequence,
    truncated,
)
from degenlab.problem import ProblemInstance
from degenlab.solver import SchemeConfig, solve_cascade
from oracles import (
    eigenspace_minimizer,
    geometric_tailed_sequence,
    sample_class_traces,
)


def _line(capsys, ok, num, tag, detail):
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{mark}] criterion {num} ({tag}): {detail}", flush=True)
    assert ok, f"criterion {num} ({tag}): {detail}"


def test_criterion_1_pucci_oracle(capsys):
    """Eigenvalue formula == eigenspace minimizer; bounds random class samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_exact = 0.0
    worst_bound = 0.0
    n_matrices = 0
    for d in (2, 3):
        for _ in range(100):
            lam = float(rng.uniform(0.3, 2.0))
            Lam = lam * float(rng.uniform(1.0, 3.0))
            pair = EllipticityPair(lam, Lam)
            B = rng.uniform(-2.0, 2.0, size=(d, d))
            M = (B + B.T) / 2.0
            lo = pucci_minus(M, pair)
            hi = pucci_plus(M, pair)
            worst_exact = max(
                worst_exact,
                abs(lo - eigenspace_minimizer(M, lam, Lam)),
                abs(hi + eigenspace_minimizer(-M, lam, Lam)),
            )
            # 500 samples per matrix x 200 matrices = 1e5 class samples
            traces = sample_class_traces(M, lam, Lam, 500, rng)
            worst_bound = max(
                worst_bound, lo - traces.min(), traces.max() - hi
            )
            n_matrices += 1
    wall = time.perf_counter() - t0
    ok = worst_exact <= 1e-9 and worst_bound <= 1e-9 and wall < 10.0
    _line(
        capsys,
        ok,
        1,
        "pucci oracle",
        f"{n_matrices} matrices, minimizer gap {worst_exact:.2e}, "
        f"envelope slack {worst_bound:.2e}, {wall:.1f}s",
    )


def test_criterion_2_solver_fidelity(capsys):
    """Radial benchmarks converge under refinement; transmission within 2%."""
    details = []
    ok = True
    for theta in (0.5, 1.0, 2.0):
        bench = exact_benchmark("radial-power", {"theta": theta, "d": 2})
        errs = {}
        for n, levels in ((65, 1), (129, 2)):
            grid = Grid(d=2, n=n)
            cfg = SchemeConfig(
                max_iter=400_000, tol=1e-7, eps_deg=bench.recommended_eps_deg(grid)
            )
            t0 = time.perf_counter()
            u, diag = solve_cascade(bench.problem, grid, cfg, levels=levels)
            wall = time.perf_counter() - t0
            exact = bench.exact_on(grid)
            errs[n] = float(np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)))
            ok &= diag.converged and wall < 60.0
        ok &= errs[65] <= 0.05 and errs[129] <= 0.7 * errs[65]
        details.append(
            f"theta={theta}: {errs[65]:.2%}@65 ratio {errs[129] / errs[65]:.2f}"
        )
    bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
    grid = Grid(d=1, n=257)
    cfg = SchemeConfig(
        max_iter=400_000, tol=1e-9, eps_deg=bench.recommended_eps_deg(grid)
    )
    t0 = time.perf_counter()
    u, diag = solve_cascade(bench.problem, grid, cfg, levels=2)
    wall = time.perf_counter() - t0
    exact = bench.exact_on(grid)
    err = float(np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)))
    ok &= diag.converged and err <= 0.02 and wall < 60.0
    details.append(f"transmission {err:.3%}@257")
    _line(capsys, ok, 2, "solver fidelity", "; ".join(details))


def test_criterion_3_certification(capsys):
    """Exact fields pass both inequalities; planted quadratics fail loudly."""
    ok = True
    details = []
    cases = [
        ("affine", {"d": 2, "b": [0.75, -0.25], "a": 0.3}, 33),
        ("radial-power", {"theta": 0.5, "d": 2}, 65),
        ("radial-power", {"theta": 1.0, "d": 2}, 65),
        ("radial-power", {"theta": 2.0, "d": 2}, 65),
        ("radial-power", {"theta": 1.0, "d": 1}, 129),
        ("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}, 129),
    ]
    for name, params, n in cases:
        bench = exact_benchmark(name, params)
        grid = Grid(d=bench.d, n=n)
        u = DiscreteField(grid=grid, values=bench.exact_on(grid))
        c0 = float(np.max(np.abs(bench.problem.f_on(grid)))) + 10.0 * grid.h
        prob = dataclasses.replace(bench.problem, C0=c0)
        passed = certify_min(u, prob).passed and certify_max(u, prob).passed
        ok &= passed
        if not passed:
            details.append(f"{name} FAILED")
    details.append(f"{len(cases)} exact fields certified")

    grid = Grid(d=2, n=65)
    op = EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0))
    law = PowerLaw(p=1.0, t_max=50.0)
    prob = ProblemInstance(
        operator=op, sigma_plus=law, sigma_minus=law, f=0.0, g=0.0, C0=0.1,
        q=(0.0, 0.0),
    )
    X, Y = grid.meshgrid()
    for sign, certify in ((+1.0, certify_min), (-1.0, certify_max)):
        rep = certify(
            DiscreteField(grid=grid, values=sign * 10.0 * (X**2 + Y**2)), prob
        )
        planted_ok = (not rep.passed) and rep.max_violation > 10.0 * rep.eta_cert
        ok &= planted_ok
        details.append(
            f"planted {'+' if sign > 0 else '-'}10|x|^2: "
            f"violation {rep.max_violation:.0f} > {10.0 * rep.eta_cert:.2f}"
        )
    _line(capsys, ok, 3, "certification", "; ".join(details))


def test_criterion_4_dini_classification(capsys):
    """Power laws certified dini, the flat law not-dini, stable in K."""
    ok = True
    for K in (64, 128, 256):
        for p in (0.5, 1.0, 2.0, 3.0):
            ok &= dini_sum(PowerLaw(p=p), theta=0.25, K=K).verdict == "dini"
        ok &= dini_sum(ExponentialFlatLaw(), theta=0.25, K=K).verdict == "not-dini"
    _line(
        capsys,
        ok,
        4,
        "dini classification",
        "power p in {0.5,1,2,3} dini, exponential-flat not-dini, "
        "stable for K in {64,128,256}",
    )


def test_criterion_5_rescaling_bounds(capsys):
    """Summable rescaling hits its norm window on 100 random sequences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = -np.inf
    ok = True
    for _ in range(100):
        a = geometric_tailed_sequence(rng)
        delta = float(rng.uniform(1e-3, 0.25 - 1e-3))
        params = RescaleParams(delta=delta)
        c = np.asarray(rescale_sequence(a, params))
        eps = params.eps
        norm_a, norm_b = a.sum(), (a / c).sum()
        gaps = (
            c.max() - 1.0 / eps,
            eps * (1.0 - delta / 2.0) * norm_a - norm_b,
            norm_b - eps * (1.0 + delta) * norm_a,
        )
        worst = max(worst, *gaps)
        ok &= all(g <= 1e-10 for g in gaps)
    wall = time.perf_counter() - t0
    ok &= wall < 5.0
    _line(
        capsys,
        ok,
        5,
        "rescaling bounds",
        f"100 sequences, worst bound gap {worst:.2e} <= 1e-10, {wall:.2f}s",
    )


def test_criterion_6_modulus_construction(capsys):
    """Partial sums Cauchy under the certified tail; root steps obey the
    dyadic inverse bound; omega monotone from zero."""
    ok = True
    details = []
    for p1, p2 in ((1.0, 2.0), (0.5, 3.0), (1.0, 1.0)):
        _, table, omega = build_modulus(
            PowerLaw(p=p1), PowerLaw(p=p2), C=1.0, alpha0=0.5, delta=0.125, K=256
        )
        S = np.cumsum(table.tau)
        for K in (32, 64, 128):
            gap = S[2 * K - 1] - S[K - 1]
            bound = certified_tail(truncated(table, K))
            ok &= gap <= bound * (1.0 + 1e-12) + 1e-300
        b = np.asarray(table.a) / np.asarray(table.c)
        worst_rel = 0.0
        for k in range(table.K):
            ach = (
                table.branch1[k]
                if table.mu1[k] >= table.mu2[k]
                else table.branch2[k]
            )
            if ach == "root":
                worst_rel = max(worst_rel, (table.tau[k] - b[k]) / b[k])
        ok &= worst_rel <= 1e-8
        sweep = np.concatenate([[0.0], np.logspace(-80, 0, 99)])
        vals = omega(sweep)
        ok &= vals[0] == 0.0 and bool(np.all(np.diff(vals) >= -1e-300))
        details.append(f"p=({p1},{p2}) root slack {worst_rel:.1e}")
    _line(capsys, ok, 6, "modulus construction", "; ".join(details))


def test_criterion_7_end_to_end_envelope(capsys):
    """Measured affine-excess of a solved degenerate benchmark sits under
    C* omega(rho) rho with narrow ratio spread and the exact decay slope."""
    bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 1})
    grid = Grid(d=1, n=385)
    cfg = SchemeConfig(
        max_iter=400_000,
        tol=1e-6,
        eps_deg=bench.recommended_eps_deg(grid),
    )
    u, diag = solve_cascade(bench.problem, grid, cfg, levels=4)
    profile = decay_scan(u, (0.0,), 0.5, 6)

    lo, hi = 2.0**-6, 2.0**-2
    keep = [
        i for i, s in enumerate(profile.scales) if lo - 1e-12 <= s <= hi + 1e-12
    ]
    window = dataclasses.replace(
        profile,
        scales=tuple(profile.scales[i] for i in keep),
        excesses=tuple(profile.excesses[i] for i in keep),
        rates=tuple(profile.rates[i] for i in keep),
    )
    _, _, omega = build_modulus(
        bench.problem.sigma_plus,
        bench.problem.sigma_minus,
        C=1.0,
        alpha0=0.5,
        delta=0.125,
        K=256,
    )
    rep = compare_modulus(window, omega)
    logs = np.log(np.asarray(window.scales))
    slope = float(np.polyfit(logs, np.log(np.asarray(window.rates)), 1)[0])
    ok = (
        diag.converged
        and len(window.scales) >= 4
        and np.isfinite(rep.C_star)
        and rep.spread <= 10.0
        and abs(slope - 0.5) <= 0.1
    )
    _line(
        capsys,
        ok,
        7,
        "end-to-end envelope",
        f"{len(window.scales)} scales in [2^-6, 2^-2], C*={rep.C_star:.4g}, "
        f"spread {rep.spread:.2f} <= 10, slope {slope:.3f} in 0.5 +/- 0.1",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    """Identical config + seed => byte-identical artifacts."""
    cfg = {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
        "grid": {"d": 1, "n": 97},
        "scheme": {"tol_solve": 1e-6, "scheme": "flux-1d", "levels": 2},
        "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 128},
        "lab": {"centers": [[0.0]], "r": 0.5, "N": 4},
        "seed": 11,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    for name in ("a", "b"):
        out = str(tmp_path / name)
        base = ["--config", str(path), "--out", out, "--seed", "11"]
        assert cli_main(["solve", *base]) == 0
        field = [*base, "--field", str(tmp_path / name / "field.csv")]
        assert cli_main(["certify", *field]) == 0
        assert cli_main(["build-modulus", *base]) == 0
        assert cli_main(["measure", *field]) == 0
        assert cli_main(["report", *base]) == 0
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    names = sorted(p.name for p in a_dir.iterdir())
    ok = names == sorted(p.name for p in b_dir.iterdir())
    compared = 0
    for name in names:
        if name == "manifest.json":  # carries wall-clock timings
            continue
        ok &= (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        compared += 1
    _line(
        capsys,
        ok,
        8,
        "determinism",
        f"two full runs, {compared} artifacts byte-identical "
        "(manifest carries timings)",
    )
