"""Brute-force reference computations shared by the test suite.

Everything here is deliberately independent of the package internals: plain
formulas, random sampling, and dense grid searches that the fast
implementations must agree with.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


def pucci_reference(M, lam, Lam):
    """(P_minus, P_plus) straight from the eigenvalue formula."""
    e = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    pos = e[e > 0].sum()
    neg = e[e < 0].sum()
    return lam * pos + Lam * neg, Lam * pos + lam * neg


def eigenspace_minimizer(M, lam, Lam):
    """tr(A* M) for A* = lam * proj_+ + Lam * proj_- built from M's frame."""
    M = np.asarray(M, dtype=float)
    e, V = np.linalg.eigh(M)
    A = V @ np.diag(np.where(e > 0, lam, Lam)) @ V.T
    return float(np.trace(A @ M))


def sample_class_traces(M, lam, Lam, n, rng):
    """tr(A M) for n random A with spectrum in [lam, Lam] (batched)."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    G = rng.normal(size=(n, d, d))
    Q, _ = np.linalg.qr(G)
    spec = rng.uniform(lam, Lam, size=(n, d))
    # tr(Q diag(s) Q^T M) = sum_k s_k * (Q^T M Q)_kk
    QtMQ_diag = np.einsum("nik,ij,njk->nk", Q, M, Q)
    return np.einsum("nk,nk->n", spec, QtMQ_diag)


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    samples: int
    worst_low_slack: float
    worst_high_slack: float
    counterexample: tuple | None


def check_ellipticity(op, d, samples=2000, seed=0):
    """Sample the two-sided Pucci envelope property on random matrix pairs.

    Draws symmetric M, N with entries uniform in [-1, 1] and verifies

        P_minus(M - N) - tol <= F(M) - F(N) <= P_plus(M - N) + tol

    with tol = ELLIPTICITY_TOL, all pairs at once.  Slacks are reported as
    of the first failing pair, so a failure shows how badly the envelope
    broke.
    """
    from degenlab.elliptic import ELLIPTICITY_TOL, pucci_minus, pucci_plus

    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, size=(samples, 2, d, d))
    S = (B + np.swapaxes(B, -1, -2)) / 2.0
    M, N = S[:, 0], S[:, 1]
    diff = op.apply(M) - op.apply(N)
    low = diff - pucci_minus(M - N, op.pair)
    high = pucci_plus(M - N, op.pair) - diff
    failed = np.flatnonzero((low < -ELLIPTICITY_TOL) | (high < -ELLIPTICITY_TOL))
    # report as of the first failing sample, like a draw-by-draw loop would
    stop = int(failed[0]) + 1 if failed.size else samples
    return EllipticityReport(
        passed=not failed.size,
        samples=stop,
        worst_low_slack=float(np.min(low[:stop], initial=np.inf)),
        worst_high_slack=float(np.min(high[:stop], initial=np.inf)),
        counterexample=(M[stop - 1].tolist(), N[stop - 1].tolist()) if failed.size else None,
    )


def brute_affine_1d(u, x0, rho, n_nodes, n_slopes=2001):
    """Minimax affine fit on a symmetric 1-d point set by slope search.

    For each candidate slope b the optimal intercept is the midrange of the
    residual, so E(b) is an explicit convex function sampled densely.
    """
    xs = np.linspace(x0 - rho, x0 + rho, n_nodes)
    vals = u(xs)
    span = (vals.max() - vals.min()) / (2 * rho) + 1.0
    best = np.inf
    best_ab = (0.0, 0.0)
    for b in np.linspace(-span, span, n_slopes):
        r = vals - b * (xs - x0)
        e = (r.max() - r.min()) / 2.0
        if e < best:
            best = e
            best_ab = ((r.max() + r.min()) / 2.0, b)
    return best, best_ab


def minimax_reference(coords, values, x0, rho):
    """Minimax affine fit on the sup-ball B_rho(x0) of a point set, by LP.

    HiGHS (scipy.optimize.linprog) on  min t  s.t.  |a + b.(x - x0) - v| <= t
    over the points with max_j |x_j - x0_j| <= rho (1e-12 slack).  Returns
    the excess evaluated at the LP's (a, b), the ball mask and (a, b).
    """
    coords = [np.asarray(c, dtype=float).ravel() for c in coords]
    values = np.asarray(values, dtype=float).ravel()
    mask = np.ones(values.size, dtype=bool)
    for c, x0j in zip(coords, x0):
        mask &= np.abs(c - x0j) <= rho + 1e-12 * max(1.0, rho)
    v = values[mask]
    A = np.column_stack([np.ones(v.size)] + [c[mask] - x0j for c, x0j in zip(coords, x0)])
    k = A.shape[1]
    ones = np.ones((v.size, 1))
    res = linprog(
        np.append(np.zeros(k), 1.0),
        A_ub=np.block([[A, -ones], [-A, -ones]]),
        b_ub=np.concatenate([v, -v]),
        bounds=[(None, None)] * k + [(0.0, None)],
        method="highs",
    )
    assert res.success, res.message
    z = res.x[:k]
    return float(np.max(np.abs(A @ z - v))), mask, z


def csv_reference(header, rows):
    """CSV text written one cell at a time: a float cell with 17 significant
    digits, any other cell (an int) by str()."""

    def cell(v):
        return f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def geometric_tailed_sequence(rng):
    """Random positive sequence with a geometric tail (for rescaling tests)."""
    m = int(rng.integers(5, 60))
    q = rng.uniform(0.05, 0.9)
    scale = rng.uniform(0.1, 10.0)
    jitter = rng.uniform(0.5, 1.5, size=m)
    return scale * jitter * q ** np.arange(1, m + 1)


def power_recursion_reference(mu1, r, c, p1, p2):
    """mu*_k and tau_k of the amplitude recursion for sigma_i(t) = t**p_i.

    With t = mu tau_{k-1} c_k (below every t_max), g_i(mu) >= 1 reads
    t**(1 + p_i) >= c_k r^k, so the root is t* = (c_k r^k)**(1/(1 + p_i)),
    taken in logs because c_k r^k underflows.  The amplitude is the root
    mu = t* / (tau_{k-1} c_k), raised to mu*_{k-1} (hold) and cut at 1
    (cap).
    """
    mu_star, tau = [mu1], [mu1]
    for k in range(2, len(c) + 1):
        log_target = math.log(c[k - 1]) + k * math.log(r)
        log_scale = math.log(tau[-1]) + math.log(c[k - 1])
        amps = [
            min(max(math.exp(log_target / (1.0 + p) - log_scale), mu_star[-1]), 1.0)
            for p in (p1, p2)
        ]
        mu_star.append(max(amps))
        tau.append(tau[-1] * mu_star[-1])
    return np.array(mu_star), np.array(tau)


def reference_bisect_doubles(below, top):
    """Adjacent doubles t_lo < t_hi in [0, top] where ``below`` turns false.

    ``below`` maps an array of t (shaped like ``top``) to booleans that
    are true on an initial segment of each entry's interval [0, top].
    Non-negative doubles are ordered like their bit patterns, so halving
    the integer interval between two patterns bisects the bracket in
    (piecewise-linear) log t.  The loop stops when every bracket's ends
    are adjacent doubles, at most 64 steps.  ``below`` is only ever
    evaluated strictly inside (0, top): t_lo is 0 or a point where it
    holds, t_hi is ``top`` or a point where it fails.
    """
    lo = np.zeros(np.shape(top), dtype=np.int64)
    hi = np.array(top, dtype=np.float64).view(np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        is_below = below(mid.view(np.float64))
        lo = np.where(is_below, mid, lo)
        hi = np.where(is_below, hi, mid)
    return lo.view(np.float64), hi.view(np.float64)


def refine_linear_reference(u):
    """Values on the 2n - 1 grid by the explicit averaging formulas of d = 1, 2."""
    u = np.asarray(u, dtype=float)
    v = np.empty(tuple(2 * s - 1 for s in u.shape))
    if u.ndim == 1:
        v[0::2] = u
        v[1::2] = 0.5 * (u[:-1] + u[1:])
        return v
    v[0::2, 0::2] = u
    v[1::2, 0::2] = 0.5 * (u[:-1, :] + u[1:, :])
    v[0::2, 1::2] = 0.5 * (u[:, :-1] + u[:, 1:])
    v[1::2, 1::2] = 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])
    return v


def reference_full_scan(R, shift, sign):
    """max over the window of sign * (R_s - shift_s), one full block per offset s.

    R holds the residual blocks by offset and shift the candidate's plain
    float per offset; from below the minimum of R_s - shift_s is taken and
    negated, which is exact.
    """
    reduce = np.maximum if sign > 0 else np.minimum
    worst = R[0] - shift[0]
    for c, Rs in zip(shift[1:], R[1:]):
        worst = reduce(worst, Rs - c)
    return worst if sign > 0 else -worst


def certify_reference(u, prob, side, rho=3):
    """One side's CertificateReport with every candidate paraboloid built in full.

    The window has radius rho cells and the tolerances are eta_cert = 10 h,
    eta_touch = h^2, eta_grad = h^2 / 2 and eta_hess = h / 2.  At every node
    x0 the base gradient p and Hessian M are the central differences of u.  A candidate is (p + dp, M + dM) with dp in {0,
    +-eta_grad e_i} and dM in {0, +-eta_hess v v'} (v the axes, then the
    normalized diagonals), gradient nudge outermost.  The candidate
    phi(x) = p.x + x'Mx/2 is evaluated at every window offset x and
    subtracted from u(x0 + x) - u(x0); where sign * (u - phi) <= eta_touch
    over the whole window (sign +1 above, -1 below), the candidate's
    min (above) or max (below) of sigma_i(|p + q|) F(M) is compared with
    C0.  Each node keeps the first candidate of largest slack.  The report
    counts the nodes of slack above eta_cert from a per-node list, and the
    nodes that no candidate's touching mask ever held.
    """
    from degenlab.certifier import CertificateReport, TouchingTest
    from degenlab.elliptic import SymMatrix

    grid = u.grid
    d, n, h = grid.d, grid.n, grid.h
    eta_cert, eta_touch, eta_grad, eta_hess = 10.0 * h, h * h, 0.5 * h * h, 0.5 * h
    v = u.values
    inner = (slice(rho, n - rho),) * d

    def diff(*s):
        """u(x0 + s h) - u(x0) on the block of nodes x0."""
        return v[tuple(slice(rho + k, n - rho + k) for k in s)] - v[inner]

    def unit(i, k=1):
        return tuple(k if a == i else 0 for a in range(d))

    def plus(*ss):
        return tuple(map(sum, zip(*ss)))

    p_base = [(diff(*unit(i)) - diff(*unit(i, -1))) / (2 * h) for i in range(d)]
    triu = [(int(i), int(j)) for i, j in zip(*np.triu_indices(d))]
    m_base = {}
    for i, j in triu:
        if i == j:
            m_base[i, j] = (diff(*unit(i)) + diff(*unit(i, -1))) / (h * h)
        else:
            m_base[i, j] = (
                diff(*plus(unit(i), unit(j))) + diff(*plus(unit(i, -1), unit(j, -1)))
                - diff(*plus(unit(i), unit(j, -1))) - diff(*plus(unit(i, -1), unit(j)))
            ) / (4 * h * h)

    eye = np.eye(d)
    grads = [np.zeros(d)] + [k * eta_grad * eye[i] for i in range(d) for k in (1, -1)]
    dirs = list(eye) + [np.sqrt(0.5) * (eye[i] + k * eye[j])
                        for i in range(d) for j in range(i + 1, d) for k in (1.0, -1.0)]
    hessians = [np.zeros((d, d))] + [k * eta_hess * np.outer(w, w)
                                     for w in dirs for k in (1, -1)]
    offsets = [s for s in itertools.product(range(-rho, rho + 1), repeat=d) if any(s)]
    q = prob.q_vector(d)
    sign = 1.0 if side == "above" else -1.0
    shape = p_base[0].shape
    best = np.full(shape, -np.inf)
    best_pm = np.empty(shape, dtype=object)
    touched = np.zeros(shape, dtype=bool)
    saturated = False
    for dp in grads:
        for dM in hessians:
            p = [p_base[i] + dp[i] for i in range(d)]
            m = {(i, j): m_base[i, j] + dM[i, j] for i, j in triu}
            defect = np.full(shape, -np.inf)
            for s in offsets:
                x = [k * h for k in s]
                phi = p[0] * x[0]
                for i in range(1, d):
                    phi = phi + p[i] * x[i]
                quad = None
                for i, j in triu:
                    term = (m[i, j] if i == j else 2 * m[i, j]) * x[i] * x[j]
                    quad = term if quad is None else quad + term
                phi = phi + 0.5 * quad
                defect = np.maximum(defect, sign * (diff(*s) - phi))
            ok = defect <= eta_touch
            touched |= ok
            if not ok.any():
                continue
            g = [p[i] + q[i] for i in range(d)]
            speed = np.abs(g[0]) if d == 1 else np.hypot(g[0], g[1])
            sp, sm = prob.sigma_plus, prob.sigma_minus
            saturated = saturated or bool(np.any(speed > min(sp.t_max, sm.t_max)))
            hess = np.empty(shape + (d, d))
            for (i, j), mij in m.items():
                hess[..., i, j] = hess[..., j, i] = mij
            F = prob.operator.apply(hess)
            prods = [law(np.minimum(speed, law.t_max)) * F for law in (sp, sm)]
            val = np.minimum(*prods) if side == "above" else np.maximum(*prods)
            slack = np.where(ok, sign * val - prob.C0, -np.inf)
            for ij in zip(*np.nonzero(slack > best)):
                best[ij] = slack[ij]
                best_pm[ij] = (tuple(float(pi[ij]) for pi in p),
                               tuple(float(m[k][ij]) for k in triu))

    finite = np.isfinite(best)
    worst = float(best[finite].max()) if finite.any() else -np.inf
    violations = tuple(
        (tuple(int(k) + rho for k in ij), side, float(best[ij]))
        for ij in zip(*np.nonzero(finite & (best > eta_cert)))
    )
    witness = None
    if worst > eta_cert:
        ij = np.unravel_index(int(np.argmax(np.where(finite, best, -np.inf))), shape)
        wp, wm = best_pm[ij]
        witness = TouchingTest(center=tuple(int(k) + rho for k in ij), rho_test=rho,
                               p=wp, M=SymMatrix(d=d, upper=wm), side=side)
    return CertificateReport(
        side=side, checked_nodes=best.size, tested_candidates=len(grads) * len(hessians),
        violation_count=len(violations), untouched_nodes=int((~touched).sum()),
        max_violation=worst, eta_cert=eta_cert,
        eta_touch=eta_touch, passed=worst <= eta_cert, witness=witness,
        sigma_saturated=saturated,
    )
