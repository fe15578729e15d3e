"""Brute-force reference computations shared by the test suite.

Everything here is deliberately independent of the package internals: plain
formulas, random sampling, and dense grid searches that the fast
implementations must agree with.
"""

import itertools

import numpy as np


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


def geometric_tailed_sequence(rng):
    """Random positive sequence with a geometric tail (for rescaling tests)."""
    m = int(rng.integers(5, 60))
    q = rng.uniform(0.05, 0.9)
    scale = rng.uniform(0.1, 10.0)
    jitter = rng.uniform(0.5, 1.5, size=m)
    return scale * jitter * q ** np.arange(1, m + 1)


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


def bilinear_reference(u, h, x, y):
    """Bilinear interpolation of u[i, j] at (-1 + i h, -1 + j h), point by point."""
    out = np.empty(np.shape(x))
    for k, (xk, yk) in enumerate(zip(np.ravel(x), np.ravel(y))):
        i = min(int((xk + 1.0) / h), u.shape[0] - 2)
        j = min(int((yk + 1.0) / h), u.shape[1] - 2)
        fx, fy = (xk + 1.0) / h - i, (yk + 1.0) / h - j
        out.flat[k] = ((1 - fx) * (1 - fy) * u[i, j] + fx * (1 - fy) * u[i + 1, j]
                       + (1 - fx) * fy * u[i, j + 1] + fx * fy * u[i + 1, j + 1])
    return out


def certify_reference(u, prob, cfg, side):
    """One side's CertificateReport with every candidate paraboloid built in full.

    At every node x0 the base gradient p and Hessian M are the central
    differences of u.  A candidate is (p + dp, M + dM) with dp in {0,
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
    rho, eta_cert, eta_touch, eta_grad, eta_hess = cfg.resolved(h)
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
