"""Brute-force reference computations shared by the test suite.

Everything here is deliberately independent of the package internals: plain
formulas, random sampling, and dense grid searches that the fast
implementations must agree with.
"""

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
