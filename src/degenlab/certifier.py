"""Discrete certificates for the two viscosity inequalities.

A continuous viscosity solution of sigma_{sgn(u)}(|Du + q|) F(D^2 u) = f
with |f| <= C0 satisfies, at every point and for every C^2 test function
phi touching u there,

    touching from above:  min_i [sigma_i(|D phi + q|) F(D^2 phi)] <= C0
    touching from below:  max_i [sigma_i(|D phi + q|) F(D^2 phi)] >= -C0

(the min/max over the two phase products absorbs the unknown interface;
note it ranges over the products, so for F < 0 the larger law yields the
smaller product).  The
discrete counterpart tested here enumerates quadratic test functions at
every interior node x0:

* the base candidate is the second-order Taylor polynomial of the grid
  field (central differences for p = D phi and M = D^2 phi);
* the gradient is perturbed by +-eta_grad along the axes and the Hessian
  by +-eta_hess v v' over the stencil directions v (the axes, then the two
  diagonals of each pair of axes), sweeping the O(h^2) / O(h) uncertainty
  of those finite differences;
* a candidate counts as touching from above if u - phi <= eta_touch on
  the full window of radius rho_test cells around x0 (phi is anchored at
  u(x0)), and symmetrically from below.

Every surviving candidate must satisfy its inequality up to eta_cert.
This is a necessary-condition certificate: nodes where no candidate
survives the touching filter (kinks sharper than the quadratic family)
constrain nothing, exactly as points without test functions constrain
nothing in the continuous definition.

Defaults eta_cert = 10 h, eta_touch = h^2, eta_grad = h^2 / 2 and
eta_hess = h / 2 match the accuracy at which a C^2 function's gradient
and Hessian are recoverable from exact grid samples, so exact solutions
pass while O(1) equation violations fail by a margin.

One state class serves every dimension: it holds u(x0 + s h) - u(x0) for
the window offsets s in {-rho..rho}^d \\ {0} over the whole interior block.
The equation value of each candidate uses the package's single evaluations
of its two objects, ``EllipticOperator.apply`` on the batch of candidate
Hessians and ``ProblemInstance.law_pair`` at the candidate gradients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .elliptic import SymMatrix
from .errors import DomainError
from .grids import DiscreteField
from .problem import ProblemInstance, gradient_norm

_DEFAULT_RHO_TEST = 3


@dataclass(frozen=True)
class CertifierConfig:
    """Tolerances of the discrete certificate; None means the h-default."""

    rho_test: int = _DEFAULT_RHO_TEST
    eta_cert: float | None = None
    eta_touch: float | None = None
    eta_grad: float | None = None
    eta_hess: float | None = None

    def resolved(self, h: float):
        return (
            self.rho_test,
            self.eta_cert if self.eta_cert is not None else 10.0 * h,
            self.eta_touch if self.eta_touch is not None else h * h,
            self.eta_grad if self.eta_grad is not None else 0.5 * h * h,
            self.eta_hess if self.eta_hess is not None else 0.5 * h,
        )


@dataclass(frozen=True)
class TouchingTest:
    """One concrete quadratic test function at one node."""

    center: tuple
    rho_test: int
    p: tuple
    M: SymMatrix
    side: str


@dataclass(frozen=True)
class CertificateReport:
    side: str
    checked_nodes: int
    tested_candidates: int
    violations: tuple
    max_violation: float
    eta_cert: float
    eta_touch: float
    passed: bool
    witness: TouchingTest | None
    sigma_saturated: bool


def certify_min(u: DiscreteField, prob: ProblemInstance,
                cfg: CertifierConfig = CertifierConfig()) -> CertificateReport:
    """Check min_i sigma_i(|p + q|) F(M) <= C0 + eta_cert from above."""
    return _certify(u, prob, cfg, side="above")


def certify_max(u: DiscreteField, prob: ProblemInstance,
                cfg: CertifierConfig = CertifierConfig()) -> CertificateReport:
    """Check max_i sigma_i(|p + q|) F(M) >= -C0 - eta_cert from below."""
    return _certify(u, prob, cfg, side="below")


def _certify(u: DiscreteField, prob: ProblemInstance, cfg: CertifierConfig,
             side: str) -> CertificateReport:
    grid = u.grid
    h = grid.h
    rho, eta_cert, eta_touch, eta_grad, eta_hess = cfg.resolved(h)
    if rho < 1:
        raise DomainError("certifier: rho_test must be at least one cell")
    if 2 * rho + 1 > grid.n:
        raise DomainError("certifier: test window does not fit on the grid")
    u.assert_finite()

    state = _State(u.values, grid, prob, rho)

    q = prob.q_vector(grid.d)
    C0 = prob.C0
    sign = 1.0 if side == "above" else -1.0
    best_slack = np.full(state.block_shape, -np.inf)
    best_combo = np.full(state.block_shape, -1, dtype=int)
    tested = 0
    saturated = False

    for combo_id, (dp, dM) in enumerate(state.combos(eta_grad, eta_hess)):
        tested += 1
        p, m = state.candidate(dp, dM)
        # touching filter: u - phi <= eta_touch on the window (side above),
        # phi anchored at u(x0); mirrored for below.
        defect = state.touch_defect(p, m, sign)
        ok = defect <= eta_touch
        if not np.any(ok):
            continue
        e_val, sat = state.inequality_value(p, m, q, side)
        saturated = saturated or sat
        slack = np.where(ok, sign * e_val - C0, -np.inf)
        upd = slack > best_slack
        best_slack = np.where(upd, slack, best_slack)
        best_combo = np.where(upd, combo_id, best_combo)

    finite = np.isfinite(best_slack)
    max_violation = float(best_slack[finite].max()) if np.any(finite) else -np.inf
    viol_idx = np.argwhere(finite & (best_slack > eta_cert))
    violations = tuple(
        (state.node_index(tuple(ij)), side, float(best_slack[tuple(ij)]))
        for ij in viol_idx
    )
    witness = None
    if np.any(finite) and max_violation > eta_cert:
        flat = np.where(finite, best_slack, -np.inf)
        ij = tuple(np.unravel_index(int(np.argmax(flat)), flat.shape))
        witness = state.witness(ij, int(best_combo[ij]), eta_grad, eta_hess, side)

    return CertificateReport(
        side=side,
        checked_nodes=int(np.prod(state.block_shape)),
        tested_candidates=tested,
        violations=violations,
        max_violation=max_violation,
        eta_cert=eta_cert,
        eta_touch=eta_touch,
        passed=max_violation <= eta_cert,
        witness=witness,
        sigma_saturated=saturated,
    )


class _State:
    """Taylor data of u at every node of the interior block, in any d.

    ``D`` maps each window offset s to the block of u(x0 + s h) - u(x0); the
    base gradient and Hessian are its central differences, the Hessian kept
    as its upper-triangle components.
    """

    def __init__(self, u, grid, prob, rho):
        d, n, h = grid.d, grid.n, grid.h
        self.d, self.prob, self.rho = d, prob, rho
        self.block_shape = (n - 2 * rho,) * d
        c = u[(slice(rho, n - rho),) * d]
        self.D = {
            s: u[tuple(slice(rho + k, n - rho + k) for k in s)] - c
            for s in itertools.product(range(-rho, rho + 1), repeat=d)
            if any(s)
        }
        self.window = [([k * h for k in s], Ds) for s, Ds in self.D.items()]
        self.triu = [(int(i), int(j)) for i, j in zip(*np.triu_indices(d))]

        def at(*steps):
            """D at the offset sum of k e_i over the (k, i) steps."""
            s = [0] * d
            for k, i in steps:
                s[i] += k
            return self.D[tuple(s)]

        self.p_base = [(at((1, i)) - at((-1, i))) / (2 * h) for i in range(d)]
        self.m_base = {
            (i, j): (at((1, i)) + at((-1, i))) / (h * h) if i == j else (
                at((1, i), (1, j)) + at((-1, i), (-1, j))
                - at((1, i), (-1, j)) - at((-1, i), (1, j))
            ) / (4 * h * h)
            for i, j in self.triu
        }

    def combos(self, eta_grad, eta_hess):
        """(dp, dM) over the gradient nudges x the Hessian nudges, base first."""
        d = self.d
        axes = list(np.eye(d))
        grads = [np.zeros(d)]
        for e in axes:
            grads += [eta_grad * e, -eta_grad * e]
        dirs = axes + [
            np.sqrt(0.5) * (axes[i] + sgn * axes[j])
            for i in range(d) for j in range(i + 1, d) for sgn in (1.0, -1.0)
        ]
        hess = [np.zeros((d, d))]
        for v in dirs:
            vv = np.outer(v, v)
            hess += [eta_hess * vv, -eta_hess * vv]
        for dp in grads:
            for dM in hess:
                yield dp, dM

    def candidate(self, dp, dM):
        """Gradient components and upper-triangle Hessian of one paraboloid."""
        p = [self.p_base[i] + dp[i] for i in range(self.d)]
        m = {(i, j): self.m_base[(i, j)] + dM[i, j] for i, j in self.triu}
        return p, m

    def touch_defect(self, p, m, sign):
        """max over the window of sign * (u - phi), phi the candidate paraboloid.

        phi = sum_i p_i x_i + 0.5 sum_{i<=j} (2 - [i=j]) m_ij x_i x_j, summed
        left to right into preallocated buffers: the offset loop allocates
        nothing, which keeps it off the allocator's page-fault path.
        """
        w = [m[(i, j)] if i == j else 2 * m[(i, j)] for i, j in self.triu]
        axes = [(i,) for i in range(self.d)]
        worst = np.full(self.block_shape, -np.inf)
        phi, quad, tmp = (np.empty(self.block_shape) for _ in range(3))
        for x, Ds in self.window:
            _sum_of_products(p, axes, x, phi, tmp)
            _sum_of_products(w, self.triu, x, quad, tmp)
            quad *= 0.5
            phi += quad
            np.subtract(Ds, phi, out=phi)
            phi *= sign
            np.maximum(worst, phi, out=worst)
        return worst

    def inequality_value(self, p, m, q, side):
        g = [p[i] + q[i] for i in range(self.d)]
        sp, sm, sat = self.prob.law_pair(gradient_norm(g))
        hess = np.empty(self.block_shape + (self.d, self.d))
        for (i, j), v in m.items():
            hess[..., i, j] = hess[..., j, i] = v
        F = self.prob.operator.apply(hess)
        # min/max ranges over the two products sigma_i * F, not the laws:
        # for F < 0 the larger law gives the smaller product.
        if side == "above":
            return np.minimum(sp * F, sm * F), sat
        return np.maximum(sp * F, sm * F), sat

    def node_index(self, ij):
        return tuple(int(k) + self.rho for k in ij)

    def witness(self, ij, combo_id, eta_grad, eta_hess, side):
        dp, dM = list(self.combos(eta_grad, eta_hess))[combo_id]
        p, m = self.candidate(dp, dM)
        return TouchingTest(
            center=self.node_index(ij), rho_test=self.rho,
            p=tuple(float(pi[ij]) for pi in p),
            M=SymMatrix(d=self.d, upper=tuple(float(m[k][ij]) for k in self.triu)),
            side=side,
        )


def _sum_of_products(coefs, index, x, out, tmp):
    """out = sum_k coefs[k] * prod_{i in index[k]} x[i], left to right, in place."""
    for k, (a, idx) in enumerate(zip(coefs, index)):
        dst = tmp if k else out
        np.multiply(a, x[idx[0]], out=dst)
        for i in idx[1:]:
            dst *= x[i]
        if k:
            out += tmp
