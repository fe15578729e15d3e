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
nothing in the continuous definition.  The report counts those nodes
(``untouched_nodes``) and the failing ones (``violation_count``), and
names one test function, the worst failure's, as ``witness``.

Defaults eta_cert = 10 h, eta_touch = h^2, eta_grad = h^2 / 2 and
eta_hess = h / 2 match the accuracy at which a C^2 function's gradient
and Hessian are recoverable from exact grid samples, so exact solutions
pass while O(1) equation violations fail by a margin.

Every candidate at a node is the base paraboloid plus a nudge that is the
same at every node, so a paraboloid is built over the interior block once
per window offset s in {-rho..rho}^d \\ {0} (x_s = s h), not once per
candidate and offset:

* the residual R_s = u(x0 + x_s) - u(x0) - phi_base(x_s), one block over
  the whole interior per offset, written over the differences it is made
  from;
* the shift table c[g, k, s] = dp_g . x_s + x_s' dM_k x_s / 2 of plain
  floats, so that u - phi = R_s - c[g, k, s] and the touching filter is
  one subtraction and one running max (min from below) per offset;
* sigma depends on the gradient nudge only and F on the Hessian nudge
  only: ``ProblemInstance.law_pair`` is evaluated once per gradient nudge
  and ``EllipticOperator.apply`` once per Hessian nudge, each the first
  time a candidate with that nudge touches at some node.  A nudge whose
  candidates touch nowhere is never evaluated, so ``sigma_saturated``
  reports the gradients of touching candidates only.

One state class serves every dimension.
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
    violation_count: int
    untouched_nodes: int
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
    grads, hessians = state.nudges(eta_grad, eta_hess)
    shifts = state.shift_table(grads, hessians)

    q = prob.q_vector(grid.d)
    C0 = prob.C0
    sign = 1.0 if side == "above" else -1.0
    pick = np.minimum if side == "above" else np.maximum
    best_slack = np.full(state.block_shape, -np.inf)
    best_combo = np.full(state.block_shape, -1, dtype=int)
    saturated = False
    F = [None] * len(hessians)  # F at each Hessian nudge, made on first use

    for g, dp in enumerate(grads):
        laws = None  # (sigma_plus, sigma_minus) at this gradient nudge
        for k, dM in enumerate(hessians):
            # touching filter: u - phi <= eta_touch on the window (side above),
            # phi anchored at u(x0); mirrored for below.
            ok = state.touch_defect(shifts[g, k], sign) <= eta_touch
            if not np.any(ok):
                continue
            if laws is None:
                *laws, sat = state.law_values(dp, q)
                saturated = saturated or sat
            if F[k] is None:
                F[k] = state.operator_value(dM)
            # min/max ranges over the two products sigma_i * F, not the laws:
            # for F < 0 the larger law gives the smaller product.
            e_val = pick(laws[0] * F[k], laws[1] * F[k])
            slack = np.where(ok, sign * e_val - C0, -np.inf)
            upd = slack > best_slack
            np.copyto(best_slack, slack, where=upd)
            best_combo[upd] = g * len(hessians) + k
    # the report needs neither the residual blocks nor F: free them first
    state.R.clear()
    F.clear()

    finite = np.isfinite(best_slack)
    max_violation = float(best_slack[finite].max()) if np.any(finite) else -np.inf
    witness = None
    if np.any(finite) and max_violation > eta_cert:
        flat = np.where(finite, best_slack, -np.inf)
        ij = tuple(np.unravel_index(int(np.argmax(flat)), flat.shape))
        g, k = divmod(int(best_combo[ij]), len(hessians))
        witness = state.witness(ij, grads[g], hessians[k], side)

    return CertificateReport(
        side=side,
        checked_nodes=int(np.prod(state.block_shape)),
        tested_candidates=len(grads) * len(hessians),
        violation_count=int(np.count_nonzero(finite & (best_slack > eta_cert))),
        untouched_nodes=int(np.count_nonzero(best_combo < 0)),
        max_violation=max_violation,
        eta_cert=eta_cert,
        eta_touch=eta_touch,
        passed=max_violation <= eta_cert,
        witness=witness,
        sigma_saturated=saturated,
    )


class _State:
    """Taylor data of u at every node of the interior block, in any d.

    ``p_base`` and ``m_base`` are the central-difference gradient and the
    upper-triangle Hessian components of u; ``R`` holds, for each window
    offset s (in the order of ``x``, the offsets times h), the block of
    u(x0 + s h) - u(x0) - phi_base(s h), the residual of u against the base
    paraboloid.
    """

    def __init__(self, u, grid, prob, rho):
        d, n, h = grid.d, grid.n, grid.h
        self.d, self.prob, self.rho = d, prob, rho
        self.block_shape = (n - 2 * rho,) * d
        c = u[(slice(rho, n - rho),) * d]
        D = {
            s: u[tuple(slice(rho + k, n - rho + k) for k in s)] - c
            for s in itertools.product(range(-rho, rho + 1), repeat=d)
            if any(s)
        }
        self.triu = [(int(i), int(j)) for i, j in zip(*np.triu_indices(d))]

        def at(*steps):
            """D at the offset sum of k e_i over the (k, i) steps."""
            s = [0] * d
            for k, i in steps:
                s[i] += k
            return D[tuple(s)]

        self.p_base = [(at((1, i)) - at((-1, i))) / (2 * h) for i in range(d)]
        self.m_base = {
            (i, j): (at((1, i)) + at((-1, i))) / (h * h) if i == j else (
                at((1, i), (1, j)) + at((-1, i), (-1, j))
                - at((1, i), (-1, j)) - at((-1, i), (1, j))
            ) / (4 * h * h)
            for i, j in self.triu
        }

        # R_s = D_s - phi_base(s h), written over D_s: phi_base is
        # sum_i p_i x_i + 0.5 sum_{i<=j} (2 - [i=j]) m_ij x_i x_j, summed
        # left to right.
        self.x = np.array([[k * h for k in s] for s in D])
        self.R = list(D.values())
        w = [self.m_base[(i, j)] if i == j else 2 * self.m_base[(i, j)]
             for i, j in self.triu]
        axes = [(i,) for i in range(d)]
        phi, quad, tmp = (np.empty(self.block_shape) for _ in range(3))
        for x, Rs in zip(self.x.tolist(), self.R):
            _sum_of_products(self.p_base, axes, x, phi, tmp)
            _sum_of_products(w, self.triu, x, quad, tmp)
            quad *= 0.5
            phi += quad
            Rs -= phi
        self._tmp = tmp

    def nudges(self, eta_grad, eta_hess):
        """(gradient nudges, Hessian nudges), each list led by the zero nudge.

        The candidates are every (dp, dM) pair, gradient nudge outermost.
        """
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
        return grads, hess

    def shift_table(self, grads, hessians):
        """c[g, k, s] = dp_g . x_s + 0.5 x_s' dM_k x_s.

        The candidate (dp_g, dM_k) minus the base paraboloid at offset s: the
        same number at every node.
        """
        lin = np.asarray(grads) @ self.x.T
        quad = 0.5 * np.einsum("si,kij,sj->ks", self.x, np.asarray(hessians), self.x)
        return lin[:, None, :] + quad[None, :, :]

    def touch_defect(self, shift, sign):
        """max over the window of sign * (u - phi) = sign * (R_s - shift_s).

        The defect from below is -min_s (R_s - shift_s); negation is exact.
        """
        reduce = np.maximum if sign > 0 else np.minimum
        worst = np.subtract(self.R[0], shift[0])
        for c, Rs in zip(shift[1:].tolist(), self.R[1:]):
            np.subtract(Rs, c, out=self._tmp)
            reduce(worst, self._tmp, out=worst)
        if sign < 0:
            np.negative(worst, out=worst)
        return worst

    def law_values(self, dp, q):
        """(sigma_plus, sigma_minus, clamped) at the gradient p_base + dp + q."""
        g = [self.p_base[i] + dp[i] + q[i] for i in range(self.d)]
        return self.prob.law_pair(gradient_norm(g))

    def operator_value(self, dM):
        """F at the Hessian m_base + dM of every node."""
        hess = np.empty(self.block_shape + (self.d, self.d))
        for i, j in self.triu:
            hess[..., i, j] = hess[..., j, i] = self.m_base[(i, j)] + dM[i, j]
        return self.prob.operator.apply(hess)

    def witness(self, ij, dp, dM, side):
        return TouchingTest(
            center=tuple(int(k) + self.rho for k in ij), rho_test=self.rho,
            p=tuple(float(self.p_base[i][ij] + dp[i]) for i in range(self.d)),
            M=SymMatrix(d=self.d, upper=tuple(
                float(self.m_base[(i, j)][ij] + dM[i, j]) for i, j in self.triu
            )),
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
