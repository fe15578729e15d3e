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
A node is touched once any candidate touches it, whatever sigma F is
there: a product that overflows to the failing side is a violation of
inf, and a NaN product (inf * 0) is a NumericError naming the node.  So
is a field whose differences overflow: the first node whose window holds
a non-finite residual R_s (below) is named, before any law is evaluated.
This is a necessary-condition certificate: nodes where no candidate
survives the touching filter constrain nothing, exactly as points without
test functions constrain nothing in the continuous definition.  Two
causes leave a node untouched: a kink sharper than the quadratic family,
and, on smooth fields, a cubic Taylor term over the window larger than
eta_touch = h^2 (exact radial fields, theta = 1, d = 2, leave 508 of 3481
nodes untouched at n = 65).  The report counts those nodes
(``untouched_nodes``) and the failing ones (``violation_count``), and
names one test function, the worst failure's, as ``witness``.

The window radius is ``RHO_TEST`` = 3 cells and the tolerances are fixed
functions of h, set in one place (``_State.masked``): eta_cert = 10 h,
eta_touch = h^2, eta_grad = h^2 / 2 and eta_hess = h / 2.  They match the
accuracy at which a C^2 function's gradient and Hessian are recoverable
from exact grid samples, so exact solutions pass while O(1) equation
violations fail by a margin.

Every candidate at a node is the base paraboloid plus a nudge that is the
same at every node, so a paraboloid is built over the interior block once
per window offset s in {-rho..rho}^d \\ {0} (x_s = s h), not once per
candidate and offset:

* the residual R_s = u(x0 + x_s) - u(x0) - phi_base(x_s), one row of a
  single (offsets, *block) array per offset, written over the differences
  it is made from.  phi_base = L + Q, L its linear and Q its quadratic
  term; the offsets are symmetric (row -1-r holds -s for row r), and
  negating x_s negates each term of L and keeps each of Q exactly, so one
  L and one Q per pair give R_s -= L + Q and R_-s -= Q - L, the direct
  rows bit for bit (if u holds a -0.0, a zero's sign may differ);
* the shift table c[g, k, s] = dp_g . x_s + x_s' dM_k x_s / 2 of plain
  floats, so that u - phi = R_s - c[g, k, s];
* the touching filter max_s sign (R_s - c_s) <= eta_touch is decided from
  bounds: rounded subtraction is monotone in both arguments, so with
  top = max_s sign R_s (one reduction per side, shared by every candidate)
  and e_s = sign c_s, the defect lies between fl(top - max e) and
  fl(top - min e).  A node touches if the upper bound is at most
  eta_touch and does not if the lower one exceeds it; only the nodes in
  between are scanned over the window, one column each, with the same
  rounded differences, so the mask is the one a full scan gives;
* the masks of all candidates are kept a bit per node and the residual
  rows are freed before any law is evaluated;
* sigma depends on the gradient nudge only and F on the Hessian nudge
  only: ``ProblemInstance.law_pair`` is evaluated once per gradient nudge
  and ``EllipticOperator.apply`` once per Hessian nudge, each the first
  time a candidate with that nudge touches at some node.  A nudge whose
  candidates touch nowhere is never evaluated, so ``sigma_saturated``
  reports the gradients of touching candidates only.  A candidate forms
  both products sigma_i F and picks one, or on a one-phase problem, where
  ``law_pair`` gives one array for both laws, the one product.

Both sides of one field share one state when the field is given to
``certify_min`` and ``certify_max`` as ``BothSides(u)``: the first call
builds the Taylor data and R once, packs the touching masks of both signs
from that one R and frees it before any law is evaluated, so the peak
holds one copy of R; the second call reuses the masks and every sigma and
F value the first one made.  A field given bare is certified through a
``BothSides`` of its own, so it gets the same report at the cost of the
other side's masks.

The report's ``window_scans`` counts the (node, candidate) pairs of its
side that the bounds left open; it measures work and takes no part in
comparisons.

One state class serves every dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .grids import DiscreteField
from .problem import ProblemInstance, gradient_norm

RHO_TEST = 3  # radius of the test window, in cells


@dataclass(frozen=True)
class TouchingTest:
    """One concrete quadratic test function at one node."""

    center: tuple
    rho_test: int
    p: tuple
    M: tuple  # the Hessian's upper triangle, row by row: (m11,) or (m11, m12, m22)
    side: str


@dataclass(frozen=True)
class CertificateReport:
    """One side's verdict; the fields are in the key order of ``certificates.json``."""

    side: str
    passed: bool
    checked_nodes: int
    tested_candidates: int
    max_violation: float
    eta_cert: float
    eta_touch: float
    sigma_saturated: bool
    witness: TouchingTest | None
    violation_count: int
    untouched_nodes: int
    window_scans: int = field(default=0, compare=False)


class BothSides:
    """A field to certify on both sides from one state.

    Give it for the field to ``certify_min`` and ``certify_max`` with the
    same problem: the first call builds the state with both sides'
    touching masks, the other reuses it.  A call with another problem
    builds the state afresh.
    """

    def __init__(self, u: DiscreteField):
        self.u = u
        self.state = None

    def state_for(self, prob):
        """The masked state of both signs for prob, built once."""
        if self.state is None or self.state.prob is not prob:
            self.state = _State.masked(self.u, prob)
        return self.state


def certify_min(u: DiscreteField | BothSides, prob: ProblemInstance) -> CertificateReport:
    """Check min_i sigma_i(|p + q|) F(M) <= C0 + eta_cert from above."""
    return _certify(u, prob, side="above")


def certify_max(u: DiscreteField | BothSides, prob: ProblemInstance) -> CertificateReport:
    """Check max_i sigma_i(|p + q|) F(M) >= -C0 - eta_cert from below."""
    return _certify(u, prob, side="below")


def _certify(u: DiscreteField | BothSides, prob: ProblemInstance,
             side: str) -> CertificateReport:
    sign = 1.0 if side == "above" else -1.0
    both = u if isinstance(u, BothSides) else BothSides(u)
    state = both.state_for(prob)
    grads, hessians = state.grads, state.hessians
    eta_cert, eta_touch = state.eta_cert, state.eta_touch
    touching = state.masks[sign]

    C0 = prob.C0
    pick = np.minimum if side == "above" else np.maximum
    nodes = int(np.prod(state.block_shape))
    best_slack = np.full(state.block_shape, -np.inf)
    best_combo = np.full(state.block_shape, -1, dtype=int)
    touched = np.zeros(state.block_shape, dtype=bool)
    saturated = False

    for g in range(len(grads)):
        for k in range(len(hessians)):
            ok = np.unpackbits(touching[g][k], count=nodes).view(bool)
            if not np.any(ok):
                continue
            ok = ok.reshape(state.block_shape)
            # min/max ranges over the two products sigma_i * F, not the laws:
            # for F < 0 the larger law gives the smaller product.  A product
            # (or an F) that overflows is a violation (+inf) or a slack of
            # -inf; a NaN one (inf * 0) decides nothing and is an error.
            with np.errstate(over="ignore", invalid="ignore"):
                sigma_plus, sigma_minus, sat = state.law_values(g)
                F = state.operator_value(k)
                e_val = sigma_plus * F
                if sigma_minus is not sigma_plus:  # two laws: pick a product
                    e_val = pick(e_val, sigma_minus * F)
            saturated = saturated or sat
            slack = np.where(ok, e_val - C0 if sign > 0 else -C0 - e_val, -np.inf)
            if np.isnan(slack.max()):
                ij = np.unravel_index(int(np.argmax(np.isnan(slack))), slack.shape)
                raise NumericError(
                    f"certify: sigma * F is NaN at node "
                    f"{tuple(int(i) + state.rho for i in ij)} for a test function "
                    f"touching from {side}"
                )
            touched |= ok  # whatever the slack: a slack of -inf updates nothing
            upd = slack > best_slack
            np.copyto(best_slack, slack, where=upd)
            best_combo[upd] = g * len(hessians) + k

    # untouched nodes hold -inf, so they take no part in the maximum; a
    # slack above eta_cert, +inf too, has set its node's best_combo
    max_violation = float(best_slack.max(initial=-np.inf))
    witness = None
    if max_violation > eta_cert:
        ij = tuple(np.unravel_index(int(np.argmax(best_slack)), best_slack.shape))
        g, k = divmod(int(best_combo[ij]), len(hessians))
        witness = state.witness(ij, grads[g], hessians[k], side)

    return CertificateReport(
        side=side,
        checked_nodes=nodes,
        tested_candidates=len(grads) * len(hessians),
        violation_count=int(np.count_nonzero(best_slack > eta_cert)),
        untouched_nodes=nodes - int(np.count_nonzero(touched)),
        max_violation=max_violation,
        eta_cert=eta_cert,
        eta_touch=eta_touch,
        passed=max_violation <= eta_cert,
        witness=witness,
        sigma_saturated=saturated,
        window_scans=state.scans[sign],
    )


class _State:
    """Taylor data of u at every node of the interior block, in any d.

    ``p_base`` and ``m_base`` are the central-difference gradient and the
    upper-triangle Hessian components of u; ``R`` holds, for each window
    offset s (in the order of ``x``, the offsets times h), the block of
    u(x0 + s h) - u(x0) - phi_base(s h), the residual of u against the base
    paraboloid, as row s of one array.  ``masked`` makes the state a
    certificate runs on: R reduced to packed touching masks and freed.
    """

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # overflow is named below
    def masked(cls, u: DiscreteField, prob):
        """The state of u with every candidate's touching mask for both signs.

        The one place that sets the certificate's tolerances from h.  R is
        freed before it returns, so no law is evaluated while it lives.
        """
        h = u.grid.h
        u.assert_finite()
        state = cls(u.values, u.grid, prob, RHO_TEST)
        state.eta_cert, state.eta_touch = 10.0 * h, h * h
        state.grads, state.hessians = state.nudges(0.5 * h * h, 0.5 * h)
        shifts = state.shift_table(state.grads, state.hessians)
        # touching filter: u - phi <= eta_touch on the window (sign +1, from
        # above), phi anchored at u(x0); mirrored for sign -1 (below).
        state.masks, state.scans, bad = {}, {}, []
        for sign in (1.0, -1.0):
            before = state.window_scans
            state.masks[sign] = [[np.packbits(state.touching(shift, sign, state.eta_touch))
                                  for shift in row] for row in shifts]
            state.scans[sign] = state.window_scans - before
            # one sign's window maxima at a time: max_s R_s is finite unless
            # an R_s is NaN or +inf, and max_s -R_s unless one is NaN or -inf
            bad += np.flatnonzero(~np.isfinite(state._top.pop(sign)))[:1].tolist()
        del state.R
        if bad:
            node = np.unravel_index(min(bad), state.block_shape)
            raise NumericError(f"certify: the differences of u overflow in the window "
                               f"of node {tuple(int(i) + state.rho for i in node)}")
        return state

    def __init__(self, u, grid, prob, rho):
        d, n, h = grid.d, grid.n, grid.h
        self.d, self.prob, self.rho = d, prob, rho
        self.block_shape = (n - 2 * rho,) * d
        offsets = [s for s in itertools.product(range(-rho, rho + 1), repeat=d) if any(s)]
        # D_s = u(x0 + s h) - u(x0), each written into its row of R
        c = u[(slice(rho, n - rho),) * d]
        self.R = np.empty((len(offsets),) + self.block_shape)
        for s, Ds in zip(offsets, self.R):
            np.subtract(u[tuple(slice(rho + k, n - rho + k) for k in s)], c, out=Ds)
        row = {s: i for i, s in enumerate(offsets)}
        self.triu = [(int(i), int(j)) for i, j in zip(*np.triu_indices(d))]

        def at(*steps):
            """D at the offset sum of k e_i over the (k, i) steps."""
            s = [0] * d
            for k, i in steps:
                s[i] += k
            return self.R[row[tuple(s)]]

        self.p_base = [(at((1, i)) - at((-1, i))) / (2 * h) for i in range(d)]
        self.m_base = {
            (i, j): (at((1, i)) + at((-1, i))) / (h * h) if i == j else (
                at((1, i), (1, j)) + at((-1, i), (-1, j))
                - at((1, i), (-1, j)) - at((-1, i), (1, j))
            ) / (4 * h * h)
            for i, j in self.triu
        }

        # R_s = D_s - phi_base(s h), written over D_s: phi_base is L + Q,
        # L = sum_i p_i x_i and Q = 0.5 sum_{i<=j} (2 - [i=j]) m_ij x_i x_j,
        # each summed left to right.  Row -1-r is the offset -s of row r,
        # where L changes sign and Q does not (see the module docstring).
        self.x = np.array([[k * h for k in s] for s in offsets])
        w = [self.m_base[(i, j)] if i == j else 2 * self.m_base[(i, j)]
             for i, j in self.triu]
        axes = [(i,) for i in range(d)]
        lin, quad, tmp = (np.empty(self.block_shape) for _ in range(3))
        for x, Rs, R_neg in zip(self.x[:len(offsets) // 2].tolist(), self.R, self.R[::-1]):
            _sum_of_products(self.p_base, axes, x, lin, tmp)
            _sum_of_products(w, self.triu, x, quad, tmp)
            quad *= 0.5
            Rs -= np.add(lin, quad, out=tmp)
            R_neg -= np.subtract(quad, lin, out=tmp)
        self._top = {}  # max_s sign * R_s by sign, made on first use
        self.window_scans = 0
        self._laws = {}  # law_values by gradient nudge, made on first use
        self._F = {}  # operator_value by Hessian nudge, made on first use

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

    def touching(self, shift, sign, eta):
        """Mask of the nodes where max_s sign * (R_s - shift_s) <= eta.

        With top = max_s sign R_s and e = sign * shift, the defect
        max_s fl(sign R_s - e_s) (negation is exact) lies between
        fl(top - max e) and fl(top - min e), rounded subtraction being
        monotone in both arguments.  Those bounds decide most nodes; the
        window of each node they leave open is scanned in full, a block's
        worth of columns at a time, so that no field makes a copy of R.
        """
        if sign not in self._top:
            self._top[sign] = self.R.max(axis=0) if sign > 0 else -self.R.min(axis=0)
        top = self._top[sign]
        e = sign * shift
        ok = top - e.min() <= eta
        # a NaN in top is never open: the scan would find it and not touch
        scan = np.flatnonzero(~ok & (top - e.max() <= eta))
        rows = self.R.reshape(len(shift), -1)
        flat = ok.reshape(-1)
        step = max(1, flat.size // len(shift))
        for lo in range(0, scan.size, step):
            j = scan[lo:lo + step]
            cols = rows[:, j]
            cols -= shift[:, None]
            flat[j] = (cols.max(axis=0) if sign > 0 else -cols.min(axis=0)) <= eta
        self.window_scans += scan.size
        return ok

    def law_values(self, g):
        """(sigma_plus, sigma_minus, clamped) at the gradient p_base + dp_g + q."""
        if g not in self._laws:
            dp, q = self.grads[g], self.prob.q_vector(self.d)
            grad = [self.p_base[i] + dp[i] + q[i] for i in range(self.d)]
            self._laws[g] = self.prob.law_pair(gradient_norm(grad))
        return self._laws[g]

    def operator_value(self, k):
        """F at the Hessian m_base + dM_k of every node."""
        if k not in self._F:
            dM = self.hessians[k]
            hess = np.empty(self.block_shape + (self.d, self.d))
            for i, j in self.triu:
                hess[..., i, j] = hess[..., j, i] = self.m_base[(i, j)] + dM[i, j]
            self._F[k] = self.prob.operator.apply(hess)
        return self._F[k]

    def witness(self, ij, dp, dM, side):
        return TouchingTest(
            center=tuple(int(k) + self.rho for k in ij), rho_test=self.rho,
            p=tuple(float(self.p_base[i][ij] + dp[i]) for i in range(self.d)),
            M=tuple(float(self.m_base[(i, j)][ij] + dM[i, j]) for i, j in self.triu),
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
