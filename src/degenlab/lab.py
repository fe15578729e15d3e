"""Empirical regularity measurements on solved fields.

The regularity that the modulus construction predicts is measurable: a
field is C^1-like at x0 exactly when its best affine approximation on
the ball B_rho(x0) has sup-norm error ("affine excess") decaying faster
than rho.  This module measures that decay and compares it with a
constructed modulus:

* ``best_affine``      minimax (Chebyshev) affine fit on a discrete ball;
* ``decay_scan``       excess across dyadic scales around one center, with
                       a log-log slope fit;
* ``gradient_pairs``   the gradient-increment cloud of the whole field, one
                       (m, 2) array; it does not depend on any center;
* ``compare_modulus``  smallest C* with  E(rho) <= C* rho omega(rho)
                       across the measured scales, and the spread of the
                       per-scale ratios (how uniformly omega envelopes
                       the measured decay).

Balls are sup-norm balls of node coordinates (exact node counting on the
grid; all norms here are equivalent up to dimensional constants).  The
minimax fit is exact.  It is the exchange (dual simplex) method of
discrete linear Chebyshev approximation (Stiefel, Numer. Math. 1, 1959;
Cheney, Introduction to Approximation Theory, ch. 2): a reference of
d + 2 ball nodes with signs is levelled, and the most violated node is
swapped in until no residual exceeds the level.  The final reference and
its dual weights are the fit's optimality certificate: they give the
de la Vallee Poussin lower bound on every affine fit's error, and the fit
is certified when that bound is within 1e-9 max(1, excess) of the
excess.  A fit that has not settled after EXCHANGE_STEP_CAP steps raises
NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .grids import DiscreteField, Grid, corners
from .modulus import Modulus
from .problem import gradient_norm

DUALITY_GAP_TOL = 1e-9
WEIGHT_TOL = 1e-12  # slack of sum(y) = 1 and sum(y s A) = 0 in the certificate
LEVEL_TOL = 2.0**-46  # optimality slack of the exchange, values scaled into [-1, 1]
PIVOT_TOL = 1e-12  # smallest ratio-test pivot, relative to the largest
EXCHANGE_STEP_CAP = 1000
MIN_SCALE_CELLS = 3
CLEAN_AFFINE_TOL = 1e-12
GRAD_PAIR_MIN_CELLS = 2
GRAD_MAX_NODES_PER_AXIS = 24


@dataclass(frozen=True)
class AffineFit:
    """Best affine a + b.(x - x0) on the discrete ball B_rho(x0)."""

    rho: float
    a: float
    b: tuple
    excess: float
    n_nodes: int
    certified: bool
    reference: tuple  # d + 2 indices into the ball's nodes, row-major
    weights: tuple  # their signed dual weights y_i s_i
    exchange_steps: int

    def __post_init__(self):
        if self.excess < 0.0:
            raise DomainError("AffineFit: excess must be non-negative")


@dataclass(frozen=True)
class DecayProfile:
    """Affine-excess decay of one field around one center."""

    scales: tuple
    excesses: tuple
    rates: tuple
    slope: float | None
    intercept: float | None
    clean_affine: bool
    truncated: bool
    uncertified: int  # fits whose duality gap exceeds DUALITY_GAP_TOL
    exchange_steps: int  # dual simplex steps over all fits

    def __post_init__(self):
        if len(self.scales) != len(self.rates) or len(self.scales) != len(self.excesses):
            raise DomainError("DecayProfile: scales/excesses/rates lengths differ")
        diffs = np.diff(np.asarray(self.scales, dtype=float))
        if np.any(diffs >= 0.0):
            raise DomainError("DecayProfile: scales must be strictly decreasing")
        if not all(math.isfinite(v) for v in self.rates):
            raise DomainError("DecayProfile: rates must be finite")

    def rows(self):
        """(scale, excess, rate) triples for CSV export."""
        return zip(self.scales, self.excesses, self.rates)


@dataclass(frozen=True)
class ModulusComparison:
    """Fitted envelope constant C* and per-scale ratios E/(rho omega)."""

    scales: tuple
    ratios: tuple
    C_star: float
    spread: float


def _ball_nodes(grid: Grid, x0, rho: float):
    """Coordinates (flattened, row-major) and index box of the sup-ball B_rho(x0)."""
    x0 = tuple(float(v) for v in x0)
    if len(x0) != grid.d:
        raise DomainError("ball center dimension does not match the grid")
    tol = 1e-12 * max(1.0, rho)
    axis = grid.axis
    ranges = [np.flatnonzero(np.abs(axis - x0i) <= rho + tol) for x0i in x0]
    coords = np.meshgrid(*(axis[r] for r in ranges), indexing="ij")
    return tuple(c.ravel() for c in coords), np.ix_(*ranges)


def _center(caller: str, x0) -> tuple:
    """x0 as a tuple of floats; a DomainError unless it lies in [-1, 1]^d."""
    x0 = tuple(float(v) for v in x0)
    if not all(abs(v) <= 1.0 + 1e-12 for v in x0):  # also rejects a NaN
        raise DomainError(f"{caller}: center {x0} lies outside [-1, 1]^d")
    return x0


def best_affine(u: DiscreteField, x0, rho: float) -> AffineFit:
    """Minimax affine fit of u on the discrete sup-ball B_rho(x0).

    The fit is exact: ``_exchange`` runs the dual simplex of the
    Chebyshev problem on the ball's nodes and returns the optimal affine
    function with its reference and dual weights.  The values are scaled
    by a power of two first, which is exact, so the fit is the same at
    every magnitude a double holds.  ``certified`` checks that
    certificate: the weights y >= 0 sum to 1, sum_i y_i s_i (1, x_i - x0)
    vanishes, and the lower bound sum_i y_i s_i u_i they give on every
    affine fit's error is within DUALITY_GAP_TOL max(1, excess) of the
    excess.

    A center outside [-1, 1]^d, a non-finite value in the ball and a ball
    of fewer than d + 2 nodes are DomainErrors; a fit that does not fit in
    a double or needs more than EXCHANGE_STEP_CAP steps is a NumericError.
    """
    if rho <= 0.0:
        raise DomainError("best_affine: rho must be positive")
    # inside the cube, every ball of d + 2 nodes spans d dimensions
    x0 = _center("best_affine", x0)
    grid = u.grid
    coords, box = _ball_nodes(grid, x0, rho)
    vals = u.values[box].ravel().astype(float)
    m = vals.size
    if m < grid.d + 2:
        raise DomainError(
            f"best_affine: ball B_{rho}(x0) holds {m} nodes, "
            f"need at least {grid.d + 2}"
        )
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"best_affine: ball B_{rho}({x0}) holds a non-finite value")
    # design matrix [1, x - x0]
    A = np.ones((m, grid.d + 1))
    for j in range(grid.d):
        A[:, j + 1] = coords[j] - x0[j]

    _, e = np.frexp(np.max(np.abs(vals)))
    z, residual, reference, sign, y, steps = _exchange(A, np.ldexp(vals, -e))
    with np.errstate(over="ignore"):
        z, excess = np.ldexp(z, e), float(np.ldexp(np.max(np.abs(residual)), e))
    if not (np.all(np.isfinite(z)) and math.isfinite(excess)):
        raise NumericError(f"best_affine: the fit on B_{rho}({x0}) overflows a double")
    weights = sign * y
    # |partial sums| <= max |vals|, as sum |weights| = 1: no overflow
    lower = float(weights @ vals[reference])
    certified = bool(
        np.all(y >= -WEIGHT_TOL)
        and abs(y.sum() - 1.0) <= WEIGHT_TOL
        and np.max(np.abs(weights @ A[reference])) <= WEIGHT_TOL
        and excess - lower <= DUALITY_GAP_TOL * max(1.0, excess)
    )
    return AffineFit(
        rho=float(rho),
        a=float(z[0]),
        b=tuple(float(v) for v in z[1:]),
        excess=excess,
        n_nodes=m,
        certified=certified,
        reference=tuple(int(i) for i in reference),
        weights=tuple(float(w) for w in weights),
        exchange_steps=steps,
    )


def _exchange(A: np.ndarray, v: np.ndarray):
    """Exact min_z max_i |v_i - A_i z| by the dual simplex (exchange) method.

    A is the (m, k) design [1, x - x0] of a box of nodes.  The dual is
    max sum_i y_i s_i v_i over y >= 0, sum y = 1, sum_i y_i s_i A_i = 0
    with signs s_i; its basic solutions are references of k + 1 nodes.
    Each step levels the reference (s_i (v_i - A_i z) = t on it, one
    (k + 1) x (k + 1) system), scans every residual, and stops when none
    exceeds the level t by more than LEVEL_TOL.  Otherwise the most
    violated node enters with the sign of its residual, and the ratio
    test picks the node that leaves; ties go to the smallest node index.

    Returns z, the residual v - A z, the reference, its signs s and
    weights y, and the number of exchange steps.
    """
    k = A.shape[1]
    # start: the box's corner nodes, and in 1-d the middle node between them
    ref = [int(np.argmax(A[:, 1:] @ (2.0 * np.array(c) - 1.0))) for c in corners(k - 1)]
    if len(ref) < k + 1:
        ref.insert(1, A.shape[0] // 2)
    ref = np.array(ref)
    # signs of the reference's one affine dependence, oriented so that t >= 0
    lam = np.append(np.linalg.solve(A[ref[:k]].T, -A[ref[k]]), 1.0)
    sign = np.sign(lam) * (1.0 if lam @ v[ref] >= 0.0 else -1.0)
    last = np.eye(k + 1)[-1]
    for steps in range(EXCHANGE_STEP_CAP + 1):
        basis = np.vstack([(sign[:, None] * A[ref]).T, np.ones(k + 1)])
        level = np.linalg.solve(basis.T, sign * v[ref])
        z = level[:k]
        residual = v - A @ z
        j = int(np.argmax(np.abs(residual)))
        if abs(residual[j]) - level[k] <= LEVEL_TOL:
            return z, residual, ref, sign, np.linalg.solve(basis, last), steps
        s = 1.0 if residual[j] > 0.0 else -1.0
        y, w = np.linalg.solve(basis, np.column_stack([last, np.append(s * A[j], 1.0)])).T
        pivots = np.flatnonzero(w > PIVOT_TOL * np.max(np.abs(w)))  # never empty: sum(w) = 1
        ratio = np.maximum(y[pivots], 0.0) / w[pivots]
        ties = pivots[ratio == ratio.min()]
        out = ties[np.argmin(ref[ties])]
        ref[out], sign[out] = j, s
    raise NumericError(
        f"best_affine: the exchange did not settle in {EXCHANGE_STEP_CAP} steps"
    )


def decay_scan(u: DiscreteField, x0, r: float, N: int) -> DecayProfile:
    """Affine-excess decay at scales r^1..r^N around x0.

    Scales that do not fit in the grid (ball leaving the domain) or that
    the mesh cannot resolve (radius below 3h) are dropped and the
    profile is flagged truncated.  A center outside [-1, 1]^d is a
    DomainError, as in ``best_affine``.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("decay_scan: r must lie in (0, 1)")
    if N < 1:
        raise DomainError("decay_scan: N must be at least 1")
    grid = u.grid
    x0 = _center("decay_scan", x0)
    margin = 1.0 - max(abs(v) for v in x0) if x0 else 1.0

    scales, excesses = [], []
    truncated, uncertified, steps = False, 0, 0
    for nlev in range(1, N + 1):
        rho = r**nlev
        if rho > margin + 1e-12 or rho < MIN_SCALE_CELLS * grid.h:
            truncated = True
            continue
        fit = best_affine(u, x0, rho)
        scales.append(rho)
        excesses.append(fit.excess)
        uncertified += not fit.certified
        steps += fit.exchange_steps
    if not scales:
        raise DomainError(
            "decay_scan: no scale between 3h and the boundary margin; "
            "refine the grid or shrink r"
        )

    sc = np.asarray(scales)
    ex = np.asarray(excesses)
    clean = bool(np.all(ex <= CLEAN_AFFINE_TOL * np.maximum(1.0, float(u.sup_norm()))))
    slope = intercept = None
    if not clean:
        pos = ex > 0.0
        if int(pos.sum()) >= 2:
            coef = np.polyfit(np.log(sc[pos]), np.log(ex[pos] / sc[pos]), 1)
            slope, intercept = float(coef[0]), float(coef[1])

    return DecayProfile(
        scales=tuple(sc.tolist()),
        excesses=tuple(ex.tolist()),
        rates=tuple((ex / sc).tolist()),
        slope=slope,
        intercept=intercept,
        clean_affine=clean,
        truncated=truncated,
        uncertified=uncertified,
        exchange_steps=steps,
    )


def gradient_pairs(u: DiscreteField) -> np.ndarray:
    """Deterministic cloud of (|x-y|, |grad_h u(x) - grad_h u(y)|) samples.

    Central-difference gradients on a coarse deterministic subgrid,
    paired along the axes at gaps of 2h, 4h, 8h, ... (pairs closer than
    2h only measure stencil noise and are skipped).  Returns one (m, 2)
    array, rows ordered by gap, then axis, then node (row-major).
    """
    grid = u.grid
    h = grid.h
    v = u.values
    grads = []
    for axis in range(grid.d):
        lo, mid, hi = ((slice(None),) * axis + (s,)
                       for s in (slice(None, -2), slice(1, -1), slice(2, None)))
        g = np.full(grid.shape, np.nan)
        g[mid] = (v[hi] - v[lo]) / (2 * h)
        grads.append(g)

    stride = max(1, (grid.n - 2) // GRAD_MAX_NODES_PER_AXIS)
    idx = np.arange(1, grid.n - 1, stride)
    pairs = []
    gap = GRAD_PAIR_MIN_CELLS
    while gap < grid.n - 2:
        keep = idx[idx + gap <= grid.n - 2]  # holds idx[0] = 1, as gap <= n - 3
        for axis in range(grid.d):
            sl_from = np.ix_(*(keep if a == axis else idx for a in range(grid.d)))
            sl_to = np.ix_(*(keep + gap if a == axis else idx for a in range(grid.d)))
            comps = [g[sl_to] - g[sl_from] for g in grads]
            with np.errstate(over="ignore"):
                sq = sum(c ** 2 for c in comps)
            # sqrt of the sum where it is a normal double, else gradient_norm,
            # which neither overflows nor underflows
            normal = np.isfinite(sq) & (sq >= np.finfo(float).tiny)
            diff = np.where(normal, np.sqrt(sq), gradient_norm(comps)).ravel()
            diff = diff[np.isfinite(diff)]
            pairs.append(np.column_stack([np.full(diff.size, gap * h), diff]))
        gap *= 2
    return np.concatenate(pairs)


def compare_modulus(profile: DecayProfile, omega: Modulus) -> ModulusComparison:
    """Smallest C* with E(rho) <= C* rho omega(rho) on the measured scales."""
    scales = np.asarray(profile.scales, dtype=float)
    excesses = np.asarray(profile.excesses, dtype=float)
    om = np.asarray(omega(scales), dtype=float)
    denom = scales * om
    if np.any((denom <= 0.0) & (excesses > 0.0)):
        raise DomainError(
            "compare_modulus: omega vanishes at a scale with positive excess"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(denom > 0.0, excesses / denom, 0.0)
    C_star = float(ratios.max()) if ratios.size else 0.0
    pos = ratios[ratios > 0.0]
    spread = float(pos.max() / pos.min()) if pos.size else 0.0
    return ModulusComparison(
        scales=tuple(scales.tolist()),
        ratios=tuple(ratios.tolist()),
        C_star=C_star,
        spread=spread,
    )
