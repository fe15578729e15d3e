"""Empirical regularity measurements on solved fields.

The regularity that the modulus construction predicts is measurable: a
field is C^1-like at x0 exactly when its best affine approximation on
the ball B_rho(x0) has sup-norm error ("affine excess") decaying faster
than rho.  This module measures that decay and compares it with a
constructed modulus:

* ``best_affine``      minimax (Chebyshev) affine fit on a discrete ball;
* ``decay_scan``       excess across dyadic scales + gradient-increment
                       cloud, with a log-log slope fit;
* ``rescale_field``    the normalization (u(x0 + r y) - affine) / (mu r)
                       used by the scale iteration, resampled onto the
                       standard grid;
* ``compare_modulus``  smallest C* with  E(rho) <= C* rho omega(rho)
                       across the measured scales, and the spread of the
                       per-scale ratios (how uniformly omega envelopes
                       the measured decay).

Balls are sup-norm balls of node coordinates (exact node counting on the
grid; all norms here are equivalent up to dimensional constants).  The
minimax fit is seeded by least squares and refined to the exact
Chebyshev optimum by linear programming; every fit carries the LP's
optimality certificate (HiGHS duality gap at most 1e-9 max(1, excess)).
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DomainError, NumericError
from .grids import DiscreteField, Grid, corners
from .modulus import Modulus
from .problem import gradient_norm

DUALITY_GAP_TOL = 1e-9
MIN_SCALE_CELLS = 3
CLEAN_AFFINE_TOL = 1e-12
GRAD_PAIR_MIN_CELLS = 2
GRAD_MAX_NODES_PER_AXIS = 24


@dataclass(frozen=True)
class AffineFit:
    """Best affine a + b.(x - x0) on the discrete ball B_rho(x0)."""

    x0: tuple
    rho: float
    a: float
    b: tuple
    excess: float
    n_nodes: int
    certified: bool

    def __post_init__(self):
        if self.excess < 0.0:
            raise DomainError("AffineFit: excess must be non-negative")

    def __call__(self, *coords):
        out = np.full_like(np.asarray(coords[0], dtype=float), self.a)
        for bi, ci, x0i in zip(self.b, coords, self.x0):
            out = out + bi * (np.asarray(ci, dtype=float) - x0i)
        return out


@dataclass(frozen=True)
class DecayProfile:
    """Affine-excess decay of one field around one center."""

    x0: tuple
    scales: tuple
    excesses: tuple
    rates: tuple
    slope: float | None
    intercept: float | None
    clean_affine: bool
    truncated: bool
    gradient_pairs: tuple

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
        for s, e, r in zip(self.scales, self.excesses, self.rates):
            yield (s, e, r)


@dataclass(frozen=True)
class ModulusComparison:
    """Fitted envelope constant C* and per-scale ratios E/(rho omega)."""

    scales: tuple
    ratios: tuple
    C_star: float
    spread: float


def _ball_nodes(grid: Grid, x0, rho: float):
    """Coordinates (flattened) and values mask of the sup-ball B_rho(x0)."""
    x0 = tuple(float(v) for v in x0)
    if len(x0) != grid.d:
        raise DomainError("ball center dimension does not match the grid")
    tol = 1e-12 * max(1.0, rho)
    coords = grid.meshgrid()
    mask = np.logical_and.reduce([np.abs(c - x0i) <= rho + tol for c, x0i in zip(coords, x0)])
    return tuple(c[mask] for c in coords), mask


def best_affine(u: DiscreteField, x0, rho: float) -> AffineFit:
    """Minimax affine fit of u on the discrete sup-ball B_rho(x0)."""
    if rho <= 0.0:
        raise DomainError("best_affine: rho must be positive")
    grid = u.grid
    coords, mask = _ball_nodes(grid, x0, rho)
    vals = u.values[mask].astype(float)
    m = vals.size
    if m < grid.d + 2:
        raise DomainError(
            f"best_affine: ball B_{rho}(x0) holds {m} nodes, "
            f"need at least {grid.d + 2}"
        )
    x0 = tuple(float(v) for v in x0)
    # design matrix [1, x - x0]
    A = np.ones((m, grid.d + 1))
    for j in range(grid.d):
        A[:, j + 1] = coords[j] - x0[j]

    seed, *_ = np.linalg.lstsq(A, vals, rcond=None)

    # Chebyshev refinement: minimize t subject to |A z - vals| <= t.
    nvar = grid.d + 2
    c = np.zeros(nvar)
    c[-1] = 1.0
    ones = np.ones((m, 1))
    A_ub = np.block([[A, -ones], [-A, -ones]])
    b_ub = np.concatenate([vals, -vals])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * (nvar - 1) + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise NumericError(f"best_affine: minimax refinement failed: {res.message}")
    z = res.x[:-1]
    seed_excess = float(np.max(np.abs(A @ seed - vals)))
    excess = float(np.max(np.abs(A @ z - vals)))
    if seed_excess < excess:
        z, excess = seed, seed_excess
    # Weak duality: b_ub @ marginals bounds every feasible excess from below.
    gap = excess - float(b_ub @ res.ineqlin.marginals)
    certified = bool(gap <= DUALITY_GAP_TOL * max(1.0, excess))
    return AffineFit(
        x0=x0,
        rho=float(rho),
        a=float(z[0]),
        b=tuple(float(v) for v in z[1:]),
        excess=excess,
        n_nodes=m,
        certified=certified,
    )


def decay_scan(u: DiscreteField, x0, r: float, N: int) -> DecayProfile:
    """Affine-excess decay at scales r^1..r^N around x0.

    Scales that do not fit in the grid (ball leaving the domain) or that
    the mesh cannot resolve (radius below 3h) are dropped and the
    profile is flagged truncated.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("decay_scan: r must lie in (0, 1)")
    if N < 1:
        raise DomainError("decay_scan: N must be at least 1")
    grid = u.grid
    x0 = tuple(float(v) for v in x0)
    margin = 1.0 - max(abs(v) for v in x0) if x0 else 1.0

    scales, excesses, rates = [], [], []
    truncated = False
    for nlev in range(1, N + 1):
        rho = r**nlev
        if rho > margin + 1e-12 or rho < MIN_SCALE_CELLS * grid.h:
            truncated = True
            continue
        fit = best_affine(u, x0, rho)
        scales.append(rho)
        excesses.append(fit.excess)
        rates.append(fit.excess / rho)
    if not scales:
        raise DomainError(
            "decay_scan: no scale between 3h and the boundary margin; "
            "refine the grid or shrink r"
        )
    if truncated:
        warnings.warn("decay_scan: some scales unresolvable; profile truncated",
                      stacklevel=2)

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
        x0=x0,
        scales=tuple(sc.tolist()),
        excesses=tuple(ex.tolist()),
        rates=tuple((ex / sc).tolist()),
        slope=slope,
        intercept=intercept,
        clean_affine=clean,
        truncated=truncated,
        gradient_pairs=_gradient_pairs(u),
    )


def _gradient_pairs(u: DiscreteField):
    """Deterministic cloud of (|x-y|, |grad_h u(x) - grad_h u(y)|) samples.

    Central-difference gradients on a coarse deterministic subgrid,
    paired along the axes at gaps of 2h, 4h, 8h, ... (pairs closer than
    2h only measure stencil noise and are skipped).
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
    gaps = []
    gap = GRAD_PAIR_MIN_CELLS
    while gap < grid.n - 2:
        gaps.append(gap)
        gap *= 2
    pairs = []
    for gap in gaps:
        keep = idx[idx + gap <= grid.n - 2]
        if keep.size == 0:
            continue
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
            pairs.extend((gap * h, float(dv)) for dv in diff[np.isfinite(diff)])
    return tuple(pairs)


def rescale_field(u: DiscreteField, fit: AffineFit, r: float, mu: float) -> DiscreteField:
    """(u(x0 + r y) - a - b.(r y)) / (mu r), resampled on the unit grid.

    This is the normalization of the scale iteration: if the affine
    approximates u to mu * r on B_r(x0), the rescaled field has sup-norm
    at most 1 on the unit ball.  Values between nodes are obtained by
    (bi)linear interpolation.
    """
    if mu <= 0.0 or not (0.0 < r <= 1.0):
        raise DomainError("rescale_field: need mu > 0 and r in (0, 1]")
    grid = u.grid
    if max(abs(v) for v in fit.x0) + r > 1.0 + 1e-12:
        raise DomainError("rescale_field: B_r(x0) leaves the grid")
    ys = grid.meshgrid()
    sampled = _interp(u, tuple(fit.x0[j] + r * ys[j] for j in range(grid.d)))
    affine = fit.a
    for j in range(grid.d):
        affine = affine + fit.b[j] * (r * ys[j])
    return DiscreteField(grid=grid, values=(sampled - affine) / (mu * r))


def _interp(u: DiscreteField, coords):
    """Multilinear interpolation of a grid field at coordinate arrays."""
    grid = u.grid
    h = grid.h
    idx_frac = []
    for c in coords:
        c = np.asarray(c, dtype=float)
        if np.any(c < -1.0 - 1e-12) or np.any(c > 1.0 + 1e-12):
            raise DomainError("interpolation outside the grid")
        t = np.clip((c + 1.0) / h, 0.0, grid.n - 1.0)
        i0 = np.minimum(t.astype(int), grid.n - 2)
        idx_frac.append((i0, t - i0))
    terms = []
    for corner in corners(grid.d):
        weights = [f if c else 1 - f for (_, f), c in zip(idx_frac, corner)]
        node = tuple(i0 + c for (i0, _), c in zip(idx_frac, corner))
        terms.append(functools.reduce(operator.mul, weights) * u.values[node])
    return sum(terms[1:], terms[0])


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
