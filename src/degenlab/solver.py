"""Wide-stencil and flux-form discretizations and a pseudo-transient Newton solver.

Discretization
--------------
Second derivatives are approximated by directional second differences

    Delta_e u(x) = (u(x + h e) - 2 u(x) + u(x - h e)) / (h |e|)^2

over stencil directions e.  In 2-d two orthogonal frames are available on a
uniform grid: the axis frame {(1,0), (0,1)} and the diagonal frame
{(1,1), (1,-1)}.  The discrete operators are

    trace      Delta_x + Delta_y                       (5-point Laplacian)
    pucci -/+  min / max over frames of sum_e phi(Delta_e)
               with phi_minus(t) = lam t^+ + Lam t^-,
                    phi_plus(t)  = Lam t^+ + lam t^-
    bellman    min_i sum_e w_e(A_i) Delta_e, each A_i diagonal in a frame

Each is a min (or max) of linear branches sum_e c_e Delta_e with c_e >= 0
(phi(t) = phi'(t) t, so a pucci branch takes c_e = phi'(Delta_e)), hence
non-decreasing in every neighbour value, and so is sigma F_h for frozen
sigma.  The residual is

    R(u) = sigma_{sgn(u)}(max(|grad_h u + q|, eps_deg)) F_h(u) - f

with central gradients; sigma_{sgn(u)} is ProblemInstance.law_pair followed
by problem.select_phase, the same evaluation the certifier uses (one law
on a one-phase problem; past t_max each law is frozen, see ``laws``).

Time stepping
-------------
The solver follows the pseudo-time flow u_t = R(u) to its steady state by
pseudo-transient continuation (Kelley & Keyes 1998).  Each step solves

    (diag(1/dt) - J(u)) delta = R(u),    u <- u + delta,

where J is the frozen-policy Jacobian of R: the active pucci frame or
bellman branch, the slope phi'(Delta_e) and the phase of every node are
held fixed, which makes the step one semismooth Newton / Howard
policy-iteration step (Bokanowski, Maroso & Zidani 2009) damped by 1/dt.
``residual_interior`` evaluates R and returns with it an assembler of J,
a stencil coefficient stack built from the same arrays (gradient, law
values, branch values and F), so each iterate is evaluated once.  J is
assembled only for a step that factors, at most once per iterate: a
back-solve with a kept factorization, the explicit step and the iterate
of a rejected trial never pay for it.  The second differences are taken
only in the directions some branch reads (2 of the 4 in 2-d for trace
and axis-frame bellman operators).  The wide-stencil J also carries
F_h sigma'(|grad_h u|) d|grad_h u|/du through the central gradient, with
sigma' one relative central difference of the law itself
(``DegeneracyLaw.derivative``).  In the flux form, J is tridiagonal with
edge weight sigma_phase(max(|s + q|, eps_deg)) / h^2.  Each discretization
picks the pattern that solves diag(1/dt) - J once, from the dimension.  In
1-d every stencil is tridiagonal, and ``_TridiagonalPattern`` solves the
three bands by LAPACK dgtsv's elimination with partial pivoting, run on
Python floats (``_gtsv``), so a 1-d solve loads no scipy module.  In 2-d
``_StencilPattern`` builds one CSC matrix, factored by SuperLU with the MMD
ordering of A^T + A; scipy is imported where that step is solved, so the
commands that solve nothing, and 1-d solves, never load it.

dt is a per-node array, a multiple of the explicit stability cap: the
center weight of F_h is at most 2 d Lam_F / h^2, and 0.9 of the cap with
sigma taken as the neighbour max over the stencil keeps an explicit update
u <- u + dt R(u) monotone (pointwise sigma lets dt and sigma oscillate in
antiphase around a CFL-lag limit cycle); the cap never exceeds h.  A cold
solve (no start) begins at the mean boundary value and at the cap.  A
solve given a start, as ``solve_cascade`` gives each refined level the
refined solution below, starts warm, at _WARM times the cap, where the
first step is nearly a Newton step: a refined coarse solution is close
enough for pseudo-time to take its large steps at once (Kelley & Keyes
1998).  If that warm step is rejected, the solve restarts once on the
cold path, at the cap.  After an accepted step dt grows by
switched evolution relaxation, dt <- dt |R_prev| / |R|, so it approaches
a pure Newton step as the residual falls; a step accepted at its first
try at least doubles dt.  A step is rejected when delta is not finite or
the residual rises; dt is then halved, and once the cut reaches the cap
the step is the explicit update at the cap, which is always taken.  The
fixed points are those of the explicit relaxation: only the path through
pseudo-time changes.

In 2-d a step may reuse an older factorization, a Shamanskii (chord)
step (Shamanskii, Ukrain. Mat. Zh. 19, 1967; Kelley, Solving Nonlinear
Equations with Newton's Method, SIAM 2003): it solves with the matrix
diag(1/dt') - J(u') of an earlier iterate u' and its dt'.  Once the
growth reaches _WARM, 1/dt is at most about 1e-3 of J's centre weight,
so a kept matrix differs from a fresh one by the change in J, not in dt;
only there is the factorization ``_StencilPattern`` kept tried before a
new one.  A reused step passes the same test as any other (finite, rms
not rising), leaves the growth of dt as it is, since its matrix carries
the old dt, and records dt' as the step's dt.  A factorization is kept
for the next step only if the step it just gave, fresh or reused, cut
the rms to at most _RSHAM = 0.5 of its value (nsold's rsham).  A rejected
reuse drops it and the same step is factored afresh at the same dt, with
no cut.  Every solve builds its own pattern, so no factorization crosses
the levels of a cascade, and a level's first step is always factored.
In 1-d nothing is kept: ``_gtsv`` factors and solves in one pass.  On
radial-power (d = 2, n = 65, tol 1e-4) the cascade makes 14
factorizations instead of 21.  Reuse at any growth was measured worse: a
noisy start at n = 65 took 17 factorizations and 5 rejected steps, not
13 and 3.

Acceptance and growth measure R by its root mean square; the stop at
cfg.tol stays in the sup norm.  The sup norm sits on one boundary-layer or
front node for hundreds of steps while the rest of the grid converges.
The floor on the growth serves degenerate regions, where a cold start
sinks nearly uniformly and R falls additively: by the residual ratio
alone, dt stays near the cap for over a thousand steps (1-d radial power,
n = 97: 1261 steps with the ratio alone, 32 with the floor).

Scheme selection
----------------
In one dimension with F = trace the equation is an exact divergence,
(G(u'))' = f with G the primitive of sigma, and the conservative scheme
below (_FluxDiscretization1D) is used instead of the pointwise one: its
discrete flux balance telescopes like the continuum first integral, which
pins the solution branch at degenerate free boundaries.  The pointwise
wide-stencil form admits spurious grid-anchored roots there (a dip whose
central gradient vanishes feeds sigma ~ 0 back into f / sigma).  No such
divergence structure exists for general F or in 2-d, where the pointwise
form with central gradients is consistent and empirically stable on
single-phase and smooth-interface problems.  Neither form is monotone as a
whole: sigma F_h is for frozen sigma, but sigma reads the central
gradient, and the flux form is only while no edge changes phase (see
tests/test_properties.py).  ``scheme_name`` makes the choice for
``solve`` and for the run configuration, so the scheme a run records is
the one the solver drives to zero.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverDivergenceError
from .grids import MIN_NODES, DiscreteField, Grid, refine_linear
from .problem import ProblemInstance, gradient_norm, select_phase

# Default step cap of SchemeConfig and of the config key "max_iter": a step
# costs a residual evaluation and mostly a factorization, and converging
# solves take tens.
MAX_ITER = 1000

_EXPLODE_FACTOR = 1e8
_SAFETY = 0.9
_FRAME_ALIGN_TOL = 1e-12
_DT_CUT = 2.0
# First dt of a solve given a start (a refined coarse solution), as a multiple
# of the explicit cap: a start near the solution takes nearly a Newton step.
_WARM = 1e3
# Least growth of dt after a step accepted at its first try.
_DT_GROWTH_MIN = 2.0
# dt never grows past this multiple of the explicit cap; 1/dt is negligible
# against J long before, and the bound limits the cuts after a rejection.
_DT_GROWTH_MAX = 1e12
# A factorization is kept for the next step while the step it gave cut the
# rms residual to at most this fraction (Kelley 2003, nsold's rsham).
_RSHAM = 0.5

# Second-difference directions per dimension, and the frames over them.
_DIRECTIONS = {1: ((1,),), 2: ((1, 0), (0, 1), (1, 1), (1, -1))}
_FRAMES = {"axis": (0, 1), "diag": (2, 3)}


@dataclass(frozen=True)
class SchemeConfig:
    """Knobs of the pseudo-time iteration.

    ``eps_deg`` clamps the gradient magnitude fed to the degeneracy law from
    below; it regularizes the 0/0 ambiguity of sigma(|Du|) F(D^2 u) = f on
    the degenerate set and should scale with the accuracy target, not with
    machine precision.  ``max_iter`` caps ``SolveDiagnostics.iterations``.
    Where a solve starts is ``solve``'s ``start``, set per level by the cascade.
    """

    max_iter: int = MAX_ITER
    tol: float = 1e-8
    eps_deg: float = 1e-4

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("SchemeConfig: max_iter must be positive")
        if not (0.0 < self.tol < np.inf):
            raise ConfigError("SchemeConfig: tol must be positive and finite")
        if not (0.0 <= self.eps_deg < np.inf):
            raise ConfigError("SchemeConfig: eps_deg must be non-negative and finite")


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one solve ran.

    ``iterations`` counts accepted iterates (the steps taken plus one),
    ``linear_solves`` the factorizations made, fresh ones only: a step
    back-solved with a kept factorization makes none.  ``rejected_steps``
    counts the trial steps thrown away, reused ones included.
    ``solve_cascade`` fills ``levels`` with one record per grid, coarsest
    first.  The fields are declared in the key order of
    solve_diagnostics.json.  ``reused_steps`` (accepted steps taken with a
    kept factorization), ``residual_evaluations`` (the start and every
    trial) and ``cold_restarts`` (warm first steps rejected, each of which
    restarts the solve on the cold path) are work counters for the
    manifest, not results: they are left out of comparisons and of
    solve_diagnostics.json, and in the diagnostics ``solve_cascade``
    returns they are summed over the levels.
    """

    scheme: str
    converged: bool
    iterations: int
    linear_solves: int
    rejected_steps: int
    final_residual: float
    dt: float
    dt_min: float
    eps_deg: float
    sigma_clamped: bool
    residual_history: tuple
    levels: tuple = ()
    reused_steps: int = dataclasses.field(default=0, compare=False)
    residual_evaluations: int = dataclasses.field(default=0, compare=False)
    cold_restarts: int = dataclasses.field(default=0, compare=False)


# The fields of SolveDiagnostics that count work: those left out of comparisons.
WORK_COUNTERS = tuple(f.name for f in dataclasses.fields(SolveDiagnostics) if not f.compare)


class _StencilPattern:
    """Sparse CSC pattern of a fixed stencil on the interior nodes (2-d steps).

    ``matrix(J, dt)`` takes a stencil coefficient stack J of shape
    (len(offsets), *shape), where J[k] at a node multiplies the value at
    node + offsets[k], and returns diag(1/dt) - J in one build.  Neighbours
    outside the interior carry Dirichlet data and are dropped.  Exact zeros
    are not stored, as SuperLU's ordering depends on the stored entries.
    ``solve(J, dt, r)`` factors that matrix with SuperLU and returns the
    delta with (diag(1/dt) - J) delta = r, or None if it is exactly singular.
    It keeps the factorization and its dt as ``kept`` (None after a
    singular one); ``back_solve(r)`` solves with it again, at the cost of
    one pair of triangular solves, for the Shamanskii steps of ``solve``,
    which sets ``kept`` to None once the factorization stops paying.
    """

    kept = None  # (SuperLU factorization, its dt) of the last solve

    def __init__(self, shape: tuple, offsets: list):
        size = int(np.prod(shape))
        index = np.arange(size).reshape(shape)
        rows, cols = [], []
        for off in offsets:
            node = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, shape))
            nbr = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, shape))
            rows.append(index[node].ravel())
            cols.append(index[nbr].ravel())
        src = np.concatenate([k * size + r for k, r in enumerate(rows)])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.lexsort((rows, cols))
        self.size = size
        self.src = src[order]
        self.diagonal = np.flatnonzero(rows[order] == cols[order])
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.searchsorted(cols[order], np.arange(size + 1)).astype(np.int32)

    def matrix(self, coeffs: np.ndarray, dt: np.ndarray):
        from scipy import sparse

        data = -coeffs.reshape(-1)[self.src]
        data[self.diagonal] += 1.0 / dt.ravel()
        # eliminate_zeros prunes the index arrays in place: give it copies
        A = sparse.csc_matrix((data, self.indices.copy(), self.indptr.copy()),
                              shape=(self.size,) * 2)
        A.eliminate_zeros()
        return A

    def solve(self, coeffs: np.ndarray, dt: np.ndarray, r: np.ndarray):
        from scipy.sparse.linalg import splu

        self.kept = None
        try:
            lu = splu(self.matrix(coeffs, dt), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # exactly singular
            return None
        self.kept = lu, dt
        return lu.solve(r.ravel()).reshape(r.shape)

    def back_solve(self, r: np.ndarray):
        return self.kept[0].solve(r.ravel()).reshape(r.shape)


class _TridiagonalPattern:
    """The 1-d step: diag(1/dt) - J straight from the stencil stack's bands.

    A 1-d stencil couples each interior node to itself and its two
    neighbours, so ``bands(J, dt)`` gives the matrix as its sub-, main and
    super-diagonal, and ``solve(J, dt, r)`` solves it by ``_gtsv``
    (Gaussian elimination with partial pivoting), or returns None if it is
    exactly singular.  The same interface as ``_StencilPattern``, with no
    sparse matrix built.  It keeps no factorization (``kept`` stays None):
    ``_gtsv`` factors and solves in one O(n) pass that costs about four
    fifths of a residual evaluation (flux form, n = 129, shared 2-core
    x86-64 host).  A kept factorization would save only the elimination,
    about two thirds of that pass, and not the evaluation that a reused
    step still needs, so every 1-d step is factored afresh.
    """

    kept = None

    def __init__(self, offsets: list):
        self.rows = [offsets.index((o,)) for o in (-1, 0, 1)]

    def bands(self, coeffs: np.ndarray, dt: np.ndarray):
        lower, center, upper = (coeffs[k] for k in self.rows)
        return -lower[1:], 1.0 / dt - center, -upper[:-1]

    def solve(self, coeffs: np.ndarray, dt: np.ndarray, r: np.ndarray):
        return _gtsv(*self.bands(coeffs, dt), r)


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray):
    """x with A x = b for the tridiagonal A with bands dl, d, du, or None.

    LAPACK's dgtsv for one right-hand side (Anderson et al., LAPACK Users'
    Guide, SIAM 1999; Golub & Van Loan, Matrix Computations, 4.3): Gaussian
    elimination with partial pivoting, where an interchange fills in a
    second superdiagonal (kept in dl), then back substitution.  It runs on
    Python floats with the same operations in the same order, so x is
    dgtsv's bit for bit, and it returns None where dgtsv reports INFO > 0,
    an exactly zero pivot.  Python raises on x / 0, where IEEE gives inf
    or NaN.  That happens only past a NaN pivot (|NaN| >= |0| is false, so
    the rows swap and the pivot becomes 0), where x is NaN and x / 0 is x.
    Which NaN a product of two NaNs keeps depends on the order of its
    factors (CPython on x86-64 keeps the second), so each product is
    written in the order that keeps the NaN that scipy's dgtsv keeps.
    """
    dl, d, du, b = dl.tolist(), d.tolist(), du.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] == 0.0:
                return None
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            try:
                fact = d[i] / dl[i]
            except ZeroDivisionError:  # d[i] is NaN
                fact = d[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:  # the fill-in
                dl[i] = du[i + 1]
                du[i + 1] = -(fact * dl[i])
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        return None
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        if i == n - 2:
            x = b[i] - b[i + 1] * du[i]  # this order: see the docstring
        else:
            x = b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]
        try:
            b[i] = x / d[i]
        except ZeroDivisionError:  # past a NaN pivot
            b[i] = x
    return np.array(b)


def _shift(u: np.ndarray, off) -> np.ndarray:
    """Values at node + off for every interior node."""
    return u[tuple(slice(1 + o, n - 1 + o) for o, n in zip(off, u.shape))]


def _neg(off: tuple) -> tuple:
    return tuple(-o for o in off)


class _Discretization:
    """Grid-resolved form of one problem: arrays ready for iteration."""

    name = "wide"

    def __init__(self, prob: ProblemInstance, grid: Grid, eps_deg: float):
        self.grid = grid
        self.prob = prob
        self.eps_deg = float(eps_deg)
        self.h = grid.h
        self.q = prob.q_vector(grid.d)
        self.f_int = prob.f_on(grid)[grid.interior]
        op = prob.operator
        d = grid.d
        lam_f = 1.0 if op.kind == "trace" else op.pair.Lam
        self.center_bound = 2.0 * d * lam_f / self.h**2

        # Linear branches of F_h: (direction indices, coefficients); None
        # marks a pucci branch, whose coefficients are phi'(Delta_e).
        axis = _FRAMES["axis"][:d]
        if op.kind == "trace":
            self.branches = [(axis, (1.0,) * d)]
        elif op.kind == "bellman-min-of-traces":
            self.branches = [
                (_FRAMES[frame][:d], w)
                for frame, w in (_frame_weights(np.asarray(A), d) for A in op.coefficients)
            ]
        else:
            self.branches = [(_FRAMES[frame][:d], None) for frame in ("axis", "diag")[:d]]
            lam, Lam = op.pair.lam, op.pair.Lam
            self.slopes = (lam, Lam) if op.kind == "pucci-minus" else (Lam, lam)
        self.pick_max = op.kind == "pucci-plus"

        # the directions the branches read; J also couples along the axes
        self.directions = sorted({k for ks, _ in self.branches for k in ks})
        self.offsets = [(0,) * d]
        for k in sorted(set(self.directions) | set(axis)):
            e = _DIRECTIONS[d][k]
            self.offsets += [e, _neg(e)]
        self.offset_index = {off: i for i, off in enumerate(self.offsets)}
        self.pattern = (_TridiagonalPattern(self.offsets) if d == 1
                        else _StencilPattern(self.f_int.shape, self.offsets))

    # -- interior differential quantities ---------------------------------

    def _gradient(self, u: np.ndarray) -> list:
        """Central-difference gradient components, shifted by q."""
        axes = _DIRECTIONS[self.grid.d][: self.grid.d]
        return [
            (_shift(u, e) - _shift(u, _neg(e))) / (2.0 * self.h) + qa
            for e, qa in zip(axes, self.q)
        ]

    def second_differences(self, u: np.ndarray) -> dict:
        """Delta_e u on the interior for each direction index k a branch reads."""
        c = u[self.grid.interior]
        h2 = self.h**2
        out = {}
        for k in self.directions:
            e = _DIRECTIONS[self.grid.d][k]
            out[k] = (_shift(u, e) - 2.0 * c + _shift(u, _neg(e))) / (h2 * float(np.dot(e, e)))
        return out

    def _branch_values(self, u: np.ndarray):
        """[(direction indices, coefficients, value)] of each linear branch."""
        diffs = self.second_differences(u)
        out = []
        for ks, w in self.branches:
            if w is None:
                up, down = self.slopes
                w = [np.where(diffs[k] > 0.0, up, down) for k in ks]
            terms = [wk * diffs[k] for k, wk in zip(ks, w)]
            out.append((ks, w, sum(terms[1:], terms[0])))
        return out

    def _reduce(self, values: list) -> np.ndarray:
        return (np.maximum if self.pick_max else np.minimum).reduce(values)

    def residual_interior(self, u: np.ndarray):
        """(R, sigma_{sgn(u)}, clamped, jacobian) on the interior.

        ``clamped`` tells whether law_pair froze a law.  ``jacobian()``
        returns J, the stencil coefficient stack of the frozen-policy
        derivative of R at u: the active branch, each pucci slope
        phi'(Delta_e) and the phase of every node are held fixed.  It
        assembles J from this evaluation's arrays on its first call and
        returns the same stack after, so only a step that factors pays
        for J.
        """
        g = self._gradient(u)
        norm = gradient_norm(g)
        speed = np.maximum(norm, self.eps_deg)
        sp, sm, clamped = self.prob.law_pair(speed)
        c = u[self.grid.interior]
        sig = select_phase(c, sp, sm)
        branches = self._branch_values(u)
        F = self._reduce([v for _, _, v in branches])
        jacobian = functools.partial(self._jacobian, g, norm, speed, sp, sm, c, sig, branches, F)
        return sig * F - self.f_int, sig, clamped, functools.cache(jacobian)

    def _jacobian(self, g, norm, speed, sp, sm, c, sig, branches, F) -> np.ndarray:
        """J of ``residual_interior`` from the arrays of that evaluation."""
        d, h = self.grid.d, self.h
        active = (np.argmax if self.pick_max else np.argmin)(
            np.stack([v for _, _, v in branches]), axis=0)
        coeffs = np.zeros((len(self.offsets),) + F.shape)
        for j, (ks, w, _) in enumerate(branches):
            on = active == j
            for k, wk in zip(ks, w):
                e = _DIRECTIONS[d][k]
                a = np.where(on, sig * wk, 0.0) / (h**2 * float(np.dot(e, e)))
                coeffs[self.offset_index[e]] += a
                coeffs[self.offset_index[_neg(e)]] += a
                coeffs[0] -= 2.0 * a

        live = norm > self.eps_deg
        slope, dm = self.prob.per_law(lambda law: law.derivative(speed))
        if slope is not dm:  # two laws: each phase's slope, the smaller law's at u = 0
            slope = select_phase(c, slope, dm, np.where(sp <= sm, slope, dm))
        t = np.where(live, F * slope / np.where(live, norm, 1.0), 0.0) / (2.0 * h)
        for e, ga in zip(_DIRECTIONS[d][:d], g):
            coeffs[self.offset_index[e]] += t * ga
            coeffs[self.offset_index[_neg(e)]] -= t * ga
        return coeffs


class _FluxDiscretization1D:
    """Conservative form of the 1-d trace equation.

    With F = trace the equation sigma_{sgn(u)}(|u' + q|) u'' = f is exactly
    (G_{sgn(u)}(u'))' = f for the flux G(s) = Psi(s + q) - Psi(q), where
    Psi(w) = sgn(w) * P(|w|), P the primitive of sigma (past t_max as in
    ``laws``), so dG/ds = sigma and J below is R's derivative.  The scheme

        R_i = (G(D+ u_i) - G(D- u_i)) / h - f_i

    with midpoint fluxes telescopes exactly like the continuum first
    integral, so it inherits the continuum's selection of the solution
    branch at degenerate interfaces (where u' = 0 and both phase fluxes
    vanish).  The pointwise nonconservative form admits spurious
    grid-anchored roots there; see the wide-stencil class.

    Each edge flux takes the law of the phase both endpoint values share;
    across a sign-change edge the smaller flux magnitude is used, the
    discrete counterpart of the minimal-law convention at u = 0.  At a
    nondegenerate sign change this enforces continuity of the phase flux
    rather than of the gradient; the two coincide exactly in the
    degenerate-interface regime the equation is designed around.
    """

    name = "flux-1d"
    offsets = [(-1,), (0,), (1,)]

    def __init__(self, prob: ProblemInstance, grid: Grid, eps_deg: float):
        self.grid = grid
        self.prob = prob
        self.eps_deg = float(eps_deg)
        self.h = grid.h
        self.f_int = prob.f_on(grid)[grid.interior]
        self.q = float(prob.q_vector(1)[0])
        self.center_bound = 2.0 / grid.h**2
        self.pattern = _TridiagonalPattern(self.offsets)
        self.psi_q = prob.per_law(lambda law: self._psi(law, self.q))  # each phase's Psi(q)

    @staticmethod
    def _psi(law, w):
        return np.sign(w) * law.primitive(np.abs(w))

    def _edges(self, u: np.ndarray):
        """Edge fluxes, the sigma of the branch each edge uses, and the clamp flag.

        That sigma, at max(|s + q|, eps_deg), is the flux's slope dG/ds.
        """
        w = (u[1:] - u[:-1]) / self.h + self.q
        gp, gm = self.prob.per_law(lambda law: self._psi(law, w))
        sp, sm, clamped = self.prob.law_pair(np.maximum(np.abs(w), self.eps_deg))
        gp, gm = gp - self.psi_q[0], gm - self.psi_q[1]
        pair_sign = np.sign(u[1:] + u[:-1])
        plus_smaller = np.abs(gp) <= np.abs(gm)
        flux = select_phase(pair_sign, gp, gm, np.where(plus_smaller, gp, gm))
        sig = select_phase(pair_sign, sp, sm, np.where(plus_smaller, sp, sm))
        return flux, sig, clamped

    def residual_interior(self, u: np.ndarray):
        """(R, per-node sigma for the dt cap, clamped, jacobian) on the interior.

        ``jacobian()`` returns J, the frozen-phase derivative of R, as in
        the wide-stencil class: assembled from this evaluation's edge sigmas
        on its first call.  J is tridiagonal: edge e couples its two nodes
        with weight sigma_e / h^2, the flux's slope.
        """
        flux, sig_edge, clamped = self._edges(u)
        r = (flux[1:] - flux[:-1]) / self.h - self.f_int
        jacobian = functools.cache(functools.partial(self._jacobian, sig_edge))
        return r, np.maximum(sig_edge[1:], sig_edge[:-1]), clamped, jacobian

    def _jacobian(self, sig_edge: np.ndarray) -> np.ndarray:
        w = sig_edge / self.h**2
        return np.stack((w[:-1], -(w[:-1] + w[1:]), w[1:]))


def _frame_weights(A: np.ndarray, d: int):
    """Directional weights of tr(A D^2 u) in a grid-aligned frame.

    In 1-d the coefficient is the scalar itself.  In 2-d the matrix must be
    diagonal either in the axis frame (off-diagonal zero) or in the diagonal
    frame (equal diagonal entries); otherwise its trace form cannot be
    written with grid second differences and the configuration is rejected.
    A coefficient whose size is not the grid's dimension is rejected too.
    """
    if A.shape != (d, d):
        raise ConfigError(
            f"bellman coefficients are {A.shape[0]}x{A.shape[1]}, the grid is {d}-d"
        )
    if d == 1:
        return ("axis", (float(A[0, 0]),))
    scale = max(1.0, float(np.abs(A).max()))
    if abs(A[0, 1]) <= _FRAME_ALIGN_TOL * scale:
        return ("axis", (float(A[0, 0]), float(A[1, 1])))
    if abs(A[0, 0] - A[1, 1]) <= _FRAME_ALIGN_TOL * scale:
        a, b = float(A[0, 0]), float(A[0, 1])
        return ("diag", (a + b, a - b))
    raise ConfigError(
        "bellman coefficient is not diagonal in the axis or diagonal frame; "
        "the wide stencil cannot represent it monotonically"
    )


def _start_values(start, grid: Grid, g_vals: np.ndarray) -> np.ndarray:
    """The first iterate: ``start`` (None: the mean boundary value) with g on the boundary."""
    mask = grid.boundary_mask()
    if start is None:
        u = np.full(grid.shape, np.mean(g_vals[mask]))
    elif isinstance(start, DiscreteField) and start.grid == grid:
        u = start.values.copy()
    else:
        raise ConfigError("start is not a field on the solve's grid")
    u[mask] = g_vals[mask]
    if not np.all(np.isfinite(u)):
        raise ConfigError("start field and boundary data must be finite")
    return u


def _neighbor_max(s: np.ndarray) -> np.ndarray:
    """Running max of a node array with its grid neighbours.

    One update step moves every nodal value, so the sigma relevant for a
    node's next-step stability is the largest in its stencil, not its own;
    using the pointwise value lets sigma and dt oscillate in antiphase and
    sustains a CFL-lag limit cycle.
    """
    out = s.copy()
    for axis in range(s.ndim):
        hi = (slice(None),) * axis + (slice(1, None),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        np.maximum(out[hi], s[lo], out=out[hi])
        np.maximum(out[lo], s[hi], out=out[lo])
    return out


def scheme_name(prob: ProblemInstance, grid: Grid) -> str:
    """The discretization ``solve`` uses: "flux-1d" on 1-d trace problems,
    "wide" otherwise (see the module docstring)."""
    if grid.d == 1 and prob.operator.kind == "trace":
        return _FluxDiscretization1D.name
    return _Discretization.name


def _make_discretization(prob: ProblemInstance, grid: Grid, eps_deg: float):
    flux = scheme_name(prob, grid) == _FluxDiscretization1D.name
    return (_FluxDiscretization1D if flux else _Discretization)(prob, grid, eps_deg)


def _sup(r: np.ndarray) -> float:
    return float(np.max(np.abs(r))) if r.size else 0.0


def _rms(r: np.ndarray) -> float:
    top = _sup(r)  # scaled, so that r * r cannot overflow
    if not (0.0 < top < np.inf):
        return top
    return top * float(np.sqrt(np.mean((r / top) ** 2)))


def _advance(u: np.ndarray, delta, interior: tuple):
    """u + delta on the interior, or None if delta is None or not finite."""
    if delta is None:
        return None
    trial = u.copy()
    trial[interior] += delta
    return trial if np.all(np.isfinite(trial)) else None


def solve(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig = SchemeConfig(),
          start: DiscreteField | None = None):
    """Drive the residual to zero by pseudo-transient continuation.

    ``start`` None is a cold start at the mean boundary value; a DiscreteField
    on ``grid`` starts warm (see the module docstring), which pays when it is
    a refined solution and can cost steps when it is far off.  A start on
    another grid, or non-finite start or boundary data, is a ConfigError.

    Returns (field, diagnostics).  Convergence is declared when the sup
    norm of the interior residual drops below cfg.tol.  Hitting max_iter
    returns converged=False; a residual blow-up past 1e8 times its starting
    level (or any non-finite value) raises SolverDivergenceError.
    """
    disc = _make_discretization(prob, grid, cfg.eps_deg)
    u = _start_values(start, grid, prob.g_on(grid))
    interior = grid.interior

    r, sig, sigma_clamped, jacobian = disc.residual_interior(u)
    res0 = res_norm = _sup(r)
    rms = _rms(r)
    warm = start is not None
    growth = _WARM if warm else 1.0  # dt as a multiple of the explicit cap
    pattern = disc.pattern
    history = []
    dt_last, dt_min_seen = grid.h, np.inf
    solves = rejected = reused = restarts = it = 0
    evaluations = 1

    def diag(converged: bool) -> SolveDiagnostics:
        return SolveDiagnostics(
            iterations=it,
            final_residual=float(res_norm),
            dt=float(dt_last),
            dt_min=float(dt_min_seen if np.isfinite(dt_min_seen) else dt_last),
            converged=converged,
            eps_deg=cfg.eps_deg,
            residual_history=tuple(history),
            sigma_clamped=sigma_clamped,
            scheme=disc.name,
            linear_solves=solves,
            rejected_steps=rejected,
            reused_steps=reused,
            residual_evaluations=evaluations,
            cold_restarts=restarts,
        )

    for it in range(1, cfg.max_iter + 1):
        if not np.isfinite(res_norm):
            raise SolverDivergenceError("residual became non-finite", diag(False))
        history.append((it, res_norm))
        if res_norm <= cfg.tol:
            return DiscreteField(grid=grid, values=u), diag(True)
        if res_norm > _EXPLODE_FACTOR * max(res0, 1.0):
            raise SolverDivergenceError(
                f"residual grew to {res_norm:.3e} from {res0:.3e}", diag(False)
            )

        dt = _SAFETY / (disc.center_bound * np.maximum(_neighbor_max(sig), 1e-300))
        dt = np.minimum(dt, grid.h)
        first_try, explicit = True, False
        # in the Newton regime a kept factorization is tried before a new one
        reuse = pattern.kept is not None and growth >= _WARM
        while True:
            if explicit:  # the update at the cap, always taken
                step = dt
                trial = _advance(u, dt * r, interior)
            elif reuse:
                step = pattern.kept[1]
                trial = _advance(u, pattern.back_solve(r), interior)
            else:
                step = growth * dt
                trial = _advance(u, pattern.solve(jacobian(), step, r), interior)
                solves += 1
            if trial is not None:
                r_t, sig_t, clamped, jacobian_t = disc.residual_interior(trial)
                evaluations += 1
                rms_t = _rms(r_t)
                if explicit or rms_t <= rms:
                    break
            elif explicit:
                raise SolverDivergenceError("iterate became non-finite", diag(False))
            rejected += 1
            if reuse:  # the same step again, freshly factored at the same dt
                reuse = False
                continue
            if warm:  # the warm start missed: restart once on the cold path
                growth, warm = 1.0, False
                restarts += 1
                continue
            first_try = False
            growth /= _DT_CUT
            if growth <= 1.0:
                growth, explicit = 1.0, True
                pattern.kept = None
        warm = False

        if reuse:  # its matrix carries the old dt: growth stays
            reused += 1
        else:
            ratio = rms / rms_t if rms_t > 0.0 else _DT_GROWTH_MAX
            if first_try:
                ratio = max(ratio, _DT_GROWTH_MIN)
            if ratio > 1.0:
                growth = min(growth * ratio, _DT_GROWTH_MAX)
        if rms_t > _RSHAM * rms:
            pattern.kept = None
        u, r, sig, jacobian, rms, res_norm = trial, r_t, sig_t, jacobian_t, rms_t, _sup(r_t)
        sigma_clamped = sigma_clamped or clamped
        dt_last = float(np.max(step))
        dt_min_seen = min(dt_min_seen, float(np.min(step)))

    return DiscreteField(grid=grid, values=u), diag(False)


def cascade_sizes(n: int) -> list:
    """Grid sizes of ``solve_cascade``, coarsest first: n halves, as (n + 1) / 2,
    while n - 1 is even and the coarse grid keeps MIN_NODES nodes per axis."""
    sizes = [n]
    while (n - 1) % 2 == 0 and (n + 1) // 2 >= MIN_NODES:
        n = (n + 1) // 2
        sizes.insert(0, n)
    return sizes


def solve_cascade(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig):
    """Solve on each grid of ``cascade_sizes``, refining each solution as the next start.

    Every level is one call of ``solve``.  The coarsest starts cold; every
    finer one is given ``refine_linear`` of the solution below as its
    ``start``, so it starts warm and takes a few Newton-like steps.
    Returns the fine solution and the diagnostics of the final (fine)
    solve, whose ``levels`` holds n, iterations, linear solves, rejected
    steps, start residual (the sup residual of the level's first iterate,
    which shows the refinement jump) and final residual of every level,
    coarsest first; its work counters (``WORK_COUNTERS``) are totals over
    the levels.
    """
    out_field = None
    records = []
    totals = dict.fromkeys(WORK_COUNTERS, 0)
    for n in cascade_sizes(grid.n):
        start = None if out_field is None else refine_linear(out_field)
        out_field, out_diag = solve(prob, Grid(d=grid.d, n=n), cfg, start)
        for key in totals:
            totals[key] += getattr(out_diag, key)
        records.append({
            "n": n,
            "iterations": out_diag.iterations,
            "linear_solves": out_diag.linear_solves,
            "rejected_steps": out_diag.rejected_steps,
            "start_residual": out_diag.residual_history[0][1],
            "final_residual": out_diag.final_residual,
        })
    return out_field, dataclasses.replace(out_diag, levels=tuple(records), **totals)
