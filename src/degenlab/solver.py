"""Monotone wide-stencil discretization and pseudo-transient Newton solver.

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
non-decreasing in every neighbour value.  The residual is

    R(u) = sigma_{sgn(u)}(max(|grad_h u + q|, eps_deg)) F_h(u) - f

with central gradients; sigma_{sgn(u)} is ProblemInstance.law_pair followed
by problem.select_phase, the same evaluation the certifier uses.

Time stepping
-------------
The solver follows the pseudo-time flow u_t = R(u) to its steady state by
pseudo-transient continuation (Kelley & Keyes 1998).  Each step solves

    (diag(1/dt) - J(u)) delta = R(u),    u <- u + delta,

where J is the frozen-policy Jacobian of R (``jacobian``): the active
pucci frame or bellman branch, the slope phi'(Delta_e) and the phase of
every node are held fixed, which makes the step one semismooth Newton /
Howard policy-iteration step (Bokanowski, Maroso & Zidani 2009) damped by
1/dt.  The wide-stencil J also carries F_h sigma'(|grad_h u|) d|grad_h u|/du
through the central gradient, with sigma' one relative central difference
of the law itself (``_law_slope``).  In the flux form, J is tridiagonal with
edge weight sigma_phase(max(|s + q|, eps_deg)) / h^2.  Every linear system
is a scipy.sparse matrix on a stencil pattern fixed per discretization,
factored by SuperLU with the MMD ordering of A^T + A.

dt is a per-node array.  It starts at the explicit stability cap: the
center weight of F_h is at most 2 d Lam_F / h^2, and 0.9 of the cap with
sigma taken as the neighbour max over the stencil keeps an explicit update
u <- u + dt R(u) monotone (pointwise sigma lets dt and sigma oscillate in
antiphase around a CFL-lag limit cycle); the cap never exceeds h.  After
an accepted step dt grows by switched evolution relaxation,
dt <- dt |R_prev| / |R|, so it approaches a pure Newton step as the
residual falls; a step accepted at its first try at least doubles dt.  A
step is rejected when delta is not finite or the residual rises; dt is
then halved, and once the cut reaches the cap the step is the explicit
update at the cap, which is always taken.  The fixed points are those of
the explicit relaxation: only the path through pseudo-time changes.

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
``solve``, for the public ``residual`` and for the run configuration, so
the residual reported is the one the solver drives to zero.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConfigError, SolverDivergenceError
from .grids import MIN_NODES, DiscreteField, Grid, refine_linear
from .problem import ProblemInstance, gradient_norm, select_phase

# Default step cap of SchemeConfig and of the config key "max_iter": a step
# costs one sparse factorization or more, and converging solves take tens.
MAX_ITER = 1000

_EXPLODE_FACTOR = 1e8
_SAFETY = 0.9
_FRAME_ALIGN_TOL = 1e-12
_DT_CUT = 2.0
# Least growth of dt after a step accepted at its first try.
_DT_GROWTH_MIN = 2.0
# dt never grows past this multiple of the explicit cap; 1/dt is negligible
# against J long before, and the bound limits the cuts after a rejection.
_DT_GROWTH_MAX = 1e12
# Relative step of the central difference that gives sigma'.
_SLOPE_STEP = 1e-5

# Second-difference directions per dimension, and the frames over them.
_DIRECTIONS = {1: ((1,),), 2: ((1, 0), (0, 1), (1, 1), (1, -1))}
_FRAMES = {"axis": (0, 1), "diag": (2, 3)}


@dataclass(frozen=True)
class SchemeConfig:
    """Knobs of the pseudo-time iteration.

    ``eps_deg`` clamps the gradient magnitude fed to the degeneracy law from
    below; it regularizes the 0/0 ambiguity of sigma(|Du|) F(D^2 u) = f on
    the degenerate set and should scale with the accuracy target, not with
    machine precision.  ``initial`` may be None (constant field at the mean
    boundary value), a number, an array or a DiscreteField; it must be
    finite.  ``max_iter`` caps ``SolveDiagnostics.iterations``.
    """

    max_iter: int = MAX_ITER
    tol: float = 1e-8
    eps_deg: float = 1e-4
    initial: object = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("SchemeConfig: max_iter must be positive")
        if not (self.tol > 0.0):
            raise ConfigError("SchemeConfig: tol must be positive")
        if self.eps_deg < 0.0:
            raise ConfigError("SchemeConfig: eps_deg must be non-negative")


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one solve ran.

    ``iterations`` counts residual evaluations of accepted iterates (the
    steps taken plus one), ``linear_solves`` the factorizations tried and
    ``rejected_steps`` the trial steps thrown away.  ``solve_cascade`` fills
    ``levels`` with one record per grid, coarsest first.  The fields are
    declared in the key order of solve_diagnostics.json.
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


class _StencilPattern:
    """Sparse CSC pattern of a fixed stencil on the interior nodes.

    ``matrix(coeffs)`` takes coefficients of shape (len(offsets), *shape),
    where coeffs[k] at a node multiplies the value at node + offsets[k],
    and fills the pattern without sorting.  Neighbours outside the interior
    carry Dirichlet data and are dropped.
    """

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
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.searchsorted(cols[order], np.arange(size + 1)).astype(np.int32)

    def matrix(self, coeffs: np.ndarray):
        data = coeffs.reshape(-1)[self.src]
        return sparse.csc_matrix((data, self.indices, self.indptr), shape=(self.size,) * 2)


def _law_slope(law, t):
    """sigma'(t) by one relative central difference of sigma itself.

    Zero from t_max on, where law_pair freezes the law.
    """
    tc = np.minimum(t, law.t_max)
    lo = tc * (1.0 - _SLOPE_STEP)
    hi = np.minimum(tc * (1.0 + _SLOPE_STEP), law.t_max)
    slope = (law(hi) - law(lo)) / np.where(hi > lo, hi - lo, 1.0)
    return np.where(t < law.t_max, slope, 0.0)


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
        self.f = prob.f_on(grid)
        self.q = prob.q_vector(grid.d)
        self.f_int = self.f[grid.interior]
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
                for frame, w in (_frame_weights(A.matrix, d) for A in op.coefficients)
            ]
        else:
            self.branches = [(_FRAMES[frame][:d], None) for frame in ("axis", "diag")[:d]]
            lam, Lam = op.pair.lam, op.pair.Lam
            self.slopes = (lam, Lam) if op.kind == "pucci-minus" else (Lam, lam)
        self.pick_max = op.kind == "pucci-plus"

        dirs = sorted({k for ks, _ in self.branches for k in ks} | set(axis))
        self.offsets = [(0,) * d]
        for k in dirs:
            e = _DIRECTIONS[d][k]
            self.offsets += [e, _neg(e)]
        self.offset_index = {off: i for i, off in enumerate(self.offsets)}
        self.pattern = _StencilPattern(self.f_int.shape, self.offsets)

    # -- interior differential quantities ---------------------------------

    def _gradient(self, u: np.ndarray) -> list:
        """Central-difference gradient components, shifted by q."""
        axes = _DIRECTIONS[self.grid.d][: self.grid.d]
        return [
            (_shift(u, e) - _shift(u, _neg(e))) / (2.0 * self.h) + qa
            for e, qa in zip(axes, self.q)
        ]

    def second_differences(self, u: np.ndarray):
        c = u[self.grid.interior]
        h2 = self.h**2
        return tuple(
            (_shift(u, e) - 2.0 * c + _shift(u, _neg(e))) / (h2 * float(np.dot(e, e)))
            for e in _DIRECTIONS[self.grid.d]
        )

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

    def operator_values(self, u: np.ndarray) -> np.ndarray:
        return self._reduce([v for _, _, v in self._branch_values(u)])

    def residual_interior(self, u: np.ndarray):
        """(R, sigma_{sgn(u)}, whether law_pair froze a law) on the interior."""
        speed = np.maximum(gradient_norm(self._gradient(u)), self.eps_deg)
        sp, sm, clamped = self.prob.law_pair(speed)
        sig = select_phase(u[self.grid.interior], sp, sm)
        return sig * self.operator_values(u) - self.f_int, sig, clamped

    def jacobian(self, u: np.ndarray):
        """Frozen-policy derivative of ``residual_interior`` at u (CSC).

        The active branch, each pucci slope phi'(Delta_e) and the phase of
        every node are held fixed.
        """
        d, h = self.grid.d, self.h
        g = self._gradient(u)
        norm = gradient_norm(g)
        live = norm > self.eps_deg
        speed = np.maximum(norm, self.eps_deg)
        sp, sm, _ = self.prob.law_pair(speed)
        c = u[self.grid.interior]
        sig = select_phase(c, sp, sm)
        branches = self._branch_values(u)
        values = [v for _, _, v in branches]
        F = self._reduce(values)
        active = (np.argmax if self.pick_max else np.argmin)(np.stack(values), axis=0)
        coeffs = np.zeros((len(self.offsets),) + F.shape)
        for j, (ks, w, _) in enumerate(branches):
            on = active == j
            for k, wk in zip(ks, w):
                e = _DIRECTIONS[d][k]
                a = np.where(on, sig * wk, 0.0) / (h**2 * float(np.dot(e, e)))
                coeffs[self.offset_index[e]] += a
                coeffs[self.offset_index[_neg(e)]] += a
                coeffs[0] -= 2.0 * a

        dp = _law_slope(self.prob.sigma_plus, speed)
        dm = _law_slope(self.prob.sigma_minus, speed)
        slope = select_phase(c, dp, dm, np.where(sp <= sm, dp, dm))
        t = np.where(live, F * slope / np.where(live, norm, 1.0), 0.0) / (2.0 * h)
        for e, ga in zip(_DIRECTIONS[d][:d], g):
            coeffs[self.offset_index[e]] += t * ga
            coeffs[self.offset_index[_neg(e)]] -= t * ga
        return self.pattern.matrix(coeffs)


class _FluxDiscretization1D:
    """Conservative form of the 1-d trace equation.

    With F = trace the equation sigma_{sgn(u)}(|u' + q|) u'' = f is exactly
    (G_{sgn(u)}(u'))' = f for the flux G(s) = Psi(s + q) - Psi(q), where
    Psi(w) = sgn(w) * P(|w|) and P is the primitive of sigma.  The scheme

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
        self.f = prob.f_on(grid)
        self.f_int = self.f[grid.interior]
        self.q = float(prob.q_vector(1)[0])
        self.center_bound = 2.0 / grid.h**2
        self.pattern = _StencilPattern(self.f_int.shape, self.offsets)

    def _psi(self, law, w):
        w_cl = np.clip(np.abs(w), 0.0, law.t_max)
        return np.sign(w) * law.primitive(w_cl)

    def _edge_flux(self, law, slopes):
        return self._psi(law, slopes + self.q) - self._psi(law, self.q)

    def _edges(self, u: np.ndarray):
        """Edge fluxes, the sigma of the branch each edge uses, and the clamp flag.

        That sigma, at max(|s + q|, eps_deg), is the flux's slope dG/ds.
        """
        slopes = (u[1:] - u[:-1]) / self.h
        pair_sign = np.sign(u[1:] + u[:-1])
        gp = self._edge_flux(self.prob.sigma_plus, slopes)
        gm = self._edge_flux(self.prob.sigma_minus, slopes)
        plus_smaller = np.abs(gp) <= np.abs(gm)
        flux = select_phase(pair_sign, gp, gm, np.where(plus_smaller, gp, gm))
        sp, sm, clamped = self.prob.law_pair(np.maximum(np.abs(slopes + self.q), self.eps_deg))
        sig = select_phase(pair_sign, sp, sm, np.where(plus_smaller, sp, sm))
        return flux, sig, clamped

    def residual_interior(self, u: np.ndarray):
        flux, sig_edge, clamped = self._edges(u)
        r = (flux[1:] - flux[:-1]) / self.h - self.f_int
        # per-node sigma scale for the dt cap
        return r, np.maximum(sig_edge[1:], sig_edge[:-1]), clamped

    def jacobian(self, u: np.ndarray):
        """Frozen-phase derivative of ``residual_interior`` at u (CSC).

        Tridiagonal: edge e couples its two nodes with weight sigma_e / h^2.
        Past t_max, where the flux is frozen, the weight stays at
        sigma(t_max) rather than 0, which keeps J non-singular.
        """
        _, sig_edge, _ = self._edges(u)
        w = sig_edge / self.h**2
        return self.pattern.matrix(np.stack((w[:-1], -(w[:-1] + w[1:]), w[1:])))


def _frame_weights(A: np.ndarray, d: int):
    """Directional weights of tr(A D^2 u) in a grid-aligned frame.

    In 1-d the coefficient is the scalar itself.  In 2-d the matrix must be
    diagonal either in the axis frame (off-diagonal zero) or in the diagonal
    frame (equal diagonal entries); otherwise its trace form cannot be
    written with grid second differences and the configuration is rejected.
    """
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


def residual(u: DiscreteField, prob: ProblemInstance, eps_deg: float) -> DiscreteField:
    """Interior residual of the scheme ``solve`` uses (see ``scheme_name``).

    That is the flux form on 1-d trace problems and the pointwise
    sigma_{sgn(u)}(...) F_h(u) - f otherwise.  Boundary entries of the
    returned field are zero: Dirichlet data is imposed exactly, so it never
    carries a residual.
    """
    r, _, _ = _make_discretization(prob, u.grid, eps_deg).residual_interior(u.values)
    out = np.zeros(u.grid.shape)
    out[u.grid.interior] = r
    return DiscreteField(grid=u.grid, values=out)


def _initial_values(cfg: SchemeConfig, grid: Grid, g_vals: np.ndarray) -> np.ndarray:
    mask = grid.boundary_mask()
    init = cfg.initial
    if init is None:
        init = np.mean(g_vals[mask])
    elif isinstance(init, DiscreteField):
        init = init.values
    init = np.asarray(init, dtype=float)
    if init.ndim and init.shape != grid.shape:
        raise ConfigError("initial field shape does not match the grid")
    u = np.broadcast_to(init, grid.shape).copy()
    u[mask] = g_vals[mask]
    if not np.all(np.isfinite(u)):
        raise ConfigError("initial field and boundary data must be finite")
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


def _implicit_trial(J, u: np.ndarray, r: np.ndarray, dt: np.ndarray, interior: tuple):
    """u + delta with (diag(1/dt) - J) delta = r, or None if that is not finite."""
    A = sparse.diags(1.0 / dt.ravel(), format="csc") - J
    try:
        delta = splu(A, permc_spec="MMD_AT_PLUS_A").solve(r.ravel())
    except RuntimeError:  # exactly singular
        return None
    trial = u.copy()
    trial[interior] += delta.reshape(r.shape)
    return trial if np.all(np.isfinite(trial)) else None


def solve(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig = SchemeConfig()):
    """Drive the residual to zero by pseudo-transient continuation.

    Returns (field, diagnostics).  Convergence is declared when the sup
    norm of the interior residual drops below cfg.tol.  Hitting max_iter
    returns converged=False; a residual blow-up past 1e8 times its starting
    level (or any non-finite value) raises SolverDivergenceError.
    """
    disc = _make_discretization(prob, grid, cfg.eps_deg)
    u = _initial_values(cfg, grid, prob.g_on(grid))
    interior = grid.interior

    r, sig, sigma_clamped = disc.residual_interior(u)
    res0 = res_norm = _sup(r)
    rms = _rms(r)
    growth = 1.0  # dt as a multiple of the explicit cap
    history = []
    dt_last, dt_min_seen = grid.h, np.inf
    solves = rejected = it = 0

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
        J = disc.jacobian(u)
        first_try = True
        while True:
            step = growth * dt
            trial = _implicit_trial(J, u, r, step, interior)
            solves += 1
            if trial is not None:
                r_t, sig_t, clamped = disc.residual_interior(trial)
                rms_t = _rms(r_t)
                if rms_t <= rms:
                    break
            rejected += 1
            first_try = False
            growth /= _DT_CUT
            if growth <= 1.0:
                growth, step = 1.0, dt
                trial = u.copy()
                trial[interior] += dt * r
                if not np.all(np.isfinite(trial)):
                    raise SolverDivergenceError("iterate became non-finite", diag(False))
                r_t, sig_t, clamped = disc.residual_interior(trial)
                rms_t = _rms(r_t)
                break

        ratio = rms / rms_t if rms_t > 0.0 else _DT_GROWTH_MAX
        if first_try:
            ratio = max(ratio, _DT_GROWTH_MIN)
        if ratio > 1.0:
            growth = min(growth * ratio, _DT_GROWTH_MAX)
        u, r, sig, rms, res_norm = trial, r_t, sig_t, rms_t, _sup(r_t)
        sigma_clamped = sigma_clamped or clamped
        dt_last = float(np.max(step))
        dt_min_seen = min(dt_min_seen, float(np.min(step)))

    return DiscreteField(grid=grid, values=u), diag(False)


def solve_cascade(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig, levels: int = 0):
    """Solve on a coarsened-grid ladder, refining the solution as the start.

    ``levels`` counts coarsenings below ``grid``; each coarse level must
    still have at least MIN_NODES nodes (n coarsens as (n+1)/2), else a
    ConfigError is raised before any solve.  Returns
    the fine solution and the diagnostics of the final (fine) solve, whose
    ``levels`` holds n, iterations, linear solves, rejected steps and final
    residual of every level, coarsest first.
    """
    ns = [grid.n]
    for _ in range(levels):
        n_c = (ns[-1] + 1) // 2
        if (n_c - 1) * 2 != ns[-1] - 1:
            raise ConfigError("solve_cascade: n - 1 must halve at every level")
        if n_c < MIN_NODES:
            raise ConfigError(f"solve_cascade: levels={levels} coarsens the n={grid.n} "
                              f"grid below {MIN_NODES} nodes per axis")
        ns.append(n_c)
    ns.reverse()

    u_prev = None
    out_field, out_diag = None, None
    records = []
    for n in ns:
        level_grid = Grid(d=grid.d, n=n)
        level_cfg = cfg if u_prev is None else dataclasses.replace(cfg, initial=u_prev)
        out_field, out_diag = solve(prob, level_grid, level_cfg)
        records.append({
            "n": n,
            "iterations": out_diag.iterations,
            "linear_solves": out_diag.linear_solves,
            "rejected_steps": out_diag.rejected_steps,
            "final_residual": out_diag.final_residual,
        })
        u_prev = refine_linear(out_field) if n != ns[-1] else out_field
    return out_field, dataclasses.replace(out_diag, levels=tuple(records))
