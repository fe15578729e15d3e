"""Monotone wide-stencil discretization and pseudo-time solver.

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

Each is non-decreasing in every neighbour value, so the explicit update

    u <- u + dt (sigma_{sgn(u)}(max(|grad_h u + q|, eps_deg)) F_h(u) - f)

is monotone whenever dt * sigma * (center weight of F_h) <= 1.  The center
weight is at most 2 d Lam_F / h^2, which gives the stability cap; steps
take 0.9 of it.  sigma_{sgn(u)} is ProblemInstance.law_pair followed by
problem.select_phase, the same evaluation the certifier uses.

Time stepping
-------------
The degeneracy makes the stiffness ratio max(sigma)/min(sigma) huge, so a
single global dt obeying the cap with sigma_max crawls on the degenerate
set.  Each node therefore advances with its own dt at its own cap: every
individual update is still monotone and the fixed points are identical,
only the pseudo-time parametrization changes.  The dt denominator takes
sigma from the node's whole stencil (neighbour max): updates move the
neighbours too, and pointwise sigma lets dt and sigma oscillate in
antiphase around a CFL-lag limit cycle.

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
form with central gradients is consistent, empirically stable on
single-phase and smooth-interface problems, and the only monotone option.
``_make_discretization`` makes this choice for ``solve`` and for the public
``residual`` alike, so the residual reported is the one the solver drives
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverDivergenceError
from .grids import DiscreteField, Grid, refine_linear
from .problem import ProblemInstance, select_phase

_EXPLODE_FACTOR = 1e8
_SAFETY = 0.9
_FRAME_ALIGN_TOL = 1e-12


@dataclass(frozen=True)
class SchemeConfig:
    """Knobs of the pseudo-time iteration.

    ``eps_deg`` clamps the gradient magnitude fed to the degeneracy law from
    below; it regularizes the 0/0 ambiguity of sigma(|Du|) F(D^2 u) = f on
    the degenerate set and should scale with the accuracy target, not with
    machine precision.  ``initial`` may be None (constant field at the mean
    boundary value), a number, an array, a DiscreteField or a callable.
    """

    max_iter: int = 200_000
    tol: float = 1e-8
    eps_deg: float = 1e-4
    dt_max: float | None = None
    initial: object = None
    history_stride: int = 0
    scheme: str = "auto"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("SchemeConfig: max_iter must be positive")
        if not (self.tol > 0.0):
            raise ConfigError("SchemeConfig: tol must be positive")
        if self.eps_deg < 0.0:
            raise ConfigError("SchemeConfig: eps_deg must be non-negative")
        if self.scheme not in ("auto", "wide", "flux-1d"):
            raise ConfigError("SchemeConfig: scheme must be 'auto', 'wide' or 'flux-1d'")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_residual: float
    dt: float
    dt_min: float
    converged: bool
    eps_deg: float
    residual_history: tuple
    sigma_clamped: bool
    scheme: str = "wide"


class _Discretization:
    """Grid-resolved form of one problem: arrays ready for iteration."""

    def __init__(self, prob: ProblemInstance, grid: Grid, eps_deg: float):
        self.grid = grid
        self.prob = prob
        self.eps_deg = float(eps_deg)
        self.h = grid.h
        self.f = prob.f_on(grid)
        self.q = prob.q_vector(grid.d)
        self.f_int = self.f[1:-1] if grid.d == 1 else self.f[1:-1, 1:-1]
        op = prob.operator
        if op.kind == "trace":
            self.lam_f = 1.0
        else:
            self.lam_f = op.pair.Lam
        self.center_bound = 2.0 * grid.d * self.lam_f / self.h**2
        if op.kind == "bellman-min-of-traces":
            self.bellman_frames = [_frame_weights(A.matrix, grid.d) for A in op.coefficients]

    # -- interior differential quantities ---------------------------------

    def gradient_norm(self, u: np.ndarray) -> np.ndarray:
        """Central-difference gradient magnitude, shifted by q."""
        h = self.h
        if self.grid.d == 1:
            gx = (u[2:] - u[:-2]) / (2.0 * h) + self.q[0]
            return np.abs(gx)
        gx = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h) + self.q[0]
        gy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h) + self.q[1]
        return np.hypot(gx, gy)

    def second_differences(self, u: np.ndarray):
        h2 = self.h**2
        if self.grid.d == 1:
            return ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2,)
        c = u[1:-1, 1:-1]
        dxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / h2
        dyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / h2
        dpp = (u[2:, 2:] - 2.0 * c + u[:-2, :-2]) / (2.0 * h2)
        dmm = (u[2:, :-2] - 2.0 * c + u[:-2, 2:]) / (2.0 * h2)
        return dxx, dyy, dpp, dmm

    def operator_values(self, u: np.ndarray) -> np.ndarray:
        op = self.prob.operator
        diffs = self.second_differences(u)
        if self.grid.d == 1:
            (dxx,) = diffs
            if op.kind == "trace":
                return dxx
            if op.kind == "pucci-minus":
                return _phi_minus(dxx, op.pair)
            if op.kind == "pucci-plus":
                return _phi_plus(dxx, op.pair)
            vals = [w[0] * dxx for w in self.bellman_frames]
            return np.minimum.reduce(vals)
        dxx, dyy, dpp, dmm = diffs
        if op.kind == "trace":
            return dxx + dyy
        if op.kind == "pucci-minus":
            axis = _phi_minus(dxx, op.pair) + _phi_minus(dyy, op.pair)
            diag = _phi_minus(dpp, op.pair) + _phi_minus(dmm, op.pair)
            return np.minimum(axis, diag)
        if op.kind == "pucci-plus":
            axis = _phi_plus(dxx, op.pair) + _phi_plus(dyy, op.pair)
            diag = _phi_plus(dpp, op.pair) + _phi_plus(dmm, op.pair)
            return np.maximum(axis, diag)
        vals = []
        for frame, w in self.bellman_frames:
            if frame == "axis":
                vals.append(w[0] * dxx + w[1] * dyy)
            else:
                vals.append(w[0] * dpp + w[1] * dmm)
        return np.minimum.reduce(vals)

    def sigma_eff(self, u: np.ndarray):
        """Per-node law value sigma_{sgn(u)}, with the gradient clamp.

        Gradient magnitudes beyond the law's domain cap are clipped to the
        cap (the law freezes there); the flag reports whether that fired.
        """
        sp, sm, clamped = self.prob.law_pair(np.maximum(self.gradient_norm(u), self.eps_deg))
        c = u[1:-1] if self.grid.d == 1 else u[1:-1, 1:-1]
        return select_phase(c, sp, sm), clamped

    def residual_interior(self, u: np.ndarray):
        sig, clamped = self.sigma_eff(u)
        return sig * self.operator_values(u) - self.f_int, sig, clamped


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

    def __init__(self, prob: ProblemInstance, grid: Grid, eps_deg: float):
        if grid.d != 1 or prob.operator.kind != "trace":
            raise ConfigError("flux discretization requires d = 1 and F = trace")
        self.grid = grid
        self.prob = prob
        self.eps_deg = float(eps_deg)
        self.h = grid.h
        self.f = prob.f_on(grid)
        self.f_int = self.f[1:-1]
        self.q = float(prob.q_vector(1)[0])
        self.center_bound = 2.0 / grid.h**2
        self.lam_f = 1.0

    def _psi(self, law, w):
        w_cl = np.clip(np.abs(w), 0.0, law.t_max)
        return np.sign(w) * law.primitive(w_cl)

    def _edge_flux(self, law, slopes):
        return self._psi(law, slopes + self.q) - self._psi(law, self.q)

    def residual_interior(self, u: np.ndarray):
        h = self.h
        slopes = (u[1:] - u[:-1]) / h
        pair_sign = np.sign(u[1:] + u[:-1])
        gp = self._edge_flux(self.prob.sigma_plus, slopes)
        gm = self._edge_flux(self.prob.sigma_minus, slopes)
        g_min = np.where(np.abs(gp) <= np.abs(gm), gp, gm)
        flux = select_phase(pair_sign, gp, gm, g_min)
        r = (flux[1:] - flux[:-1]) / h - self.f_int

        # sigma scale per node for the dt cap only (no clamp in the flux)
        sp, sm, clamped = self.prob.law_pair(np.maximum(np.abs(slopes + self.q), self.eps_deg))
        sig_edge = select_phase(pair_sign, sp, sm)
        sig = np.maximum(sig_edge[1:], sig_edge[:-1])
        return r, sig, clamped


def _phi_minus(t, pair):
    return pair.lam * np.maximum(t, 0.0) + pair.Lam * np.minimum(t, 0.0)


def _phi_plus(t, pair):
    return pair.Lam * np.maximum(t, 0.0) + pair.lam * np.minimum(t, 0.0)


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


def residual(u: DiscreteField, prob: ProblemInstance, eps_deg: float = 0.0) -> DiscreteField:
    """Interior residual of the scheme ``solve`` would use ("auto").

    That is the flux form on 1-d trace problems and the pointwise
    sigma_{sgn(u)}(...) F_h(u) - f otherwise.  Boundary entries of the
    returned field are zero: Dirichlet data is imposed exactly, so it never
    carries a residual.
    """
    disc, _ = _make_discretization(prob, u.grid, eps_deg)
    r, _, _ = disc.residual_interior(u.values)
    out = np.zeros(u.grid.shape)
    out[(slice(1, -1),) * u.grid.d] = r
    return DiscreteField(grid=u.grid, values=out)


def _initial_values(cfg: SchemeConfig, grid: Grid, g_vals: np.ndarray) -> np.ndarray:
    init = cfg.initial
    if init is None:
        u = np.full(grid.shape, float(np.mean(g_vals[grid.boundary_mask()])))
    elif isinstance(init, DiscreteField):
        if init.grid.shape != grid.shape:
            raise ConfigError("initial field shape does not match the grid")
        u = init.values.copy()
    elif callable(init):
        u = grid.sample(init)
    elif np.ndim(init) == 0:
        u = np.full(grid.shape, float(init))
    else:
        arr = np.asarray(init, dtype=float)
        if arr.shape != grid.shape:
            raise ConfigError("initial array shape does not match the grid")
        u = arr.copy()
    mask = grid.boundary_mask()
    u[mask] = g_vals[mask]
    return u


def _neighbor_max(s: np.ndarray) -> np.ndarray:
    """Running max of a node array with its grid neighbours.

    One update step moves every nodal value, so the sigma relevant for a
    node's next-step stability is the largest in its stencil, not its own;
    using the pointwise value lets sigma and dt oscillate in antiphase and
    sustains a CFL-lag limit cycle.
    """
    out = s.copy()
    if s.ndim == 1:
        np.maximum(out[1:], s[:-1], out=out[1:])
        np.maximum(out[:-1], s[1:], out=out[:-1])
        return out
    np.maximum(out[1:, :], s[:-1, :], out=out[1:, :])
    np.maximum(out[:-1, :], s[1:, :], out=out[:-1, :])
    np.maximum(out[:, 1:], s[:, :-1], out=out[:, 1:])
    np.maximum(out[:, :-1], s[:, 1:], out=out[:, :-1])
    return out


def _make_discretization(prob: ProblemInstance, grid: Grid, eps_deg: float,
                         scheme: str = "auto"):
    if scheme == "auto":
        scheme = (
            "flux-1d"
            if grid.d == 1 and prob.operator.kind == "trace"
            else "wide"
        )
    if scheme == "flux-1d":
        return _FluxDiscretization1D(prob, grid, eps_deg), "flux-1d"
    return _Discretization(prob, grid, eps_deg), "wide"


def solve(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig = SchemeConfig()):
    """Relax to a discrete solution; returns (field, diagnostics).

    Convergence is declared when the sup norm of the interior residual
    drops below cfg.tol.  Hitting max_iter returns converged=False; a
    residual blow-up past 1e8 times its starting level (or any non-finite
    value) raises SolverDivergenceError.
    """
    disc, scheme = _make_discretization(prob, grid, cfg.eps_deg, cfg.scheme)
    g_vals = prob.g_on(grid)
    u = _initial_values(cfg, grid, g_vals)
    interior = (slice(1, -1),) * grid.d

    dt_cap = cfg.dt_max if cfg.dt_max is not None else grid.h
    stride = cfg.history_stride or max(1, cfg.max_iter // 256)
    history = []
    sigma_clamped = False
    res0 = None
    dt_last = dt_cap
    dt_min_seen = np.inf
    it = 0
    res_norm = np.inf

    for it in range(1, cfg.max_iter + 1):
        r, sig, clamped = disc.residual_interior(u)
        sigma_clamped = sigma_clamped or clamped
        res_norm = float(np.max(np.abs(r))) if r.size else 0.0
        if not np.isfinite(res_norm):
            raise SolverDivergenceError(
                "residual became non-finite",
                _diag(it, res_norm, dt_last, dt_min_seen, False, cfg, history,
                      sigma_clamped, scheme),
            )
        if res0 is None:
            res0 = res_norm
        if it == 1 or it % stride == 0:
            history.append((it, res_norm))
        if res_norm <= cfg.tol:
            return (
                DiscreteField(grid=grid, values=u),
                _diag(it, res_norm, dt_last, dt_min_seen, True, cfg, history,
                      sigma_clamped, scheme),
            )
        if res_norm > _EXPLODE_FACTOR * max(res0, 1.0):
            raise SolverDivergenceError(
                f"residual grew to {res_norm:.3e} from {res0:.3e}",
                _diag(it, res_norm, dt_last, dt_min_seen, False, cfg, history,
                      sigma_clamped, scheme),
            )
        dt = _SAFETY / (disc.center_bound * np.maximum(_neighbor_max(sig), 1e-300))
        dt = np.minimum(dt, dt_cap)
        dt_last = float(np.max(dt))
        dt_min_seen = min(dt_min_seen, float(np.min(dt)))
        u[interior] += dt * r

    return (
        DiscreteField(grid=grid, values=u),
        _diag(it, res_norm, dt_last, dt_min_seen, False, cfg, history,
              sigma_clamped, scheme),
    )


def _diag(it, res, dt, dt_min, converged, cfg, history, clamped, scheme) -> SolveDiagnostics:
    return SolveDiagnostics(
        iterations=it,
        final_residual=float(res),
        dt=float(dt),
        dt_min=float(dt_min if np.isfinite(dt_min) else dt),
        converged=converged,
        eps_deg=cfg.eps_deg,
        residual_history=tuple(history),
        sigma_clamped=clamped,
        scheme=scheme,
    )


def solve_cascade(prob: ProblemInstance, grid: Grid, cfg: SchemeConfig, levels: int = 0):
    """Solve on a coarsened-grid ladder, refining the solution as the start.

    ``levels`` counts coarsenings below ``grid``; each coarse level must
    still have at least MIN_NODES nodes (n coarsens as (n+1)/2).  Returns
    the fine solution and the diagnostics of the final (fine) solve.
    """
    ns = [grid.n]
    for _ in range(levels):
        n_c = (ns[-1] + 1) // 2
        if (n_c - 1) * 2 != ns[-1] - 1:
            raise ConfigError("solve_cascade: n - 1 must halve at every level")
        ns.append(n_c)
    ns.reverse()

    u_prev = None
    out_field, out_diag = None, None
    for n in ns:
        level_grid = Grid(d=grid.d, n=n)
        level_cfg = cfg if u_prev is None else _with_initial(cfg, u_prev)
        out_field, out_diag = solve(prob, level_grid, level_cfg)
        u_prev = refine_linear(out_field) if n != ns[-1] else out_field
    return out_field, out_diag


def _with_initial(cfg: SchemeConfig, init_field: DiscreteField) -> SchemeConfig:
    import dataclasses

    return dataclasses.replace(cfg, initial=init_field)
