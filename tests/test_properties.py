"""Structural properties of the discrete scheme, checked with hypothesis.

Monotonicity and the discrete comparison principle are the hypotheses under
which a consistent scheme converges to the viscosity solution
(Barles-Souganidis, Asymptotic Anal. 4, 1991).  The frozen-policy Jacobian
is what every pseudo-transient Newton step of the solver rests on.

Monotonicity is asserted where the scheme has it.  The wide-stencil
operator F_h is non-decreasing in every neighbour value, so sigma F_h is
too for any frozen sigma >= 0; the full pointwise residual is not, since
sigma reads |grad_h u| from central differences.  The flux form is
non-decreasing in every neighbour value as long as no edge changes phase.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenlab.benchmarks import exact_benchmark
from degenlab.elliptic import EllipticityPair, EllipticOperator
from degenlab.grids import Grid
from degenlab.laws import PowerLaw, PowerLogLaw
from degenlab.problem import ProblemInstance
from degenlab.solver import (
    SchemeConfig,
    _Discretization,
    _FluxDiscretization1D,
    solve,
)

KINDS = ("trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces")
PAIR = EllipticityPair(0.5, 2.0)
BELLMAN = {
    1: (np.array([[0.7]]), np.array([[1.5]])),
    2: (np.diag([0.6, 1.8]), np.array([[1.0, 0.4], [0.4, 1.0]])),
}
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _problem(kind, d, q=0.0):
    coeffs = BELLMAN[d] if kind == "bellman-min-of-traces" else ()
    return ProblemInstance(
        operator=EllipticOperator(kind=kind, pair=PAIR, coefficients=coeffs),
        sigma_plus=PowerLaw(1.5),
        sigma_minus=PowerLogLaw(1.0, 0.5),
        f=0.3,
        g=0.0,
        C0=1.0,
        q=(q,) * d,
    )


def _transmission():
    return exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0}).problem


def _field(grid, data):
    vals = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=grid.n**grid.d, max_size=grid.n**grid.d)
    )
    return np.array(vals).reshape(grid.shape)


def _bump(u, data, top):
    """u with one node (interior or boundary) raised, and that node."""
    node = tuple(data.draw(st.integers(0, n - 1)) for n in u.shape)
    v = u.copy()
    v[node] += data.draw(st.floats(1e-6, top))
    return v, node


def _others(shape, node):
    """Interior mask without ``node`` itself."""
    mask = np.ones(tuple(n - 2 for n in shape), dtype=bool)
    inner = tuple(i - 1 for i in node)
    if all(0 <= i < n for i, n in zip(inner, mask.shape)):
        mask[inner] = False
    return mask


# -- monotonicity -----------------------------------------------------------


@PROPERTY
@given(kind=st.sampled_from(KINDS), d=st.sampled_from((1, 2)), data=st.data())
def test_wide_operator_is_monotone_in_neighbours(kind, d, data):
    grid = Grid(d=d, n=9)
    disc = _Discretization(_problem(kind, d), grid, 1e-4)
    u = _field(grid, data)
    v, node = _bump(u, data, 1.0)
    rise = disc.operator_values(v) - disc.operator_values(u)
    assert np.all(rise[_others(grid.shape, node)] >= -1e-9)


@PROPERTY
@given(same_law=st.booleans(), data=st.data())
def test_flux_residual_is_monotone_in_neighbours_within_a_phase(same_law, data):
    prob = _transmission()
    if same_law:
        prob = dataclasses.replace(prob, sigma_minus=prob.sigma_plus)
    grid = Grid(d=1, n=9)
    disc = _FluxDiscretization1D(prob, grid, 1e-4)
    u = _field(grid, data)
    v, node = _bump(u, data, 0.5)
    if not same_law:
        assume(np.array_equal(np.sign(v[1:] + v[:-1]), np.sign(u[1:] + u[:-1])))
    rise = disc.residual_interior(v)[0] - disc.residual_interior(u)[0]
    assert np.all(rise[_others(grid.shape, node)] >= -1e-9)


# -- the frozen-policy Jacobian ---------------------------------------------


def _one_sided_jacobians(disc, u, step=1e-6):
    """Forward and backward difference Jacobians of residual_interior."""
    interior = (slice(1, -1),) * u.ndim
    r0 = disc.residual_interior(u)[0].ravel()
    cols = np.argwhere(np.ones(u[interior].shape, dtype=bool)) + 1
    fwd = np.empty((r0.size, len(cols)))
    bwd = np.empty_like(fwd)
    for j, node in enumerate(map(tuple, cols)):
        up, down = u.copy(), u.copy()
        up[node] += step
        down[node] -= step
        fwd[:, j] = (disc.residual_interior(up)[0].ravel() - r0) / step
        bwd[:, j] = (r0 - disc.residual_interior(down)[0].ravel()) / step
    return fwd, bwd


def _check_jacobian(disc, seed):
    # generic values: repeated ones (0, +-1) sit exactly on kinks
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, disc.grid.shape)
    fwd, bwd = _one_sided_jacobians(disc, u)
    scale = max(1.0, float(np.max(np.abs(fwd))))
    # a policy or phase switch within one step puts a kink between them
    assume(np.max(np.abs(fwd - bwd)) <= 1e-4 * scale)
    J = disc.jacobian(u).toarray()
    assert np.max(np.abs(J - 0.5 * (fwd + bwd))) <= 1e-5 * scale


@PROPERTY
@given(kind=st.sampled_from(KINDS), d=st.sampled_from((1, 2)),
       q=st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1))
def test_wide_jacobian_matches_finite_differences(kind, d, q, seed):
    disc = _Discretization(_problem(kind, d, q), Grid(d=d, n=9), 1e-6)
    _check_jacobian(disc, seed)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_flux_jacobian_matches_finite_differences(seed):
    _check_jacobian(_FluxDiscretization1D(_transmission(), Grid(d=1, n=9), 1e-9), seed)


# -- discrete comparison ----------------------------------------------------


def _solve_with_boundary(bench, grid, g, scheme):
    cfg = SchemeConfig(tol=1e-10, eps_deg=bench.recommended_eps_deg(grid))
    u, diag = solve(dataclasses.replace(bench.problem, g=g), grid, cfg)
    assert diag.converged and diag.scheme == scheme
    return u.values


@pytest.mark.parametrize("case", ["flux-1d transmission", "2-d trace"])
@PROPERTY
@given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0),
       lift=st.floats(0.0, 1.0), tilt=st.floats(0.0, 1.0))
def test_ordered_boundary_data_give_ordered_solutions(case, a, b, lift, tilt):
    """Same f, g_low <= g_high on the boundary: u_low <= u_high everywhere.

    The data are the benchmark's exact boundary values plus affine terms; a
    clamp eps_deg far below the recommended one lets the 2-d wide stencil
    settle on a spurious spike where the central gradient vanishes.
    """
    if case == "2-d trace":
        bench = exact_benchmark("radial-power", {"theta": 1.0, "d": 2})
        grid, scheme = Grid(d=2, n=9), "wide"
    else:
        bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
        grid, scheme = Grid(d=1, n=17), "flux-1d"

    def low(x, *rest):
        return bench.u_exact(x, *rest) + a + b * x

    def high(x, *rest):
        return low(x, *rest) + lift + tilt * (1.0 + x) / 2.0

    u_low = _solve_with_boundary(bench, grid, low, scheme)
    u_high = _solve_with_boundary(bench, grid, high, scheme)
    assert np.all(u_low <= u_high + 1e-7)
