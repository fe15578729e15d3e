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
Both whole residuals are pinned as strict xfails over fixed seeds.
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
    _make_discretization,
    solve,
)

KINDS = ("trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces")
PAIR = EllipticityPair(0.5, 2.0)
BELLMAN = (np.diag([0.6, 1.8]), np.array([[1.0, 0.4], [0.4, 1.0]]))
PROPERTY = settings(max_examples=30)


def _problem(kind, q=0.0):
    """A 2-d problem of the operator kind, shifted by q along both axes."""
    coeffs = BELLMAN if kind == "bellman-min-of-traces" else ()
    return ProblemInstance(
        operator=EllipticOperator(kind=kind, pair=PAIR, coefficients=coeffs),
        sigma_plus=PowerLaw(1.5),
        sigma_minus=PowerLogLaw(1.0, 0.5),
        f=0.3,
        g=0.0,
        C0=1.0,
        q=(q, q),
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


def _operator_values(disc, u):
    """F_h(u) on the interior: the min (or max) of the linear branches."""
    return disc._reduce([value for *_, value in disc._branch_values(u)])


@PROPERTY
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_wide_operator_is_monotone_in_neighbours(kind, data):
    grid = Grid(d=2, n=9)
    disc = _Discretization(_problem(kind), grid, 1e-4)
    u = _field(grid, data)
    v, node = _bump(u, data, 1.0)
    rise = _operator_values(disc, v) - _operator_values(disc, u)
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


def _falls(prob, grid, seeds=200):
    """For each fixed seed (not hypothesis, whose examples move when the
    test source is edited): the largest fall of another node's residual
    when one interior node of a random field rises by 0.5."""
    disc = _make_discretization(prob, grid, 1e-4)
    falls = np.zeros(seeds)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, grid.shape)
        node = tuple(rng.integers(1, grid.n - 1, size=grid.d))
        v = u.copy()
        v[node] += 0.5
        rise = disc.residual_interior(v)[0] - disc.residual_interior(u)[0]
        rise[tuple(i - 1 for i in node)] = 0.0
        falls[seed] = rise.min()
    return falls


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: sigma reads |grad_h u| from central differences "
                          "(at n = 9: 120 of 200 seeds fall)")
def test_wide_residual_is_monotone_in_neighbours():
    law = PowerLaw(1.0)
    prob = ProblemInstance(operator=EllipticOperator("trace", EllipticityPair(1.0, 1.0)),
                           sigma_plus=law, sigma_minus=law, f=0.0, g=0.0, C0=0.0)
    falls = _falls(prob, Grid(d=2, n=9))
    assert falls.min() >= -1e-9, f"seed {falls.argmin()}: a residual falls by {falls.min()}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: an edge whose phase switches switches its flux "
                          "(at n = 9: 12 of 200 seeds fall)")
def test_flux_residual_is_monotone_in_neighbours_across_a_phase_switch():
    falls = _falls(_transmission(), Grid(d=1, n=9))
    assert falls.min() >= -1e-9, f"seed {falls.argmin()}: a residual falls by {falls.min()}"


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
    assert np.max(np.abs(_dense_jacobian(disc, u) - 0.5 * (fwd + bwd))) <= 1e-5 * scale


def _dense_jacobian(disc, u):
    """The J that residual_interior returns at u, as a dense matrix."""
    # with 1/dt = 0 the step matrix diag(1/dt) - J is -J
    coeffs = disc.residual_interior(u)[3]()
    no_dt = np.full(disc.f_int.shape, np.inf)
    if disc.grid.d == 1:  # read from its three bands
        return -sum(np.diag(band, k) for band, k in zip(disc.pattern.bands(coeffs, no_dt), (-1, 0, 1)))
    return -disc.pattern.matrix(coeffs, no_dt).toarray()


@PROPERTY
@given(kind=st.sampled_from(KINDS), q=st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1))
def test_wide_jacobian_matches_finite_differences(kind, q, seed):
    disc = _Discretization(_problem(kind, q), Grid(d=2, n=9), 1e-6)
    _check_jacobian(disc, seed)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_flux_jacobian_matches_finite_differences(seed):
    _check_jacobian(_FluxDiscretization1D(_transmission(), Grid(d=1, n=9), 1e-9), seed)


@pytest.mark.parametrize("q", [0.0, 0.3])
def test_flux_jacobian_matches_finite_differences_past_t_max(q):
    """Every slope near 5, past t_max = 0.5: sigma is frozen at sigma(t_max)
    and the flux keeps that slope, so J is still the derivative of R."""
    prob = ProblemInstance(
        operator=EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0)),
        sigma_plus=PowerLaw(1.0, t_max=0.5), sigma_minus=PowerLaw(2.0, t_max=0.5),
        f=0.0, g=0.0, C0=1.0, q=(q,),
    )
    disc = _FluxDiscretization1D(prob, Grid(d=1, n=9), 1e-9)
    x = disc.grid.axis
    u = 5.0 * x + 0.2 * np.sin(3.0 * x)  # both phases, no edge sum near 0
    fwd, bwd = _one_sided_jacobians(disc, u)
    scale = float(np.max(np.abs(fwd)))
    assert scale > 1.0 and np.max(np.abs(fwd - bwd)) <= 1e-4 * scale
    assert np.max(np.abs(_dense_jacobian(disc, u) - 0.5 * (fwd + bwd))) <= 1e-5 * scale


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a power-log primitive is a table, whose secant "
                          "is R's slope, not sigma (at n = 9: 4.5e-5 relative)")
def test_flux_jacobian_matches_finite_differences_on_a_power_log_law():
    """power(1.5) and power-log(1, 0.5): P of the power-log law is np.interp
    on a trapezoid table, so J's edge weight sigma / h^2 is not the slope of
    R in u.  The power pair of the property test above matches to 1e-10."""
    prob = ProblemInstance(
        operator=EllipticOperator(kind="trace", pair=PAIR),
        sigma_plus=PowerLaw(1.5), sigma_minus=PowerLogLaw(1.0, 0.5),
        f=0.3, g=0.0, C0=1.0, q=(0.0,),
    )
    disc = _FluxDiscretization1D(prob, Grid(d=1, n=9), 1e-9)
    u = np.random.default_rng(0).uniform(-1.0, 1.0, disc.grid.shape)
    fwd, bwd = _one_sided_jacobians(disc, u)
    scale = max(1.0, float(np.max(np.abs(fwd))))
    # _check_jacobian's assume, which hypothesis allows only inside @given
    if np.max(np.abs(fwd - bwd)) > 1e-4 * scale:
        pytest.fail("a kink between the one-sided differences")
    assert np.max(np.abs(_dense_jacobian(disc, u) - 0.5 * (fwd + bwd))) <= 1e-5 * scale


@PROPERTY
@given(data=st.data())
def test_flux_step_matrix_is_an_m_matrix(data):
    """diag(1/dt) - J of the flux form, at any field and any dt > 0, has a
    positive diagonal, non-positive off-diagonals and strict diagonal
    dominance by rows and by columns.  Column dominance is why ``_gtsv``'s
    partial pivoting never interchanges rows on the flux form."""
    grid = Grid(d=1, n=9)
    disc = _FluxDiscretization1D(_transmission(), grid, 1e-4)
    coeffs = disc.residual_interior(_field(grid, data))[3]()
    m = grid.n - 2
    dt = np.array(data.draw(st.lists(st.floats(1e-8, 1e4), min_size=m, max_size=m)))
    lower, diag, upper = disc.pattern.bands(coeffs, dt)  # A[i+1, i], A[i, i], A[i, i+1]
    assert np.all(diag > 0.0)
    assert np.all(lower <= 0.0) and np.all(upper <= 0.0)
    lower, upper = np.abs(lower), np.abs(upper)
    rows = np.append(upper, 0.0) + np.insert(lower, 0, 0.0)
    cols = np.append(lower, 0.0) + np.insert(upper, 0, 0.0)
    assert np.all(diag > rows) and np.all(diag > cols)


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: the cold 1-d solve cycles with period 3 "
                          "on a moving free boundary")
def test_far_boundary_data_converge_on_the_1d_transmission_problem():
    """transmission-1d at n = 17 with boundary data u_exact + 1/16 - 13/16 x.

    The comparison test above once drew this case.  Each one-node move of
    the free boundary switches an edge's phase flux, the frozen-phase step
    raises the residual and is cut back to the explicit cap, and the solve
    stops at max_iter unconverged.  Once the stall is mended this test
    passes, and strict xfail turns that into a failure to be cleared.
    """
    bench = exact_benchmark("transmission-1d", {"theta1": 1.0, "theta2": 2.0, "c": 1.0})
    grid = Grid(d=1, n=17)
    cfg = SchemeConfig(tol=1e-10, eps_deg=bench.recommended_eps_deg(grid))
    prob = dataclasses.replace(bench.problem, g=lambda x: bench.u_exact(x) + 0.0625 - 0.8125 * x)
    _, diag = solve(prob, grid, cfg)
    assert diag.converged
