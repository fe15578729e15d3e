"""The phase law of a problem: law values with the t_max clamp, and the
sign selection sigma_plus for u > 0, sigma_minus for u < 0, the smaller at 0."""

import numpy as np
import pytest

from degenlab.elliptic import EllipticityPair, EllipticOperator
from degenlab.laws import PowerLaw
from degenlab.problem import ProblemInstance, select_phase


def _problem(t_max_plus=10.0, t_max_minus=10.0):
    return ProblemInstance(
        operator=EllipticOperator(kind="trace", pair=EllipticityPair(1.0, 1.0)),
        sigma_plus=PowerLaw(p=1.0, t_max=t_max_plus),
        sigma_minus=PowerLaw(p=2.0, t_max=t_max_minus),
        f=0.0,
        g=0.0,
        C0=1.0,
    )


@pytest.mark.parametrize(
    "u, speed, expect",
    [
        (1.0, 0.5, 0.5),     # u > 0: sigma_plus(t) = t
        (-1.0, 0.5, 0.25),   # u < 0: sigma_minus(t) = t^2
        (0.0, 0.5, 0.25),    # u = 0: the smaller of the two laws
        (0.0, 2.0, 2.0),     # ... which is sigma_plus once t > 1
        (-0.0, 2.0, 2.0),    # a negative zero is still the interface
    ],
)
def test_phase_selection(u, speed, expect):
    sp, sm, clamped = _problem().law_pair(np.array([speed]))
    assert not clamped
    sig = select_phase(np.array([u]), sp, sm)
    assert sig[0] == pytest.approx(expect, rel=1e-14)
    # an explicit value at the interface replaces the smaller law
    at_zero = select_phase(np.array([u]), sp, sm, zero=np.array([-7.0]))
    assert at_zero[0] == (-7.0 if u == 0.0 else sig[0])


@pytest.mark.parametrize(
    "t_max_plus, t_max_minus, speed, clamped, expect_plus, expect_minus",
    [
        (10.0, 10.0, 3.0, False, 3.0, 9.0),
        (10.0, 10.0, 10.0, False, 10.0, 100.0),  # the cap itself is inside
        (2.0, 10.0, 3.0, True, 2.0, 9.0),         # sigma_plus frozen at its cap
        (10.0, 2.0, 3.0, True, 3.0, 4.0),         # sigma_minus frozen at its cap
        (2.0, 2.0, 30.0, True, 2.0, 4.0),
    ],
)
def test_law_pair_clamp(t_max_plus, t_max_minus, speed, clamped, expect_plus, expect_minus):
    prob = _problem(t_max_plus, t_max_minus)
    sp, sm, flag = prob.law_pair(np.array([0.5, speed]))
    assert flag is clamped
    assert sp[1] == pytest.approx(expect_plus, rel=1e-14)
    assert sm[1] == pytest.approx(expect_minus, rel=1e-14)
    assert sp[0] == pytest.approx(0.5) and sm[0] == pytest.approx(0.25)
