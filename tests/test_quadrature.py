import math

import pytest

from wirtinger import QuadratureFailure, adaptive_simpson

# integral of exp(sin t) over [0, 2*pi] = 2*pi*I_0(1), evaluated at 40 digits
EXP_SIN_INTEGRAL = 7.954926521012846


def test_exact_for_cubics():
    # Simpson integrates cubics exactly; no refinement should be needed
    assert adaptive_simpson(lambda t: t**3, 0.0, 1.0) == pytest.approx(0.25, rel=1e-15)
    assert adaptive_simpson(lambda t: 3 * t * t - t, -1.0, 2.0) == pytest.approx(
        9 - 1.5, rel=1e-14
    )


def test_periodic_integrands():
    assert adaptive_simpson(lambda t: math.sin(t) ** 2, 0.0, 2 * math.pi) == pytest.approx(
        math.pi, abs=1e-10
    )
    assert adaptive_simpson(math.sin, 0.0, 2 * math.pi) == pytest.approx(0.0, abs=1e-10)


def test_oscillatory_against_reference():
    got = adaptive_simpson(lambda t: math.exp(math.sin(t)), 0.0, 2 * math.pi, tol=1e-12)
    assert got == pytest.approx(EXP_SIN_INTEGRAL, abs=1e-11)


def test_degenerate_and_reversed_bounds():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    forward = adaptive_simpson(math.exp, 0.0, 1.0)
    assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(-forward, rel=1e-15)
    assert forward == pytest.approx(math.e - 1.0, rel=1e-12)


def test_kinked_integrand():
    assert adaptive_simpson(lambda t: abs(t - 1.0), 0.0, 2.0, tol=1e-10) == pytest.approx(
        1.0, abs=1e-9
    )


def test_step_discontinuity_fails_budget():
    step = lambda t: 0.0 if t < 0.5773502691 else 1.0
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-13)
