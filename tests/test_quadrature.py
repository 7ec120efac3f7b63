import math
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import adaptive_simpson_recursive

from wirtinger import PiecewiseLinear, QuadratureFailure, adaptive_simpson
from wirtinger.quadrature import EVAL_BUDGET, MAX_DEPTH

TWO_PI = 2.0 * math.pi

# integral of exp(sin t) over [0, 2*pi] = 2*pi*I_0(1), evaluated at 40 digits
EXP_SIN_INTEGRAL = 7.954926521012846


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def test_exact_for_cubics():
    # Simpson integrates cubics exactly; no refinement should be needed
    assert adaptive_simpson(lambda t: t**3, 0.0, 1.0) == pytest.approx(0.25, rel=1e-15)
    assert adaptive_simpson(lambda t: 3 * t * t - t, -1.0, 2.0) == pytest.approx(
        9 - 1.5, rel=1e-14
    )


def test_periodic_integrands():
    assert adaptive_simpson(lambda t: np.sin(t) ** 2, 0.0, 2 * math.pi) == pytest.approx(
        math.pi, abs=1e-10
    )
    assert adaptive_simpson(np.sin, 0.0, 2 * math.pi) == pytest.approx(0.0, abs=1e-10)


def test_oscillatory_against_reference():
    got = adaptive_simpson(lambda t: np.exp(np.sin(t)), 0.0, 2 * math.pi, tol=1e-12)
    assert got == pytest.approx(EXP_SIN_INTEGRAL, abs=1e-11)


def test_degenerate_and_reversed_bounds():
    assert adaptive_simpson(np.exp, 1.0, 1.0) == 0.0
    forward = adaptive_simpson(np.exp, 0.0, 1.0)
    assert adaptive_simpson(np.exp, 1.0, 0.0) == pytest.approx(-forward, rel=1e-15)
    assert forward == pytest.approx(math.e - 1.0, rel=1e-12)


def test_kinked_integrand():
    assert adaptive_simpson(lambda t: abs(t - 1.0), 0.0, 2.0, tol=1e-10) == pytest.approx(
        1.0, abs=1e-9
    )


def test_step_discontinuity_fails_budget():
    step = lambda t: np.where(t < 0.5773502691, 0.0, 1.0)
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-13)


def _squared(L):
    """t -> L(t)^2 for a float t, squared by one multiplication as np.square does."""

    def value(t):
        v = L(t)
        return v * v

    return value


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_interpolant_integrals_have_the_recursion_bits(seed):
    """The benchmark's crosscheck integrals, squared interpolants of n = 4..64
    random knots: breadth-first refinement and the depth-first recursion
    accept the same intervals and add them in the same order."""
    rng = np.random.default_rng(seed)
    for n in range(4, 65, 6):
        L = PiecewiseLinear(rng.standard_normal(n) * 2.0)
        got = adaptive_simpson(lambda t: np.square(L(t)), 0.0, TWO_PI, tol=1e-10)
        want = adaptive_simpson_recursive(_squared(L), 0.0, TWO_PI, tol=1e-10)
        assert _bits(got) == _bits(want), n


@pytest.mark.parametrize("array_f, scalar_f, a, b", [
    (lambda t: np.exp(np.sin(t)), lambda t: math.exp(math.sin(t)), 0.0, TWO_PI),
    (lambda t: np.abs(t - 1.0), lambda t: abs(t - 1.0), 0.0, 2.0),
    (np.exp, math.exp, 1.0, 0.0),
])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_smooth_and_kinked_integrals_have_the_recursion_bits(array_f, scalar_f, a, b, tol):
    got = adaptive_simpson(array_f, a, b, tol=tol)
    assert _bits(got) == _bits(adaptive_simpson_recursive(scalar_f, a, b, tol=tol))


def test_both_routes_fail_on_a_step():
    """The step's interval closes no bits per level and reaches MAX_DEPTH;
    both routes report the same interval."""
    c = 0.5773502691
    with pytest.raises(QuadratureFailure) as bfs:
        adaptive_simpson(lambda t: np.where(t < c, 0.0, 1.0), 0.0, 1.0, tol=1e-13)
    with pytest.raises(QuadratureFailure) as dfs:
        adaptive_simpson_recursive(lambda t: 0.0 if t < c else 1.0, 0.0, 1.0, tol=1e-13)
    assert str(bfs.value) == str(dfs.value)
    assert f"at depth {MAX_DEPTH}" in str(bfs.value)


def test_infinite_value_fails_as_the_recursion_does():
    """f(0) = inf makes every estimate on the leftmost interval inf - inf:
    never accepted, it reaches MAX_DEPTH with no numpy warning, which the
    test configuration would turn into an error."""
    with pytest.raises(QuadratureFailure) as bfs:
        adaptive_simpson(lambda t: np.where(t == 0.0, math.inf, 1.0), 0.0, 1.0)
    with pytest.raises(QuadratureFailure) as dfs:
        adaptive_simpson_recursive(lambda t: math.inf if t == 0.0 else 1.0, 0.0, 1.0)
    assert str(bfs.value) == str(dfs.value)


def test_one_integrand_call_per_depth():
    """The ends and middle, then the two quarter-points of every open
    interval: six forced depths of 1, 2, ..., 32 intervals, and at depth 6
    all 64 pass the error test."""
    sizes = []
    adaptive_simpson(lambda t: sizes.append(t.size) or np.sin(t), 0.0, 1.0)
    assert sizes == [3, 2, 4, 8, 16, 32, 64, 128]


def test_frontier_is_bounded_by_the_evaluation_budget():
    """A NaN integrand fails every error test, so every depth doubles the
    open intervals; the evaluation budget stops it within 20 levels, in
    bounded memory and long before MAX_DEPTH."""
    never = lambda t: np.full(t.shape, math.nan)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure,
                           match=rf"budget {EVAL_BUDGET} .* depth \d+ with \d+ open intervals"):
            adaptive_simpson(never, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("f", [
    math.exp,
    lambda t: 0.0 if t < 0.5 else 1.0,
    lambda t: max(0.0, t - 0.5),
])
def test_scalar_only_integrand_is_a_type_error(f):
    with pytest.raises(TypeError, match="1-D float array"):
        adaptive_simpson(f, 0.0, 1.0)


def test_integrand_of_another_shape_is_a_type_error():
    with pytest.raises(TypeError, match="got shape"):
        adaptive_simpson(lambda t: t[:1], 0.0, 1.0)


def test_scalar_result_is_a_constant():
    assert adaptive_simpson(lambda t: 1.5, 0.0, 2.0) == 3.0
