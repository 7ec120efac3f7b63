import math
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import adaptive_simpson_recursive

from wirtinger import PiecewiseLinear, QuadratureFailure, adaptive_simpson, quadrature
from wirtinger.quadrature import EVAL_BUDGET, MAX_DEPTH, MIN_DEPTH

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


def _depth(x: float) -> int:
    """The depth at which bisection of [0, 1] first evaluates the dyadic x:
    an odd multiple of 2**-(d + 2) is a quarter-point of depth d."""
    return x.as_integer_ratio()[1].bit_length() - 3


def test_one_integrand_call_per_depth():
    """One call on the 257 points of the forced depths and the first error
    test: on sin every interval of depth 6 passes it.  A kink at tol 1e-13
    then takes one call per deeper depth, on the two quarter-points of each
    interval still open there, as many as the recursion evaluates."""
    sizes = []
    adaptive_simpson(lambda t: sizes.append(t.size) or np.sin(t), 0.0, 1.0)
    assert sizes == [257]
    sizes, points = [], []
    adaptive_simpson(lambda t: sizes.append(t.size) or np.abs(t - 0.3), 0.0, 1.0, tol=1e-13)
    adaptive_simpson_recursive(lambda t: points.append(t) or abs(t - 0.3), 0.0, 1.0, tol=1e-13)
    depths = [_depth(x) for x in points if _depth(x) > MIN_DEPTH]
    assert sizes[0] == 257 and len(sizes) > 20
    assert sizes[1:] == [depths.count(d) for d in range(MIN_DEPTH + 1, max(depths) + 1)]
    assert all(size % 2 == 0 for size in sizes[1:])


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.1, 2.9), (-1e-3, TWO_PI), (3.0, -0.7)])
def test_first_call_is_the_recursion_points_through_the_forced_depths(a, b):
    """At a tolerance every interval of depth MIN_DEPTH meets, the recursion
    evaluates exactly the points of the forced depths: the first call takes
    the same bits, in order."""
    calls, points = [], []
    adaptive_simpson(lambda t: calls.append(t.copy()) or np.sin(t), a, b, tol=1.0)
    adaptive_simpson_recursive(lambda t: points.append(t) or math.sin(t), a, b, tol=1.0)
    assert len(calls) == 1 and len(points) == 4 * 2**MIN_DEPTH + 1
    assert [_bits(x) for x in calls[0].tolist()] == [_bits(x) for x in sorted(points)]


@pytest.mark.parametrize("rows, budget, message, sizes", [
    ((), 100, "at depth 6 with 64 open intervals", [257]),
    ((3, 1), 700, "at depth 6 with 64 open intervals", [257]),
    ((4081, 1), EVAL_BUDGET, "at depth 6 with 64 open intervals", [257]),
])
def test_forced_depths_over_the_budget_fail_where_one_call_per_depth_did(
        rows, budget, message, sizes, monkeypatch):
    """The forced depths' one call, 4 * 2**MIN_DEPTH + 1 points times the
    components, is checked after it returns, at depth MIN_DEPTH, for a 1-D f
    as for rows."""
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", budget)
    calls = []
    with pytest.raises(QuadratureFailure) as exc:
        adaptive_simpson(lambda t: calls.append(t.size) or np.abs(t - 1.0 / 3.0) * np.ones(rows),
                         0.0, 1.0)
    assert str(exc.value) == f"evaluation budget {budget} exhausted {message}"
    assert calls == sizes


def test_forced_depths_take_the_real_budget_in_one_call():
    """At EVAL_BUDGET = 2**20 the forced depths' 257 points take 4,080 rows;
    4,081 fail after the one call (a case of the test above)."""
    calls = []
    assert not adaptive_simpson(lambda t: calls.append(t.size) or np.zeros((4080, t.size)),
                                0.0, 1.0).any()
    assert EVAL_BUDGET == 2**20 and calls == [257]


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


@pytest.mark.parametrize("a, b", [(np.zeros(2), np.ones(3)), (np.zeros((2, 2)), np.ones((2, 2))),
                                  (0.0, np.ones(2))])
def test_bounds_of_other_shapes_are_a_value_error(a, b):
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        adaptive_simpson(np.exp, a, b)


@pytest.mark.parametrize("a, b", [(np.zeros(3), np.ones(3)), (np.zeros(1), np.ones(1)),
                                  (np.empty(0), np.empty(0))])
def test_arrays_of_one_length_are_a_value_error_that_says_what_to_do(a, b):
    with pytest.raises(ValueError, match="integrate one interval per call"):
        adaptive_simpson(np.exp, a, b)


@pytest.mark.parametrize("f", [
    math.exp,
    lambda t: 0.0 if t < 0.5 else 1.0,
    lambda t: max(0.0, t - 0.5),
])
def test_scalar_only_integrand_is_a_type_error(f):
    with pytest.raises(TypeError, match="1-D float array"):
        adaptive_simpson(f, 0.0, 1.0)
    calls = []
    with pytest.raises(TypeError, match="1-D float array"):
        adaptive_simpson(lambda t: calls.append(t) or f(t), 1.0, 0.0)
    assert len(calls) == 1


def test_integrand_of_another_shape_is_a_type_error():
    with pytest.raises(TypeError, match="got shape"):
        adaptive_simpson(lambda t: t[:1], 0.0, 1.0)


def test_scalar_result_is_a_constant():
    assert adaptive_simpson(lambda t: 1.5, 0.0, 2.0) == 3.0


# components that accept at different depths: smooth, oscillating, kinked and zero
COMPONENTS = (np.sin, lambda t: np.sin(40.0 * t), lambda t: np.abs(t - 1.0), lambda t: 0.0 * t)


def _rows(t):
    return np.array([g(t) for g in COMPONENTS])


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_rows_have_the_bits_of_each_component_alone(tol):
    """Bounds with a < b, a == b and a > b: row i of a vector integrand has
    the bits of component i integrated alone."""
    for a, b in [(0.0, 2.0), (1.5, 1.5), (2.0, 0.25), (-0.5, 0.7), (3.0, 1.0)]:
        got = adaptive_simpson(_rows, a, b, tol=tol)
        assert got.shape == (len(COMPONENTS),)
        for g, row in zip(COMPONENTS, got.tolist()):
            assert _bits(row) == _bits(adaptive_simpson(g, a, b, tol=tol)), (a, b)


def test_rows_on_equal_bounds_are_zeros_of_their_shape():
    assert adaptive_simpson(_rows, 1.0, 1.0).tolist() == [0.0] * len(COMPONENTS)
    got = adaptive_simpson(_rows, -0.0, 0.0)
    assert got.shape == (len(COMPONENTS),) and {_bits(v) for v in got.tolist()} == {_bits(0.0)}


def test_one_row_is_an_array_of_one():
    got = adaptive_simpson(lambda t: np.exp(t)[None], 0.0, 1.0)
    assert got.shape == (1,) and _bits(got[0]) == _bits(adaptive_simpson(np.exp, 0.0, 1.0))


@pytest.mark.parametrize("f", [
    lambda t: np.ones((2, t.size + 1)),
    lambda t: np.ones((2, 1, t.size)),
    # the rows change after the first call, on the 257 points; the kink needs a second call
    lambda t: np.abs(t - 0.3) * np.ones((2 if t.size == 257 else 3, 1)),
])
def test_rows_of_another_shape_are_a_type_error(f):
    with pytest.raises(TypeError, match="got shape"):
        adaptive_simpson(f, 0.0, 1.0)


def test_a_row_that_misses_its_tolerance_fails_as_it_does_alone():
    c = 0.5773502691
    step = lambda t: np.where(t < c, 0.0, 1.0)
    with pytest.raises(QuadratureFailure) as alone:
        adaptive_simpson(step, 0.0, 1.0, tol=1e-13)
    with pytest.raises(QuadratureFailure) as rows:
        adaptive_simpson(lambda t: np.array([np.sin(t), step(t)]), 0.0, 1.0, tol=1e-13)
    assert str(rows.value) == str(alone.value)
    assert f"at depth {MAX_DEPTH}" in str(rows.value)


def test_budget_counts_components_times_points(monkeypatch):
    """Three copies of sin(40t) refine on the intervals of one, so they take
    three values per point: a budget of exactly that passes, one less fails."""
    sizes = []
    adaptive_simpson(lambda t: sizes.append(t.size) or np.sin(40.0 * t), 0.0, 2.0)
    three = lambda t: np.sin(40.0 * t) * np.ones((3, 1))
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 3 * sum(sizes))
    adaptive_simpson(three, 0.0, 2.0)
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 3 * sum(sizes) - 1)
    with pytest.raises(QuadratureFailure, match="open intervals"):
        adaptive_simpson(three, 0.0, 2.0)
