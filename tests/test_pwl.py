import math
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import segment_h1, segment_l2, segment_simpson_product

from wirtinger import (
    BlockOutOfRange,
    DimensionMismatch,
    InvalidSize,
    PiecewiseLinear,
    adaptive_simpson,
    basis_norm,
    build_basis,
    center_normalize,
    cyclic_correlation,
    energy_h1,
    energy_l2,
    inner_product,
    piecewise_bound,
)

TWO_PI = 2.0 * math.pi
SEGMENT_REL_TOL = 1e-12
ADAPTIVE_TOL = 1e-9

EXTREMAL_4 = np.array([0.0, -1.0, 0.0, 1.0]) / math.sqrt(2)


def test_eval_at_knots_is_exact():
    L = PiecewiseLinear(EXTREMAL_4)
    for j, xj in enumerate(EXTREMAL_4, start=1):
        assert L(TWO_PI * j / 4) == xj
    assert L(0.0) == EXTREMAL_4[-1]


def test_eval_midpoints():
    # value at t=2*pi*j/n is x_j and L(0)=x_n, so the segment over [0, pi/2]
    # runs from x_4 down to x_1 and the one over [pi/2, pi] from x_1 to x_2
    L = PiecewiseLinear(EXTREMAL_4)
    half = 1.0 / (2.0 * math.sqrt(2.0))
    assert L(math.pi / 4) == pytest.approx(+half, abs=1e-15)
    assert L(3 * math.pi / 4) == pytest.approx(-half, abs=1e-15)


def test_eval_periodic():
    L = PiecewiseLinear(np.array([0.3, -1.2, 4.0, 0.9, -2.0]))
    for t in (0.0, 0.1, 1.7, 3.9, 6.2):
        assert L(t) == pytest.approx(L(t + TWO_PI), abs=1e-12)
        assert L(t) == pytest.approx(L(t - TWO_PI), abs=1e-12)


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    L = PiecewiseLinear(rng.standard_normal(7))
    ts = rng.uniform(-10, 10, size=50)
    batch = L(ts)
    assert batch.shape == ts.shape
    for t, v in zip(ts, batch):
        assert L(float(t)) == v


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _step_ulps(t: float, steps: int) -> float:
    for _ in range(abs(steps)):
        t = math.nextafter(t, math.copysign(math.inf, steps))
    return t


@st.composite
def _knots_and_point(draw):
    """Knot values (zeros of both signs among them) and a point that is
    anywhere, or within a few ulps of a knot abscissa of some period."""
    n = draw(st.integers(4, 70))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
    knots = draw(st.lists(value, min_size=n, max_size=n))
    anywhere = st.floats(allow_nan=False, allow_infinity=False)
    near_knot = st.builds(
        lambda j, steps: _step_ulps(TWO_PI * j / n, steps),
        st.integers(-3 * n, 3 * n), st.integers(-3, 3))
    return knots, draw(st.one_of(anywhere, near_knot))


SPECIAL_POINTS = (0.0, -0.0, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308)


@given(_knots_and_point())
@example(([0.3, -0.0, 0.0, -1.2], 0.0))
@example(([0.3, -0.0, 0.0, -1.2], -0.0))
@example(([-0.0, 0.5, -2.0, 0.0, -0.0], math.pi * 2 / 5 * 3))
@example(([-0.0, 0.5, -2.0, 0.0, -0.0], math.nextafter(TWO_PI, 0.0)))
@example(([1.0, -3.0, 2.0, 0.25], -1e-300))
@example(([1.0, -3.0, 2.0, 0.25], 1e300))
@example(([1.0, -3.0, 2.0, 0.25], 5e-324))
@example(([1.0, -3.0, 2.0, 0.25], -5e-324))
@example(([1.0, -3.0, 2.0, 0.25, 7.0, -1.5, 0.0], math.nextafter(TWO_PI * 3 / 7, 0.0)))
@example(([1.0, -3.0, 2.0, 0.25, 7.0, -1.5, 0.0], math.nextafter(TWO_PI * 3 / 7, 9.0)))
@settings(max_examples=300, deadline=None)
def test_scalar_path_matches_array_path_bits(case):
    """A Python float takes the plain-Python path; the same value in an array
    takes the numpy path.  Both must give the same bits, zero signs included."""
    knots, t = case
    L = PiecewiseLinear(np.array(knots))
    v = L(t)
    assert type(v) is float
    assert _bits(v) == _bits(float(L(np.array([t]))[0]))


@pytest.mark.parametrize("n", range(4, 71))
def test_scalar_path_matches_array_path_at_every_knot(n):
    """Every knot abscissa over three periods, its neighbours up to 3 ulps
    away, the special points and random points, for knots with -0.0 in them."""
    rng = np.random.default_rng(1000 + n)
    knots = rng.standard_normal(n)
    knots[rng.random(n) < 0.25] = -0.0
    L = PiecewiseLinear(knots)
    ts = [_step_ulps(TWO_PI * j / n, s) for j in range(-n, 2 * n + 1) for s in range(-3, 4)]
    ts += list(SPECIAL_POINTS) + rng.uniform(-20.0, 20.0, 200).tolist()
    batch = L(np.array(ts))
    for t, a in zip(ts, batch.tolist()):
        assert _bits(L(t)) == _bits(a), t


def test_equality_is_identity_and_hashable():
    x = np.array([0.3, -1.2, 4.0, 0.9])
    L, M = PiecewiseLinear(x), PiecewiseLinear(x.copy())
    assert L == L
    assert L != M
    assert len({L, M, L}) == 2
    assert {L: 1}[L] == 1
    assert "_grid" not in repr(L)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_point_gives_nan_without_warning(t):
    L = PiecewiseLinear(np.array([0.3, -1.2, 4.0, 0.9, -2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(L(t))
        assert math.isnan(L(np.float64(t)))
        assert math.isnan(L(np.array(t)))
        batch = L(np.array([t, 1.0]))
    assert math.isnan(batch[0])
    assert batch[1] == L(1.0)


def test_interpolant_rejects_small_n():
    with pytest.raises(InvalidSize):
        PiecewiseLinear(np.array([1.0, 2.0, 3.0]))


def test_energy_l2_constant():
    for c, n in ((1.0, 4), (-2.5, 9)):
        assert energy_l2(np.full(n, c)) == pytest.approx(TWO_PI * c * c, rel=1e-14)


def test_energy_l2_extremal():
    assert energy_l2(EXTREMAL_4) == pytest.approx(math.pi / 3, rel=1e-14)


@pytest.mark.parametrize("n", [4096, 65536])
def test_energy_h1_matches_exact_sum(n):
    """Against (n/2pi) times the exact sum of squared differences of the float
    samples of sin, where <x,x> - <x,Sx> cancels to a part in n^2."""
    x = np.sin(TWO_PI * np.arange(1, n + 1) / n)
    v = [Fraction(e) for e in x.tolist()]
    exact = float(sum((v[j] - v[j - 1]) ** 2 for j in range(n))) * n / TWO_PI
    assert abs(energy_h1(x) - exact) <= 4 * sys.float_info.epsilon * exact


def test_energy_h1_values():
    assert energy_h1(np.full(6, 3.7)) == pytest.approx(0.0, abs=1e-14)
    assert energy_h1(EXTREMAL_4) == pytest.approx(4 / math.pi, rel=1e-14)
    assert energy_h1(np.array([1, -1, 1, -1]) / 2) == pytest.approx(8 / math.pi, rel=1e-14)


@pytest.mark.parametrize("n", [4, 5, 16, 33, 64])
def test_energies_match_segment_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.standard_normal(n) * 3
        assert energy_l2(x) == pytest.approx(segment_l2(x), rel=SEGMENT_REL_TOL)
        assert energy_h1(x) == pytest.approx(segment_h1(x), rel=SEGMENT_REL_TOL)


@pytest.mark.parametrize("n", [4, 9, 16])
def test_energies_match_structure_blind_quadrature(n):
    """Adaptive bisection knowing nothing about knot locations."""
    rng = np.random.default_rng(50 + n)
    x = rng.standard_normal(n)
    L = PiecewiseLinear(x)
    q2 = adaptive_simpson(lambda t: L(t) ** 2, 0.0, TWO_PI, tol=1e-10)
    assert q2 == pytest.approx(energy_l2(x), abs=ADAPTIVE_TOL, rel=ADAPTIVE_TOL)


def test_inner_product_diagonal_is_energy():
    rng = np.random.default_rng(4)
    for n in (4, 11, 32):
        x = rng.standard_normal(n)
        assert inner_product(x, x) == pytest.approx(energy_l2(x), rel=1e-13)


def test_inner_product_basis_cross_terms_vanish():
    b = build_basis(4)
    assert abs(inner_product(b.vectors[2], b.vectors[3])) <= 1e-15


def test_inner_product_symmetric_and_matches_quadrature():
    rng = np.random.default_rng(9)
    n = 32
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    ip = inner_product(x, y)
    assert ip == pytest.approx(inner_product(y, x), rel=1e-15)
    assert ip == pytest.approx(segment_simpson_product(x, y), rel=1e-12, abs=1e-12)
    Lx, Ly = PiecewiseLinear(x), PiecewiseLinear(y)
    q = adaptive_simpson(lambda t: Lx(t) * Ly(t), 0.0, TWO_PI, tol=1e-10)
    assert ip == pytest.approx(q, abs=ADAPTIVE_TOL, rel=ADAPTIVE_TOL)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(np.ones(4), np.ones(5))


def test_basis_norm_values():
    assert basis_norm(4, 1) == pytest.approx(math.pi / 3, rel=1e-15)
    assert basis_norm(6, 1) == pytest.approx(5 * math.pi / 18, rel=1e-15)


def test_basis_norm_matches_energy_of_basis_vectors():
    for n in (5, 8, 31):
        b = build_basis(n)
        for block in b.blocks:
            if not hasattr(block, "indices"):
                continue
            i, j = block.indices
            assert basis_norm(n, block.k) == pytest.approx(
                energy_l2(b.vectors[i]), rel=1e-12
            )
            assert basis_norm(n, block.k) == pytest.approx(
                energy_l2(b.vectors[j]), rel=1e-12
            )


def test_basis_norm_block_range():
    with pytest.raises(BlockOutOfRange):
        basis_norm(6, 3)  # alternating block is not a rotation pair
    with pytest.raises(BlockOutOfRange):
        basis_norm(6, 0)


def test_interpolant_orthogonality():
    for n in (4, 9, 33, 128):
        b = build_basis(n)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                gram[i, j] = gram[j, i] = inner_product(b.vectors[i], b.vectors[j])
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=32).map(np.array))
@settings(max_examples=200, deadline=None)
def test_centered_h1_dominates_l2(x):
    x = x - np.mean(x)
    h1, l2 = energy_h1(x), energy_l2(x)
    assert h1 >= l2 - 1e-12 * max(1.0, h1)


def test_equivalence_chain_sign():
    """(energy_h1 - energy_l2) and (piecewise_bound - correlation) agree in sign
    for centered unit vectors; the two differ by the positive factor
    (3n^2 + 2pi^2)/(3pi n)."""
    rng = np.random.default_rng(21)
    for n in (4, 7, 16, 64):
        factor = (3 * n * n + 2 * math.pi**2) / (3 * math.pi * n)
        for _ in range(50):
            x = center_normalize(rng.standard_normal(n))
            lhs = energy_h1(x) - energy_l2(x)
            rhs = piecewise_bound(n) - cyclic_correlation(x)
            assert lhs == pytest.approx(factor * rhs, rel=1e-10, abs=1e-12)
