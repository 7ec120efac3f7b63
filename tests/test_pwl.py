import math
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    interpolant_per_point_difference,
    segment_h1,
    segment_l2,
    segment_simpson_product,
)

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


SPECIAL_POINTS = (0.0, -0.0, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308)


@pytest.mark.parametrize("n", range(4, 71))
def test_scalar_path_matches_array_path_at_every_knot(n):
    """A float t takes the one numpy path and returns a Python float with the
    bits of its entry in an array evaluation, zero signs included: at every
    knot abscissa over three periods, its neighbours up to 3 ulps away, the
    special points and random points, for knots with -0.0 in them."""
    rng = np.random.default_rng(1000 + n)
    knots = rng.standard_normal(n)
    knots[rng.random(n) < 0.25] = -0.0
    L = PiecewiseLinear(knots)
    ts = [_step_ulps(TWO_PI * j / n, s) for j in range(-n, 2 * n + 1) for s in range(-3, 4)]
    ts += list(SPECIAL_POINTS) + rng.uniform(-20.0, 20.0, 200).tolist()
    batch = L(np.array(ts))
    for t, a in zip(ts, batch.tolist()):
        v = L(t)
        assert type(v) is float
        assert _bits(v) == _bits(a), t


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


def _knot_points(n: int) -> np.ndarray:
    """Each knot abscissa over three periods, 1 to 3 ulps either side of it,
    a point inside each segment, and the non-finite and huge points."""
    t = TWO_PI * np.arange(-n, 2 * n + 1) / n
    near = [t, TWO_PI * (np.arange(-n, 2 * n) + 0.37) / n]
    for direction in (math.inf, -math.inf):
        s = t
        for _ in range(3):
            s = np.nextafter(s, direction)
            near.append(s)
    return np.concatenate(near + [np.array([math.inf, -math.inf, math.nan, 1e300, -1e300])])


def _assert_same_bits(knots, t):
    got = PiecewiseLinear(knots)(t)
    want = interpolant_per_point_difference(knots, t)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), knots.size


@pytest.mark.parametrize("scale", [math.exp(-30.0), 1.0, math.exp(30.0)])
def test_call_has_the_bits_of_a_difference_per_point(scale):
    """Precomputed knot differences and a padded grid give the bits of the
    per-point difference and the index reduced mod n: at every knot, a few
    ulps off it, and at non-finite and huge t, with signed zero knots."""
    rng = np.random.default_rng(26)
    for n in range(4, 301):
        knots = rng.standard_normal(n) * scale
        knots[rng.integers(0, n, 2)] = -0.0
        _assert_same_bits(knots, _knot_points(n))


def test_overflowing_knot_differences_keep_their_values():
    """Knots near +-DBL_MAX, whose differences overflow: building warns of
    nothing, a knot query returns the stored knot, the values between such
    knots are finite, (1 - frac)*lo + frac*hi, and the other segments keep the
    bits of a difference per point."""
    big = sys.float_info.max
    knots = np.array([big, -big, 0.75 * big, -0.0, -big, 0.5 * big, big])
    n = knots.size
    L = PiecewiseLinear(knots)  # a RuntimeWarning here fails the test
    at_knots = L(TWO_PI * np.arange(-n, 2 * n + 1) / n)  # x_n, x_1, ..., x_n over three periods
    stored = np.resize(np.roll(knots, 1), 3 * n + 1)
    assert np.array_equal(at_knots.view(np.uint64), stored.view(np.uint64))
    t = _knot_points(n)
    got = L(t)
    assert np.isfinite(got[np.isfinite(t)]).all()
    assert np.isnan(got[~np.isfinite(t)]).all()
    _assert_same_bits(knots, t)


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
