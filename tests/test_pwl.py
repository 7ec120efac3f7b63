import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
