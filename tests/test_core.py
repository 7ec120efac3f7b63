import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wirtinger import (
    ConstraintStatus,
    DegenerateVector,
    NonFinite,
    center_normalize,
    constraint_status,
    cyclic_correlation,
    shift,
    shift_matrix,
)
from wirtinger.core import fdot

REL_TOL = 1e-13

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=64).map(np.array)


def test_shift_definition():
    assert np.array_equal(shift([1, 2, 3]), [3, 1, 2])


def test_shift_constant_fixed_point():
    c = 2.5
    assert np.array_equal(shift([c, c, c, c]), [c, c, c, c])


def test_shift_extremal_example():
    s = 1 / math.sqrt(2)
    assert np.allclose(shift([0, -s, 0, s]), [s, 0, -s, 0], atol=0, rtol=0)


def test_shift_matrix_matches_shift():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4, 5, 17):
        x = rng.standard_normal(n)
        assert np.array_equal(shift_matrix(n) @ x, shift(x))


def test_correlation_examples():
    assert cyclic_correlation([0.5, 0.5, 0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    s = 1 / math.sqrt(2)
    assert cyclic_correlation([0, -s, 0, s]) == pytest.approx(0.0, abs=1e-16)
    assert cyclic_correlation(np.array([1, -1, 1, -1]) / 2) == pytest.approx(-1.0, abs=1e-15)


def test_correlation_rejects_non_finite():
    with pytest.raises(NonFinite):
        cyclic_correlation([1.0, math.nan, 0.0])


def test_center_normalize_example():
    out = center_normalize([1, 1, 1, 3])
    expected = np.array([-1, -1, -1, 3]) / (2 * math.sqrt(3))
    assert np.allclose(out, expected, atol=1e-15)


def test_center_normalize_fixed_point():
    s = 1 / math.sqrt(2)
    x = np.array([0, -s, 0, s])
    assert np.allclose(center_normalize(x), x, atol=1e-15)


def test_center_normalize_constant_degenerate():
    with pytest.raises(DegenerateVector):
        center_normalize([5.0, 5.0, 5.0, 5.0])


def test_constraint_status_fields():
    st_ = constraint_status([1.0, 2.0, 3.0, 6.0])
    assert isinstance(st_, ConstraintStatus)
    assert st_.mean == pytest.approx(3.0)
    assert st_.norm_sq == pytest.approx(50.0)


@given(vectors)
@settings(max_examples=150, deadline=None)
def test_shift_is_isometry(x):
    assert fdot(x, x) == pytest.approx(fdot(shift(x), shift(x)), rel=REL_TOL, abs=1e-30)


@given(vectors)
@settings(max_examples=150, deadline=None)
def test_correlation_matches_inner_product_with_shift(x):
    assert cyclic_correlation(x) == pytest.approx(fdot(x, shift(x)), rel=REL_TOL, abs=1e-12)


@given(vectors)
@settings(max_examples=150, deadline=None)
def test_correlation_shift_invariant(x):
    assert cyclic_correlation(shift(x)) == pytest.approx(
        cyclic_correlation(x), rel=REL_TOL, abs=1e-12
    )


@given(st.lists(finite_floats, min_size=4, max_size=64).map(np.array))
@example(np.array([838858.9999999999, 838858.9999999999, 838471.0, 838726.0, 838595.0]))
@settings(max_examples=150, deadline=None)
def test_center_normalize_idempotent(x):
    x = x + np.arange(x.size)  # keep the draw away from constant vectors
    once = center_normalize(x)
    twice = center_normalize(once)
    assert np.abs(twice - once).max() <= 1e-13


def test_center_normalize_postconditions_at_scale():
    rng = np.random.default_rng(11)
    for n in (4, 33, 512):
        out = center_normalize(rng.standard_normal(n) * 100 + 7)
        assert abs(float(np.sum(out))) <= 1e-14 * max(1.0, np.abs(out).max()) * n
        assert abs(fdot(out, out) - 1.0) <= 1e-13
