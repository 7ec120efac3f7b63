import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import shift_matrix

from wirtinger import (
    DegenerateVector,
    NonFinite,
    center_normalize,
    cyclic_correlation,
    cyclic_correlation_rows,
    shift,
)
from wirtinger import core
from wirtinger.core import FSUM_ROWS_MIN_ENTRIES, fdot, fsum, fsum_rows

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


def test_as_samples_needs_a_non_empty_vector():
    for x in ([[1.0, 2.0], [3.0, 4.0]], [], np.empty((0, 4))):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            core.as_samples(x)


@pytest.mark.parametrize("xs, error, message", [
    (np.ones(5), ValueError, "non-empty 2-D array"),
    (np.ones((2, 0)), ValueError, "non-empty 2-D array"),
    (np.ones((2, 2, 2)), ValueError, "non-empty 2-D array"),
    ([[1.0, 2.0, math.inf, 0.0]], NonFinite, "entries must be finite"),
    ([[1.0, 2.0, 3.0, 4.0], [0.0, math.nan, 0.0, 0.0]], NonFinite, "entries must be finite"),
])
def test_cyclic_correlation_rows_rejects_what_cyclic_correlation_rejects(xs, error, message):
    """A 1-D array, rows of no entries, or a row with inf or NaN raises as
    cyclic_correlation does on a bad vector, with as_samples' messages; no
    rows of n entries give no correlations."""
    with pytest.raises(error, match=message):
        cyclic_correlation_rows(xs)
    assert cyclic_correlation_rows(np.ones((0, 5))).shape == (0,)


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


def _fsum_outcome(f, x):
    """The bytes of f(x), or the type and message of what it raises."""
    try:
        return f(x).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _fsum_each_row(x) -> np.ndarray:
    return np.array([math.fsum(row) for row in x.tolist()], dtype=float)


def _assert_fsum_rows_bits_on_both_routes(rows):
    """fsum_rows gives math.fsum's bits, or raises as it does, on `rows` as
    given, padded with random rows past the whole-array entry threshold, and
    padded to the last row count below that threshold and the first at it.
    Returns math.fsum's outcome on `rows`."""
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    past_entries = -(-FSUM_ROWS_MIN_ENTRIES // n)
    filler = np.random.default_rng(n).standard_normal((past_entries, n))
    padded = [np.concatenate([filler, rows, filler])]
    for total in (past_entries - 1, past_entries):
        if total > m:
            padded.append(np.concatenate([rows, filler[:total - m]]))
    for x in (rows, *padded):
        assert _fsum_outcome(fsum_rows, x) == _fsum_outcome(_fsum_each_row, x)
    return _fsum_outcome(_fsum_each_row, rows)


TINY = 2.0**-1074
MAX = sys.float_info.max
INF = math.inf


@pytest.mark.parametrize("rows, raises", [
    ([[1.0, 2.0**-53, 0.0]], None),  # half-ulp tie, rounds down to even
    ([[1.0 + 2.0**-52, 2.0**-53, 0.0]], None),  # half-ulp tie, rounds up to even
    ([[2.0**53, 1.0, 0.0], [2.0**53, 3.0, 0.0], [-(2.0**53), -1.0, 2.0**-60]], None),
    # cancels to far below the last bit of the largest entry
    ([[1.0, -(1.0 + 2.0**-52), 1.5 * 2.0**-52, -(1.0 + 3 * 2.0**-52) * 2.0**-56]], None),
    ([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, -1.0, -0.0]], None),
    ([[TINY, TINY, TINY], [-TINY, 2.0**-1022, TINY], [2.0**-1022, -(2.0**-1023), -TINY]], None),
    ([[INF, 1.0, 2.0], [1.0, 2.0, 3.0], [-INF, -INF, 1.0]], None),
    ([[1.0, 2.0, 3.0], [math.nan, 1.0, 2.0], [INF, math.nan, 1.0]], None),
    ([[1.0, 2.0, 3.0], [INF, -INF, 1.0], [math.nan, 0.0, 0.0]], ValueError),
    ([[1.0, 2.0, 3.0], [1e308, 1e308, -1e308]], OverflowError),
    # fsum overflows adding in order, though the exact sum is 1
    ([[1.0, 2.0, 3.0, 4.0, 5.0], [MAX, MAX, -MAX, -MAX, 1.0]], OverflowError),
    ([[MAX, -MAX, MAX / 16], [MAX / 4, MAX / 4, -MAX / 4]], None),
    ([[1e16, 1.0, -1e16], [1.0, 1e16, -1e16], [-1e16, 1e16, 1.0], [1e16, -1.0, -1e16]], None),
    # mirrored halves: exact zero sums, whose sign math.fsum decides
    ([[0.3, -1.7, 2.5, -2.5, 1.7, -0.3], [-1e-3, 1e20, 7.0, -7.0, -1e20, 1e-3]], None),
    ([[math.exp(30.0), -math.exp(-30.0), 1.0], [math.exp(-30.0), math.exp(-31.0), -math.exp(-29.5)]],
     None),
    # either side of 2**-900 (the extraction assumes no underflow), and a tie at it
    ([[2.0**-901, 3 * 2.0**-960, -(2.0**-930)], [2.0**-899, 3 * 2.0**-960, -(2.0**-930)],
      [2.0**-900, 2.0**-953, 0.0]], None),
    # at DBL_MAX/(n+2), where sigma overflows, and at 1/64 of it, the largest scale extracted
    ([[MAX / 5, MAX / 5, -MAX / 5], [MAX / 320, MAX / 320, -MAX / 640]], None),
])
def test_fsum_rows_pinned_cases(rows, raises):
    outcome = _assert_fsum_rows_bits_on_both_routes(rows)
    assert (outcome[0] if isinstance(outcome, tuple) else None) is raises


@pytest.mark.parametrize("m, n, whole", [
    (FSUM_ROWS_MIN_ENTRIES // 4 - 1, 4, False),
    (FSUM_ROWS_MIN_ENTRIES // 4, 4, True),
    (205, 9, False),  # verify's draw at n = 9, of 1845 entries
    (205, 10, True),  # and at n = 10, of 2050
    (5, FSUM_ROWS_MIN_ENTRIES // 5, False),
    (5, FSUM_ROWS_MIN_ENTRIES // 5 + 1, True),
])
def test_fsum_rows_route_by_rows_and_entries(m, n, whole, monkeypatch):
    """Below the entry threshold every row goes through math.fsum, however many
    rows there are; from it on, the whole-array route certifies most random
    rows without it."""
    x = np.random.default_rng(m * n).standard_normal((m, n))
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
    assert fsum_rows(x).tobytes() == _fsum_each_row(x).tobytes()
    del calls[-m:]  # the reference's own calls
    assert (len(calls) < m) is whole


@pytest.mark.parametrize("n", [2**k + d for k in range(1, 13) for d in (-1, 1)])
def test_fsum_rows_odd_counts_at_every_level(n):
    """Rows of 2^k - 1 and 2^k + 1 entries whose last entry matters: it
    cancels the first, makes a half-ulp tie, dominates, or cancels all the
    rest.  The padding takes every n past the whole-array threshold."""
    rows = np.random.default_rng(n).standard_normal((5, n))
    rows[1, 0], rows[1, -1] = 1e16, -1e16
    rows[2] = 0.0
    rows[2, 0], rows[2, -1] = 1.0, 2.0**-53
    rows[3, -1] = 2.0**60
    rows[4] = np.ldexp(rows[4], 900)
    rows[4, -1] = -rows[4, :-1].sum()  # cancels all the rest, up to rounding
    _assert_fsum_rows_bits_on_both_routes(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100, 160])
def test_fsum_rows_gaussian_ties_and_random_low_bits(n):
    """Gaussian rows, of which about one in ten at n = 4 is a tie that only
    math.fsum decides, and same-sign rows +-(1 + k*2**-52) with every low bit
    random, whose extraction needs sigma's full 2**ceil(log2(n+2)) headroom."""
    rng = np.random.default_rng([n, 52])
    signs = rng.choice([-1.0, 1.0], (200, 1))
    low_bits = signs * (1.0 + rng.integers(0, 2**52, (200, n)) * 2.0**-52)
    for rows in (rng.standard_normal((200, n)), low_bits, np.ldexp(low_bits, 700)):
        _assert_fsum_rows_bits_on_both_routes(rows)


@pytest.mark.parametrize("n", [FSUM_ROWS_MIN_ENTRIES - 1, FSUM_ROWS_MIN_ENTRIES,
                               FSUM_ROWS_MIN_ENTRIES + 1, 4 * FSUM_ROWS_MIN_ENTRIES])
def test_fdot_and_fsum_are_one_row_sums(n, monkeypatch):
    """fdot and fsum return a Python float with math.fsum's bits on either
    side of the whole-array threshold, each as one row of fsum_rows."""
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    mirrored = np.concatenate([x[: n // 2], -x[: n // 2][::-1], [0.0] * (n % 2)])
    calls = []
    monkeypatch.setattr(core, "fsum_rows", lambda rows: calls.append(rows.shape) or fsum_rows(rows))
    for v in (x, x * x, x - x.mean(), mirrored, np.ldexp(x, -1000)):
        got = fsum(v)
        assert type(got) is float and got.hex() == math.fsum(v.tolist()).hex()
    got = fdot(x, y)
    assert type(got) is float and got.hex() == math.fsum((x * y).tolist()).hex()
    assert calls == [(1, n)] * 6


@pytest.mark.parametrize("m, n", [(5, 8), (205, 19), (205, 20), (3, 4096)])
def test_cyclic_correlation_rows_matches_per_row_bits(m, n):
    """Each row gets cyclic_correlation's bits, on both fsum_rows routes."""
    xs = np.random.default_rng([m, n]).standard_normal((m, n))
    want = np.array([cyclic_correlation(x) for x in xs])
    assert cyclic_correlation_rows(xs).tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 120),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "squared", "centered", "integers", "mirrored", "low_bits"]),
    exponent=st.integers(-8, 8) | st.integers(-1100, 1030),  # unit scale, or any scale
    specials=st.lists(st.tuples(st.integers(0, 10**6), st.floats()), max_size=4),
)
def test_fsum_rows_matches_math_fsum_bits(m, n, seed, kind, exponent, specials):
    """Each row has math.fsum's bits, or raises as math.fsum does, on both
    sides of the whole-array threshold, at any n and any scale."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    if kind == "squared":
        x = x * x
    elif kind == "centered":
        x -= x.mean(axis=1, keepdims=True)
    elif kind == "integers":  # sums with many exact half-ulp ties
        x = rng.integers(-(2**54), 2**54, (m, n)).astype(float)
    elif kind == "mirrored":  # exact zero sums, or the middle entry for odd n
        x[:, n - n // 2:] = -x[:, : n // 2][:, ::-1]
    elif kind == "low_bits":  # same-sign rows, every low bit random
        x = np.sign(x[:, :1]) * (1.0 + rng.integers(0, 2**52, (m, n)) * 2.0**-52)
    with np.errstate(over="ignore", under="ignore"):
        x = np.ldexp(x, exponent)
    for position, value in specials:
        x.flat[position % x.size] = value
    assert _fsum_outcome(fsum_rows, x) == _fsum_outcome(_fsum_each_row, x)
