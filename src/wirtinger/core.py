"""Cyclic sample vectors and the shift operator.

A sample vector holds real values x_1..x_n with the cyclic convention
x_0 = x_n.  Stored 0-based: entry j-1 of the array is x_j, the value at
t_j = 2*pi*j/n.
"""

import math
import sys

import numpy as np

from .errors import BlockOutOfRange, DegenerateVector, InvalidSize, NonFinite

TWO_PI = 2.0 * math.pi

# Centered vectors below this Euclidean norm are treated as zero.
DEGENERATE_NORM = 1e-300

# fsum_rows takes the whole-array route from this many rows or this many entries
# (m*n) on, and calls math.fsum row by row below both.  Measured on squared
# Gaussian rows (whole-array time over row-by-row time, numpy 2.4, one Xeon
# core): m=1: 1.31 at n=2048, 0.65 at n=4096; m=5: 12-13 at n=4..12, 0.89 at
# n=512, 0.57 at n=1024; m=10, n=257: 1.00; m=20, n=160: 1.08; m=30, n=160:
# 0.48; m=100: 1.3 at n=4, 1.0 at n=8, 0.45 at n=32; m=160: 1.0 at n=3..5, 0.7
# at n=8; m=205: 0.7 at n=4, 0.4 at n=19; m=1000: 0.2-0.8 at n=1..4.  The
# whole-array route costs about 50 us however small the array, and a row of
# math.fsum about 0.25 us plus 0.05 us an entry.
FSUM_ROWS_MIN_ROWS = 160
FSUM_ROWS_MIN_ENTRIES = 4096
# Rows whose sum of |entries| reaches this may overflow inside math.fsum, which
# then raises; the whole-array route leaves them to it.
_FSUM_ROWS_MAX_ABS_SUM = sys.float_info.max / 8


def _require_size(n: int) -> None:
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")


def _require_rotation_block(n: int, k: int) -> None:
    if not 1 <= k <= (n - 1) // 2:
        raise BlockOutOfRange(f"need 1 <= k <= {(n - 1) // 2} for n={n}, got {k}")


def as_samples(x) -> np.ndarray:
    """Coerce to a finite, non-empty 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("sample vector must be a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise NonFinite("sample vector entries must be finite")
    return v


def fdot(x, y) -> float:
    """Dot product with compensated (error-free) summation of the products."""
    return math.fsum((np.asarray(x, dtype=float) * np.asarray(y, dtype=float)).tolist())


def fsum(x) -> float:
    """Compensated sum of the entries."""
    return math.fsum(np.asarray(x, dtype=float).tolist())


def fsum_rows(x) -> np.ndarray:
    """math.fsum of every row of a 2-D array, with its bits and its exceptions.

    Large arrays take all rows at once (Ogita, Rump & Oishi, SIAM J. Sci.
    Comput. 26, 2005): a pairwise TwoSum tree gives each row's float sum s and
    the exact rounding errors of its additions, whose float sum e errs by at
    most `bound`.  A final TwoSum splits s + e into r + t, so the exact sum
    lies within |t| + bound of r.  r is the correctly rounded sum, as fsum's is,
    when that is strictly less than half the spacing from |r| towards zero, the
    smaller of its two spacings.  Every other row (ties, zero sums, inf, NaN,
    sums that may overflow) goes through math.fsum.  The tree's levels alternate
    between two buffers, so no level is copied back.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < FSUM_ROWS_MIN_ROWS and m * n < FSUM_ROWS_MIN_ENTRIES:
        return np.array([math.fsum(row) for row in x.tolist()], dtype=float)
    with np.errstate(all="ignore"):
        abs_sum = np.abs(x).sum(axis=1)
        level = np.array(x.T, order="C")  # a copy: the tree writes over it
        other = np.empty(((n + 1) // 2, m))
        v_buf, e_buf = np.empty((2, n // 2, m))
        err = np.zeros(m)
        count = n
        while count > 1:
            h = count // 2
            a, b = level[:h], level[h:2 * h]
            s, v, e = other[:h], v_buf[:h], e_buf[:h]
            # TwoSum: s + e == a + b exactly
            np.add(a, b, out=s)
            np.subtract(s, a, out=v)
            np.subtract(s, v, out=e)
            np.subtract(a, e, out=e)
            np.subtract(b, v, out=v)
            np.add(e, v, out=e)
            err += e.sum(axis=0)
            if count % 2:
                other[h] = level[count - 1]
            level, other = other, level
            count = h + count % 2
        total = level[0]
        r = total + err
        v = r - total
        t = (total - (r - v)) + (err - v)
        # Every level's errors sum to at most eps/2 times the row's sum of |x|,
        # and adding the n - 1 of them errs by gamma_n times their sum (Higham,
        # Accuracy and Stability, 2nd ed., ch. 4); the factor 2 covers the
        # roundings of abs_sum and of this product.  A product that underflows
        # is harmless: errors that small are summed exactly.
        levels = (n - 1).bit_length()
        bound = abs_sum * (2.0 * n * levels * 2.0**-106)
        magnitude = np.abs(r)
        gap = magnitude - np.nextafter(magnitude, 0.0)
        # written as "clears the bound" so that NaN rows are not certified
        certified = (np.abs(t) + bound < 0.5 * gap) & (abs_sum < _FSUM_ROWS_MAX_ABS_SUM)
    for i in np.flatnonzero(~certified):
        r[i] = math.fsum(x[i].tolist())
    return r


def shift(x) -> np.ndarray:
    """Cyclic shift (x_1, x_2, ..., x_n) -> (x_n, x_1, ..., x_{n-1}).

    An isometry of R^n; norms are preserved exactly.
    """
    return np.roll(as_samples(x), 1)


def cyclic_correlation(x) -> float:
    """Sum of x_j * x_{j-1} around the cycle, i.e. <X, shift(X)>."""
    v = as_samples(x)
    return fdot(v, np.roll(v, 1))


def cyclic_correlation_rows(xs) -> np.ndarray:
    """cyclic_correlation of every row of an (m, n) array, with its bits."""
    return fsum_rows(xs * np.roll(xs, 1, axis=1))


def center_normalize(x) -> np.ndarray:
    """Subtract the mean and scale to unit Euclidean norm.

    Raises DegenerateVector for (numerically) constant input.
    """
    v = as_samples(x)
    centered = v - fsum(v) / v.size
    # rounding leaves the first pass a mean of order ulp(x); a second pass removes it
    centered -= fsum(centered) / v.size
    norm = math.sqrt(fdot(centered, centered))
    if norm < DEGENERATE_NORM:
        raise DegenerateVector("constant vector has no centered direction")
    return centered / norm
