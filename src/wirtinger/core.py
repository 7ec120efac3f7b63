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
# core): m=1: 0.74-1.12 at n=1024, 0.39 at n=2048, 0.18 at 4096, 0.07 at 16384;
# m=2, n=1024: 1.88; m=5: 1.59 at n=160, 1.26 at n=256, 1.0 at n=410, 0.92 at
# n=512; m=10, n=160: 0.93; m=20: 1.34 at n=32, 0.42 at n=160; m=30, n=32: 0.89;
# m=100: 1.15 at n=4, 0.84 at n=8; m=128, n=4: 1.09; m=160: 1.17 at n=2, 0.81
# at n=3, 0.73 at n=4; m=205: 0.60 at n=4, 0.22 at n=19.  The whole-array route
# costs about 30 us however small the array, and more per entry when few rows
# share each step; a row of math.fsum costs about 0.25 us plus 0.04 us an entry.
FSUM_ROWS_MIN_ROWS = 160
FSUM_ROWS_MIN_ENTRIES = 2048
# The whole-array route leaves to math.fsum the rows whose largest |entry| is
# below _MIN_SCALE, and those whose sigma reaches _MAX_SIGMA, which may overflow
# inside math.fsum (it then raises).
_FSUM_ROWS_MIN_SCALE = 2.0**-900
_FSUM_ROWS_MAX_SIGMA = sys.float_info.max / 8


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
    return fsum(np.asarray(x, dtype=float) * np.asarray(y, dtype=float))


def fsum(x) -> float:
    """Compensated sum of the entries: math.fsum's bits, through fsum_rows."""
    v = np.asarray(x, dtype=float)
    if v.size < FSUM_ROWS_MIN_ENTRIES:
        return math.fsum(v.tolist())
    return float(fsum_rows(v.reshape(1, -1))[0])


def fsum_rows(x) -> np.ndarray:
    """math.fsum of every row of a 2-D array, with its bits and its exceptions.

    Large arrays take all rows at once, by one round of error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3).  A row
    of n entries with max|x| < 2**e gets sigma = 2**(e + M), M = (n+1).bit_length()
    = ceil(log2(n+2)), so sigma >= 2**M * max|x|.  Each high part
    (sigma + x) - sigma is then a multiple of u*sigma (u = 2**-53) of size at
    most sigma/2**M, so every partial sum of the highs stays below sigma and
    their sum tau is exact in any order.  Each low part x - high is exact, with
    |low| <= u*sigma, so the float sum of the lows errs by at most
    gamma_{n-1} * n * u * sigma (Higham, Accuracy and Stability, 2nd ed.,
    ch. 4); `bound` doubles that, which covers 1/(1 - (n-1)u) and its own
    rounding.  A TwoSum splits tau + lows into r + t, so the exact sum lies
    within |t| + bound of r.  r is the correctly rounded sum, as fsum's is,
    when that is strictly less than half the spacing from |r| towards zero,
    the smaller of its two spacings.  Every other row goes through math.fsum:
    ties, zero sums, inf and NaN (which make t NaN), rows below 2**-900 (the
    lemma assumes no underflow) and rows whose sigma reaches DBL_MAX/8, whose
    sums may overflow.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < FSUM_ROWS_MIN_ROWS and m * n < FSUM_ROWS_MIN_ENTRIES:
        return np.array([math.fsum(row) for row in x.tolist()], dtype=float)
    with np.errstate(all="ignore"):
        low = np.array(x.T, order="C")  # a copy, so that each step spans all rows
        scale = np.maximum(low.max(axis=0), -low.min(axis=0))
        sigma = np.ldexp(1.0, np.frexp(scale)[1] + (n + 1).bit_length())
        high = low + sigma
        high -= sigma
        low -= high
        tau, lows = high.sum(axis=0), low.sum(axis=0)
        r = tau + lows
        v = r - tau
        t = (tau - (r - v)) + (lows - v)
        bound = sigma * (2.0 * n * (n - 1) * 2.0**-106)
        magnitude = np.abs(r)
        gap = magnitude - np.nextafter(magnitude, 0.0)
        # written as "clears the bound" so that NaN rows are not certified
        certified = ((np.abs(t) + bound < 0.5 * gap)
                     & (scale >= _FSUM_ROWS_MIN_SCALE) & (sigma < _FSUM_ROWS_MAX_SIGMA))
    for i in np.flatnonzero(~certified):
        r[i] = math.fsum(memoryview(x[i]))
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
