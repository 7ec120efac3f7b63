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

# fsum_rows takes the whole-array route from this many entries (m*n) on, and calls
# math.fsum row by row below it.  tests/fsum_crossover.py times both routes.  Whole-array
# time over row-by-row time, two runs (numpy 2.4, one Xeon core), on squared Gaussian
# rows, whose sums the route certifies: m=1: 0.51-0.55 at n=1024, 0.27-0.29 at 2048,
# 0.11-0.15 at 4096, 0.05 at 16384; m=2, n=1024: 0.27-0.29; m=5: 0.72-0.74 at n=160,
# 0.44-0.48 at 256, 0.30-0.33 at 410, 0.22-0.24 at 512; m=10, n=160: 0.31-0.39; m=20:
# 0.75-0.83 at n=32, 0.20-0.27 at 160; m=205: 0.49-0.53 at n=4, 0.26-0.30 at 9,
# 0.27-0.28 at 10, 0.13-0.14 at 20, 0.05-0.06 at 80 and 160.  On centered rows, whose
# sums cancel and go on to math.fsum, the ratio is 0.8-1.5 from 2048 entries on and
# 1.3-2.0 below.  The whole-array route costs 16-30 us on arrays of up to 2048 entries;
# a row of math.fsum about 0.25 us plus 0.04 us an entry.  Below 2048 entries the time
# that certified rows save is about what cancelling rows lose, and fdot's and fsum's
# one-row sums are often of the cancelling kind.
FSUM_ROWS_MIN_ENTRIES = 2048
# The whole-array route leaves to math.fsum the arrays whose largest |entry| is
# below _MIN_SCALE, and those whose sigma reaches _MAX_SIGMA, which may overflow
# inside math.fsum (it then raises).
_FSUM_ROWS_MIN_SCALE = 2.0**-900
_FSUM_ROWS_MAX_SIGMA = sys.float_info.max / 8
# sigma = 2**exponent is below _MAX_SIGMA exactly when exponent is below this
_FSUM_ROWS_MAX_EXPONENT = math.frexp(_FSUM_ROWS_MAX_SIGMA)[1]
# math.fsum reads a row shorter than this from one .tolist() of the rows, which
# makes every float first (about 0.45 us a row of 5 entries, against 1.1 us through
# a memoryview), and a longer row through a memoryview, which makes them one at a
# time: from about 128 entries on that is faster, and twice as fast on a 2^20 row.
_FSUM_LIST_MAX_N = 128


def _require_size(n: int) -> None:
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")


def _require_rotation_block(n: int, k: int) -> None:
    _require_size(n)
    if not 1 <= k <= (n - 1) // 2:
        raise BlockOutOfRange(f"need 1 <= k <= {(n - 1) // 2} for n={n}, got {k}")


def as_samples(x, ndim: int = 1) -> np.ndarray:
    """Coerce to a finite float array: a non-empty 1-D sample vector, or with
    ndim=2 an (m, n) array of them as rows, n >= 1 and m >= 0."""
    v = np.asarray(x, dtype=float)
    if v.ndim != ndim or v.shape[-1] == 0:
        raise ValueError(f"sample vector must be a non-empty {ndim}-D array")
    if not np.all(np.isfinite(v)):
        raise NonFinite("sample vector entries must be finite")
    return v


def fdot(x, y) -> float:
    """Dot product with compensated (error-free) summation of the products."""
    return fsum(np.asarray(x, dtype=float) * np.asarray(y, dtype=float))


def fsum(x) -> float:
    """Compensated sum of the entries: math.fsum's bits, as one row of fsum_rows."""
    return float(fsum_rows(np.asarray(x, dtype=float).reshape(1, -1))[0])


def fsum_rows(x, scratch=None) -> np.ndarray:
    """math.fsum of every row of a 2-D array, with its bits and its exceptions.

    Large arrays take all rows at once, by one round of error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3) on the
    array as given, row-major, with one sigma for the whole call.  With every
    |x| < 2**e, sigma = 2**(e + M), M = (n+1).bit_length() = ceil(log2(n+2)), so
    sigma >= 2**M * max|row| for every row.  Each high part (sigma + x) - sigma
    is then a multiple of u*sigma (u = 2**-53) of size at most sigma/2**M, so
    every partial sum of a row's highs is a multiple of u*sigma below sigma,
    and their sum tau is exact in any order.  Each low part x - high is exact,
    with |low| <= u*sigma, so the float sum of a row's lows errs by at most
    gamma_{n-1} * n * u * sigma (Higham, Accuracy and Stability, 2nd ed.,
    ch. 4), a bound that holds for every order of summation; `bound` doubles
    that, which covers 1/(1 - (n-1)u) and its own rounding.  So both row sums
    are taken by np.einsum, in whatever order it adds: on short rows it takes
    about half the time of sum(axis=1).  A TwoSum splits tau + lows into r + t,
    so the exact sum lies within |t| + bound of r.  r is the correctly rounded
    sum, as fsum's is, when that is strictly less than half the spacing from
    |r| towards zero, the smaller of its two spacings.  Every other row goes
    through math.fsum: ties, zero sums, and rows far below the array's scale,
    whose bound is loose against their sums.  The whole array goes through
    math.fsum when an entry is inf or NaN, when every entry is below 2**-900
    (the lemma assumes no underflow), or when sigma would reach DBL_MAX/8,
    where sums may overflow; its exponent is tested before sigma is made.
    `scratch`, float64 of x's shape and not overlapping x, may be the route's one temporary.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if scratch is not None and (scratch.shape != x.shape or scratch.dtype != np.float64
                                or np.may_share_memory(x, scratch)):
        raise ValueError("scratch must be a float64 array of x's shape that does not overlap x")
    if m * n >= FSUM_ROWS_MIN_ENTRIES:
        scale = max(float(x.max()), -float(x.min()))  # NaN if an entry is
        exponent = math.frexp(scale)[1] + (n + 1).bit_length()
        if _FSUM_ROWS_MIN_SCALE <= scale < math.inf and exponent < _FSUM_ROWS_MAX_EXPONENT:
            sigma = math.ldexp(1.0, exponent)
            high = np.add(x, sigma, out=scratch)  # the highs, then the lows
            high -= sigma
            tau = np.einsum("ij->i", high)
            lows = np.einsum("ij->i", np.subtract(x, high, out=high))
            r = tau + lows
            v = r - tau
            t = (tau - (r - v)) + (lows - v)
            bound = sigma * (2.0 * n * (n - 1) * 2.0**-106)
            magnitude = np.abs(r)
            gap = magnitude - np.nextafter(magnitude, 0.0)
            rows = (np.abs(t) + bound >= 0.5 * gap).nonzero()[0]
            if rows.size:
                r[rows] = _math_fsum_each(x, rows)
            return r
    return np.array(_math_fsum_each(x), dtype=float)


def _math_fsum_each(x: np.ndarray, rows=None) -> list:
    """math.fsum of each row of a 2-D array, or of the rows that the index
    array `rows` picks: rows shorter than _FSUM_LIST_MAX_N from one .tolist()
    of them, longer ones each through a memoryview of the row, with no copy."""
    if x.shape[1] < _FSUM_LIST_MAX_N:
        return [math.fsum(row) for row in (x if rows is None else x[rows]).tolist()]
    indices = range(len(x)) if rows is None else rows.tolist()
    return [math.fsum(memoryview(x[i])) for i in indices]


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
    """cyclic_correlation of every row of an (m, n) array, with its bits and its exceptions."""
    xs = as_samples(xs, ndim=2)
    products = np.empty_like(xs)
    np.multiply(xs[:, 1:], xs[:, :-1], out=products[:, 1:])
    np.multiply(xs[:, :1], xs[:, -1:], out=products[:, :1])
    return fsum_rows(products)


def center_normalize(x) -> np.ndarray:
    """Subtract the mean and scale to unit Euclidean norm.

    Raises DegenerateVector for (numerically) constant input.
    """
    v = as_samples(x)
    return _normalize_centered(v - fsum(v) / v.size)


def _normalize_centered(centered: np.ndarray) -> np.ndarray:
    """center_normalize of a sample vector from its first centering pass,
    the vector less fsum(vector) / n, which it overwrites and returns."""
    # rounding leaves the first pass a mean of order ulp(x); a second pass removes it
    centered -= fsum(centered) / centered.size
    norm = math.sqrt(fdot(centered, centered))
    if norm < DEGENERATE_NORM:
        raise DegenerateVector("constant vector has no centered direction")
    centered /= norm
    return centered
