"""Cyclic sample vectors and the shift operator.

A sample vector holds real values x_1..x_n with the cyclic convention
x_0 = x_n.  Stored 0-based: entry j-1 of the array is x_j, the value at
t_j = 2*pi*j/n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector, InvalidSize, NonFinite

TWO_PI = 2.0 * math.pi

# Centered vectors below this Euclidean norm are treated as zero.
DEGENERATE_NORM = 1e-300


def _require_size(n: int) -> None:
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")


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


def shift(x) -> np.ndarray:
    """Cyclic shift (x_1, x_2, ..., x_n) -> (x_n, x_1, ..., x_{n-1}).

    An isometry of R^n; norms are preserved exactly.
    """
    return np.roll(as_samples(x), 1)


def shift_matrix(n: int) -> np.ndarray:
    """Dense n x n matrix of the cyclic shift (row j has a 1 in column j-1)."""
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(-1, n - 1)] = 1.0
    return a


def cyclic_correlation(x) -> float:
    """Sum of x_j * x_{j-1} around the cycle, i.e. <X, shift(X)>."""
    v = as_samples(x)
    return fdot(v, np.roll(v, 1))


@dataclass(frozen=True)
class ConstraintStatus:
    """Mean and squared norm of a sample vector."""

    mean: float
    norm_sq: float


def constraint_status(x) -> ConstraintStatus:
    v = as_samples(x)
    return ConstraintStatus(mean=fsum(v) / v.size, norm_sq=fdot(v, v))


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
