"""Equipartite piecewise-linear interpolants and their exact energy identities.

L_X is the 2*pi-periodic function, linear on each interval
[2*pi*(j-1)/n, 2*pi*j/n], with L_X(2*pi*j/n) = x_j and L_X(0) = x_n.
Its squared L2 norm and the squared L2 norm of its derivative have exact
closed forms in the knot values:

    integral of L_X^2   = (2*pi/3n) * sum_j (2 x_j^2 + x_j x_{j-1})
    integral of L_X'^2  = (n/pi)    * sum_j (x_j^2 - x_j x_{j-1})
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, _require_rotation_block, _require_size, as_samples, fdot
from .errors import DimensionMismatch

# Evaluation points a few ulps (in knot-index units) from a knot are snapped
# onto it, so querying a knot abscissa returns the stored value exactly.  The
# window must stay tiny: a wide one puts a visible step at its edge, which
# stalls bisection-based quadrature of the interpolant.
KNOT_SNAP_ULPS = 32.0 * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Periodic piecewise-linear interpolant through (2*pi*j/n, x_j).

    Equality is identity, so instances are hashable.
    """

    knots: np.ndarray
    _grid: np.ndarray = field(init=False, repr=False)
    _slope: np.ndarray = field(init=False, repr=False)
    _wide: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        k = as_samples(self.knots)
        _require_size(k.size)
        object.__setattr__(self, "knots", k)
        # grid[m] holds the value at t = 2*pi*m/n: grid[0] = grid[n] = x_n, grid[n + 1] = x_1
        grid = np.concatenate((k[-1:], k, k[:1]))
        object.__setattr__(self, "_grid", grid)
        with np.errstate(over="ignore"):
            slope = grid[1:] - grid[:-1]
        # Segments whose difference overflows (knots near +-DBL_MAX) are taken as
        # (1 - frac)*lo + frac*hi, finite and exact at the knots; None if there are none
        wide = np.isinf(slope)
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_wide", wide if wide.any() else None)

    @property
    def n(self) -> int:
        return self.knots.size

    def __call__(self, t):
        """Evaluate at t (scalar or array); t is reduced modulo 2*pi.

        A scalar t gives a Python float.  A non-finite t gives NaN, without
        a warning.
        """
        with np.errstate(invalid="ignore"):
            tt = np.asarray(t, dtype=float)
            u = (tt % TWO_PI) * (self.n / TWO_PI)
            nearest = np.rint(u)
            below = np.floor(u)
            snapped = np.abs(u - nearest) <= KNOT_SNAP_ULPS * np.maximum(1.0, u)
            left = np.where(snapped, nearest, below).astype(int)
            frac = np.where(snapped, 0.0, u - below)
            # u is in [0, n] unless t is not finite; then frac is NaN, whatever knot is clipped to
            lo = self._grid.take(left, mode="clip")
            out = lo + frac * self._slope.take(left, mode="clip")
            if self._wide is not None:
                hi = self._grid.take(left + 1, mode="clip")
                blend = (1.0 - frac) * lo + frac * hi
                out = np.where(self._wide.take(left, mode="clip"), blend, out)
        return float(out) if out.ndim == 0 else out


def energy_l2(x) -> float:
    """Integral of L_X^2 over one period, via the exact knot formula."""
    v = as_samples(x)
    _require_size(v.size)
    return (TWO_PI / (3.0 * v.size)) * (2.0 * fdot(v, v) + fdot(v, np.roll(v, 1)))


def energy_h1(x) -> float:
    """Integral of L_X'^2 over one period (the derivative is piecewise constant).

    Summed as (n/2pi) * |X - shift(X)|^2, which equals the module formula
    without subtracting two nearly equal sums.
    """
    v = as_samples(x)
    _require_size(v.size)
    d = v - np.roll(v, 1)
    return (v.size / TWO_PI) * fdot(d, d)


def inner_product(x, y) -> float:
    """L2 inner product of two interpolants on the same grid.

    Polarization of the energy identity:
    <L_X, L_Y> = (4*pi/3n) <X,Y> + (pi/3n) <shift(X), Y> + (pi/3n) <X, shift(Y)>.
    """
    vx = as_samples(x)
    vy = as_samples(y)
    if vx.size != vy.size:
        raise DimensionMismatch(f"lengths differ: {vx.size} vs {vy.size}")
    _require_size(vx.size)
    n = vx.size
    cross = fdot(np.roll(vx, 1), vy) + fdot(vx, np.roll(vy, 1))
    return (4.0 * math.pi / (3.0 * n)) * fdot(vx, vy) + (math.pi / (3.0 * n)) * cross


def basis_norm(n: int, k: int) -> float:
    """Squared interpolant norm (4*pi/3n)(1 + cos(2*pi*k/n)/2) of the block-k
    cosine and sine basis vectors; both share it."""
    _require_rotation_block(n, k)
    return (4.0 * math.pi / (3.0 * n)) * (1.0 + 0.5 * math.cos(TWO_PI * k / n))
