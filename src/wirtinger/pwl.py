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

from .core import TWO_PI, _require_size, as_samples, fdot
from .errors import BlockOutOfRange, DimensionMismatch

# Evaluation points a few ulps (in knot-index units) from a knot are snapped
# onto it, so querying a knot abscissa returns the stored value exactly.  The
# window must stay tiny: a wide one puts a visible step at its edge, which
# stalls bisection-based quadrature of the interpolant.
KNOT_SNAP_ULPS = 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PiecewiseLinear:
    """Periodic piecewise-linear interpolant through (2*pi*j/n, x_j)."""

    knots: np.ndarray
    _grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = as_samples(self.knots)
        _require_size(k.size)
        object.__setattr__(self, "knots", k)
        # grid[m] holds the value at t = 2*pi*m/n, so grid[0] = x_n
        object.__setattr__(self, "_grid", np.roll(k, 1))

    @property
    def n(self) -> int:
        return self.knots.size

    def __call__(self, t):
        """Evaluate at t (scalar or array); t is reduced modulo 2*pi."""
        tt = np.asarray(t, dtype=float)
        u = (tt % TWO_PI) * (self.n / TWO_PI)
        nearest = np.round(u)
        snapped = np.abs(u - nearest) <= KNOT_SNAP_ULPS * np.maximum(1.0, u)
        left = np.where(snapped, nearest, np.floor(u)).astype(int) % self.n
        frac = np.where(snapped, 0.0, u - np.floor(u))
        lo = self._grid[left]
        hi = self._grid[(left + 1) % self.n]
        out = lo + frac * (hi - lo)
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
    _require_size(n)
    if not 1 <= k <= (n - 1) // 2:
        raise BlockOutOfRange(f"need 1 <= k <= {(n - 1) // 2} for n={n}, got {k}")
    return (4.0 * math.pi / (3.0 * n)) * (1.0 + 0.5 * math.cos(TWO_PI * k / n))
