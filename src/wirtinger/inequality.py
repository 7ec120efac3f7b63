"""The sharp discrete Wirtinger bound and its verification oracles.

For a mean-zero unit vector (x_1, ..., x_n), n >= 4, the cyclic correlation
sum x_j * x_{j-1} is at most cos(2*pi/n), attained exactly on the sampled
first-harmonic family a*cos(2*pi*i/n) + b*sin(2*pi*i/n) with a^2+b^2 = 2/n.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import as_samples, cyclic_correlation, fdot, fsum, shift_matrix
from .errors import ConstraintViolation, ConvergenceFailure, InvalidSize

# Input gate on |mean| and |norm^2 - 1|: separates user error from roundoff.
CONSTRAINT_TOL = 1e-10
# Slack below this magnitude counts as equality.
SLACK_TOL = 1e-12
# Largest n the dense eigensolver oracle accepts.
ORACLE_MAX_N = 512
EPS = sys.float_info.epsilon


def _require_size(n: int, minimum: int = 4) -> None:
    if n < minimum:
        raise InvalidSize(f"need n >= {minimum}, got {n}")


def discrete_bound(n: int) -> float:
    """Sharp upper bound cos(2*pi/n) for the cyclic correlation."""
    _require_size(n)
    return math.cos(2.0 * math.pi / n)


def piecewise_bound(n: int) -> float:
    """Upper bound (3n^2 - 4*pi^2)/(3n^2 + 2*pi^2) from the interpolant energies.

    Strictly larger than cos(2*pi/n), never attained; tends to 1 from below.
    """
    _require_size(n)
    pi_sq = math.pi * math.pi
    return (3.0 * n * n - 4.0 * pi_sq) / (3.0 * n * n + 2.0 * pi_sq)


def extremal_vector(n: int, a: float, b: float) -> np.ndarray:
    """Sampled harmonic x_i = a*cos(2*pi*i/n) + b*sin(2*pi*i/n), i = 1..n.

    Requires a^2 + b^2 = 2/n (within 1e-12), which makes the result mean-zero
    and unit-norm; its cyclic correlation attains the sharp bound.
    """
    _require_size(n)
    if abs(a * a + b * b - 2.0 / n) > 1e-12:
        raise ConstraintViolation(
            f"a^2+b^2 must equal 2/n = {2.0 / n:.6g}, got {a * a + b * b:.17g}"
        )
    i = np.arange(1, n + 1)
    angles = (2.0 * math.pi / n) * (i % n)
    return a * np.cos(angles) + b * np.sin(angles)


@dataclass(frozen=True)
class InequalityReport:
    n: int
    correlation: float
    bound: float
    slack: float
    satisfied: bool


def check_inequality(x) -> InequalityReport:
    """Evaluate the discrete inequality for a mean-zero unit vector.

    The input must already satisfy the constraints to within 1e-10
    (run center_normalize first otherwise).
    """
    v = as_samples(x)
    _require_size(v.size)
    mean = fsum(v) / v.size
    norm_sq = fdot(v, v)
    if abs(mean) > CONSTRAINT_TOL or abs(norm_sq - 1.0) > CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"constraints not met: mean={mean:.3e}, norm^2-1={norm_sq - 1.0:.3e}"
        )
    corr = cyclic_correlation(v)
    bound = discrete_bound(v.size)
    slack = bound - corr
    return InequalityReport(
        n=v.size, correlation=corr, bound=bound, slack=slack, satisfied=slack >= -SLACK_TOL
    )


class OracleResult(NamedTuple):
    value: float
    argmax: np.ndarray


def oracle_max(n: int) -> OracleResult:
    """Maximum of the correlation form on the mean-zero unit sphere, by eigensolver.

    Builds the symmetrized shift matrix S = (A + A^T)/2, deflates the
    all-ones direction by projection plus a spectral shift, and returns the
    top eigenpair of the deflated matrix.  Entirely independent of the
    closed-form basis, so agreement with discrete_bound is a genuine
    cross-check.  The top eigenspace is a two-dimensional plane; the
    returned vector is one unit vector in it.
    """
    _require_size(n)
    if n > ORACLE_MAX_N:
        raise InvalidSize(f"dense oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    a = shift_matrix(n)
    s = 0.5 * (a + a.T)
    p = np.eye(n) - np.full((n, n), 1.0 / n)
    # push the constant direction to eigenvalue -2, below the spectrum of S
    deflated = p @ s @ p - 2.0 * np.full((n, n), 1.0 / n)
    values, vectors = np.linalg.eigh(deflated)
    value, vec = float(values[-1]), vectors[:, -1]
    residual = float(np.linalg.norm(deflated @ vec - value * vec))
    if residual > 1e-12:
        raise ConvergenceFailure(f"eigensolver residual {residual:.3e} exceeds 1e-12")
    return OracleResult(value=value, argmax=vec)


def extremal_span_residual(x) -> float:
    """Distance from a unit vector to the span of the sampled first harmonics."""
    v = as_samples(x)
    n = v.size
    i = np.arange(1, n + 1)
    angles = (2.0 * math.pi / n) * (i % n)
    scale = math.sqrt(2.0 / n)
    u_cos = scale * np.cos(angles)
    u_sin = scale * np.sin(angles)
    rest = v - fdot(v, u_cos) * u_cos - fdot(v, u_sin) * u_sin
    return float(np.linalg.norm(rest))


class BoundComparison(NamedTuple):
    lhs: float  # cos(2*pi/n)
    rhs: float  # piecewise bound
    margin: float  # rhs - lhs, without cancellation


def _sin_minus_identity(h: float) -> float:
    """sin(h) - h = sum over k >= 1 of (-1)^k h^(2k+1)/(2k+1)!, for 0 < h <= pi/4.

    Successive terms shrink by h^2/((2k+2)(2k+3)) <= pi^2/320, so the sum
    stops once a term falls below eps times the first.
    """
    terms = [-h * h * h / 6.0]
    k = 1
    while abs(terms[-1]) > EPS * abs(terms[0]):
        terms.append(-terms[-1] * h * h / ((2 * k + 2) * (2 * k + 3)))
        k += 1
    return math.fsum(terms)


def bound_comparison(n: int) -> BoundComparison:
    """Strict gap between the sharp bound and the piecewise bound.

    The margin is evaluated through the rearrangement

        margin = [12 (sin(h) - h)(sin(h) + h) + 2 a^2 sin^2(h)] / (6 + a^2),

    with a = 2*pi/n and h = a/2, which avoids the catastrophic cancellation
    of the naive difference for large n (the margin decays like a^4/24).
    sin(h) - h comes from its Taylor series, since the difference of the
    two loses digits like n^2.
    """
    _require_size(n)
    a = 2.0 * math.pi / n
    h = 0.5 * a
    s = math.sin(h)
    margin = (12.0 * _sin_minus_identity(h) * (s + h) + 2.0 * a * a * s * s) / (6.0 + a * a)
    return BoundComparison(lhs=discrete_bound(n), rhs=piecewise_bound(n), margin=margin)


def random_unit_zero_mean(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-direction random vector on the mean-zero unit sphere."""
    while True:
        v = rng.standard_normal(n)
        v -= fsum(v) / n
        norm = math.sqrt(fdot(v, v))
        if norm > 1e-8:
            return v / norm
