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

from .core import (
    TWO_PI,
    _require_size,
    as_samples,
    constraint_status,
    cyclic_correlation,
    fdot,
    fsum_rows,
    shift_matrix,
)
from .errors import ConstraintViolation, ConvergenceFailure, InvalidSize
from .spectral import aligned_harmonics

# Input gate on |mean| and |norm^2 - 1|: separates user error from roundoff.
CONSTRAINT_TOL = 1e-10
# Slack below this magnitude counts as equality.
SLACK_TOL = 1e-12
# Largest n the dense eigensolver oracle accepts.
ORACLE_MAX_N = 512
EPS = sys.float_info.epsilon


def discrete_bound(n: int) -> float:
    """Sharp upper bound cos(2*pi/n) for the cyclic correlation."""
    _require_size(n)
    return math.cos(TWO_PI / n)


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
    c, s = aligned_harmonics(n, 1)
    return a * c + b * s


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
    status = constraint_status(v)
    if abs(status.mean) > CONSTRAINT_TOL or abs(status.norm_sq - 1.0) > CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"constraints not met: mean={status.mean:.3e}, norm^2-1={status.norm_sq - 1.0:.3e}"
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
    all-ones direction by a spectral shift, and returns the top eigenpair of
    the deflated matrix.  Entirely independent of the closed-form basis, so
    agreement with discrete_bound is a genuine cross-check.  The top
    eigenspace is a two-dimensional plane; the returned vector is one unit
    vector in it.
    """
    _require_size(n)
    if n > ORACLE_MAX_N:
        raise InvalidSize(f"dense oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    a = shift_matrix(n)
    # S fixes the all-ones vector, so subtracting 3/n from every entry moves
    # that direction from eigenvalue 1 to -2, below the rest of the spectrum
    deflated = 0.5 * (a + a.T) - 3.0 / n
    values, vectors = np.linalg.eigh(deflated)
    value, vec = float(values[-1]), vectors[:, -1]
    residual = float(np.linalg.norm(deflated @ vec - value * vec))
    if residual > 1e-12:
        raise ConvergenceFailure(f"eigensolver residual {residual:.3e} exceeds 1e-12")
    return OracleResult(value=value, argmax=vec)


def extremal_span_residual(x) -> float:
    """Distance from a unit vector to the span of the sampled first harmonics."""
    v = as_samples(x)
    c, s = aligned_harmonics(v.size, 1)
    scale = math.sqrt(2.0 / v.size)
    u_cos = scale * c
    u_sin = scale * s
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
    a = TWO_PI / n
    h = 0.5 * a
    s = math.sin(h)
    margin = (12.0 * _sin_minus_identity(h) * (s + h) + 2.0 * a * a * s * s) / (6.0 + a * a)
    return BoundComparison(lhs=discrete_bound(n), rhs=piecewise_bound(n), margin=margin)


def random_unit_zero_mean_rows(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform-direction random vectors on the mean-zero unit sphere, as an (m, n) array.

    One standard_normal((m, n)) draw gives the same numbers as m draws of
    length n, and each row is centered and scaled by its own compensated sums.
    A row whose centered norm is <= 1e-8 is dropped and the shortfall drawn
    again, which consumes the stream as a per-vector retry would.
    """
    xs = rng.standard_normal((m, n))
    xs -= fsum_rows(xs)[:, None] / n
    norms = np.sqrt(fsum_rows(np.square(xs)))
    keep = norms > 1e-8
    if keep.all():
        xs /= norms[:, None]
        return xs
    kept = xs[keep] / norms[keep, None]
    return np.concatenate([kept, random_unit_zero_mean_rows(n, m - len(kept), rng)])


def random_unit_zero_mean(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-direction random vector on the mean-zero unit sphere."""
    return random_unit_zero_mean_rows(n, 1, rng)[0]


def max_violation(xs) -> float:
    """max(0, -slack) over the rows of an (m, n) array, each checked as by check_inequality.

    A numpy sum of n products errs by at most gamma_n * sum|terms| (Higham, ch. 3),
    and a unit row has sum|x_j x_{j-1}| <= |x|^2 and sum|x_j| <= sqrt(n)|x|.  Rows whose
    margins clear 2*n*eps (>= 4 gamma_n, room for the roundings of the margins themselves)
    times those bounds are decided; check_inequality redoes the rest.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.size == 0:
        raise ValueError("need a non-empty (m, n) array of sample vectors")
    n = xs.shape[1]
    _require_size(n)
    gamma = 2 * n * EPS
    norm_sq = np.einsum("ij,ij->i", xs, xs)
    slack = discrete_bound(n) - np.einsum("ij,ij->i", xs, np.roll(xs, 1, axis=1))
    # written as "margin clears the bound" so that NaN and inf rows are undecided
    decided = (
        (np.abs(norm_sq - 1.0) + gamma * norm_sq <= CONSTRAINT_TOL)
        & (np.abs(xs.sum(axis=1)) + gamma * np.sqrt(n * norm_sq) <= n * CONSTRAINT_TOL)
        & (slack > gamma * norm_sq)
    )
    worst = 0.0
    for i in np.flatnonzero(~decided):
        worst = max(worst, -check_inequality(xs[i]).slack)
    return worst
