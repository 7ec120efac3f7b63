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
    cyclic_correlation,
    cyclic_correlation_rows,
    fdot,
    fsum,
    fsum_rows,
)
from .errors import ConstraintViolation, ConvergenceFailure, InvalidSize
from .spectral import aligned_harmonics

# Input gate on |mean| and |norm^2 - 1|: separates user error from roundoff.
CONSTRAINT_TOL = 1e-10
# Slack below this magnitude counts as equality.
SLACK_TOL = 1e-12
# Largest n the eigensolver oracle accepts.
ORACLE_MAX_N = 512
EPS = sys.float_info.epsilon
# LAPACK's pivot guard (dstebz's PIVMIN for off-diagonal squares below 1): the
# smallest normal double
PIVMIN = sys.float_info.min
# oracle_max's Newton iteration takes at most 8 steps for n <= 512, the last of
# which only confirms convergence
NEWTON_MAX_STEPS = 16


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
    mean, norm_sq = fsum(v) / v.size, fdot(v, v)
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


def _require_constraints(xs) -> np.ndarray:
    """xs as an (m, n) float array if check_inequality accepts every row, else what
    it raises on the first row it rejects.

    A numpy sum of n products errs by at most gamma_n * sum|terms| (Higham, ch. 3),
    and a row with |x|^2 <= c = 1 + CONSTRAINT_TOL has sum|x_j| <= sqrt(n c).  A row
    whose float |x|^2 - 1 and sum clear their tolerances by 2*n*eps*c (about 4 gamma_n)
    times 1 and sqrt(n) passes; check_inequality redoes the others, in order.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.size == 0:
        raise ValueError("need a non-empty (m, n) array of sample vectors")
    n = xs.shape[1]
    if n < 4:
        check_inequality(xs[0])  # raises InvalidSize, or NonFinite before it
    gamma = 2 * n * EPS * (1.0 + CONSTRAINT_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        # written as "within the margin" so that NaN and inf rows fail
        passed = ((np.abs(np.einsum("ij,ij->i", xs, xs) - 1.0) <= CONSTRAINT_TOL - gamma)
                  & (np.abs(xs.sum(axis=1)) <= n * CONSTRAINT_TOL - gamma * math.sqrt(n)))
    for x in xs[~passed]:
        check_inequality(x)  # raises on the first row it rejects
    return xs


def check_inequality_rows(xs) -> np.ndarray:
    """check_inequality's slack for every row of an (m, n) array, with its bits.

    Raises what check_inequality raises on the first row on which it raises.
    """
    xs = _require_constraints(xs)
    return discrete_bound(xs.shape[1]) - cyclic_correlation_rows(xs)


class OracleResult(NamedTuple):
    value: float
    argmax: np.ndarray


def _sturm_ratios(diag, lam: float) -> tuple[list, float]:
    """The Sturm ratios q_k = p_k/p_{k-1} of p_k(lam) = det(T_k - lam I), and p'/p at
    k = m, for the m x m tridiagonal T with diagonal `diag` and 1/2 off it (T_k is its
    leading k x k block, p_0 = 1).  With r = 1/(4 q_{k-1}), q_k = d_k - lam - r, and
    p_k'/p_k is the sum of g_j = q_j'/q_j up to k, where g_k = (r g_{k-1} - 1)/q_k.
    A ratio of magnitude below PIVMIN becomes -PIVMIN, LAPACK's tiny-pivot guard."""
    ratios = []
    q, g, log_derivative = math.inf, 0.0, 0.0
    for d in diag:
        r = 0.25 / q
        q = d - lam - r
        if -PIVMIN < q < PIVMIN:
            q = -PIVMIN
        g = (r * g - 1.0) / q
        log_derivative += g
        ratios.append(q)
    return ratios, log_derivative


def oracle_max(n: int) -> OracleResult:
    """Maximum of the correlation form <x, Sx> on the mean-zero unit sphere, by eigensolver.

    S = (A + A^T)/2 for the cyclic shift A.  The reflection R: x[j] -> x[-j mod n] has
    RSR = S, and S commutes with A and A^T, so the top eigenspace E of S on mean-zero
    vectors is invariant under A, A^T and R.  For an even x in E, (A - A^T)x is odd and
    lies in E; it is zero only when A^2 x = x, which on mean-zero vectors leaves only
    the alternating vector, of eigenvalue -1.  The mean-zero spectrum has trace -1, so
    its top is at least -1/(n-1) > -1.  So E holds an odd vector, and the maximum is the
    top eigenvalue of S on the odd vectors (e_j - e_{-j})/sqrt2, j = 1..m = (n-1)//2.
    There S is the m x m tridiagonal T with zero diagonal and 1/2 off it, plus
    T[m-1, m-1] = -1/2 for odd n, where e_m and e_{-m} are neighbours.  No cosine is
    used, so agreement with discrete_bound is a genuine cross-check.

    The eigensolver is Newton's method on p(lam) = det(T - lam I) in O(m) pure Python,
    with no m x m array and no LAPACK call: p'/p is the sum of dq_k/q_k over the Sturm
    ratios.  T is irreducible, so its eigenvalues are real and simple, and every row has
    |diagonal| + off-diagonal sum <= 1, so by Gershgorin lam = 1 lies above them all.
    From there the iterates fall monotonically onto the largest; they stop when a step
    no longer lowers lam or is no larger than the pivot guard (lam is then a root to
    working precision), after at most 8 steps for n <= 512.  T's top eigenvector w comes
    from one inverse-iteration solve (T - lam I)w = q_{m-1} 1 by the Thomas algorithm,
    whose pivots are the Sturm ratios; the right-hand side is scaled by the last
    pivot, which is near 0, so that w stays of order m.  The gate |Tw - lam w| <= 1e-12
    is computed from the three diagonals.  w is positive (T + I is a nonnegative
    irreducible matrix, so its Perron vector is T's top eigenvector), and gives the
    argmax x[j] = w[j-1]/sqrt2 = -x[n-j], j = 1..m, 0 elsewhere.
    """
    _require_size(n)
    if n > ORACLE_MAX_N:
        raise InvalidSize(f"eigensolver oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    m = (n - 1) // 2
    diag = [0.0] * (m - 1) + [-0.5 if n % 2 else 0.0]
    lam = 1.0
    for _ in range(NEWTON_MAX_STEPS):
        pivots, log_derivative = _sturm_ratios(diag, lam)
        step = 1.0 / log_derivative
        if not (step > PIVMIN and lam - step < lam):
            break
        lam -= step
    else:
        raise ConvergenceFailure(f"eigensolver: no convergence in {NEWTON_MAX_STEPS} Newton steps")
    # Thomas algorithm on the pivots at lam: forward elimination, then back substitution
    scale = pivots[-1]
    y = [scale]
    for u in pivots[:-1]:
        y.append(scale - 0.5 * y[-1] / u)
    w = [y[-1] / scale]
    for yk, u in zip(y[-2::-1], pivots[-2::-1]):
        w.append((yk - 0.5 * w[-1]) / u)
    w.reverse()
    norm = math.copysign(math.hypot(*w), w[0])
    w = [v / norm for v in w]
    padded = [0.0, *w, 0.0]
    residual = math.hypot(*(0.5 * (left + right) + (d - lam) * v
                            for left, v, right, d in zip(padded, w, padded[2:], diag)))
    if not residual <= 1e-12:  # written so that NaN fails
        raise ConvergenceFailure(f"eigensolver residual {residual:.3e} exceeds 1e-12")
    w = np.array(w)
    argmax = np.concatenate(([0.0], w, [0.0] * (1 - n % 2), -w[::-1])) / math.sqrt(2.0)
    return OracleResult(value=lam, argmax=argmax)


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


# rng's annotation is a string: evaluated at import, it would load numpy.random
# (about 10 ms) for every command, including those that never draw
def random_unit_zero_mean_rows(n: int, m: int, rng: "np.random.Generator") -> np.ndarray:
    """m uniform-direction random vectors on the mean-zero unit sphere, as an (m, n) array.

    One standard_normal((m, n)) draw gives the same numbers as m draws of
    length n, and each row is centered and scaled by its own compensated sums.
    One (2, m, n) block is both fsum_rows calls' scratch and holds the squares.
    A row whose centered norm is <= 1e-8 is dropped and the shortfall drawn
    again, which consumes the stream as a per-vector retry would.
    """
    work = np.empty((2, m, n))
    xs = rng.standard_normal((m, n))
    xs -= fsum_rows(xs, work[0])[:, None] / n
    norms = np.sqrt(fsum_rows(np.square(xs, out=work[1]), work[0]))
    keep = norms > 1e-8
    if keep.all():
        xs /= norms[:, None]
        return xs
    kept = xs[keep] / norms[keep, None]
    return np.concatenate([kept, random_unit_zero_mean_rows(n, m - len(kept), rng)])


def max_violation(xs) -> float:
    """max(0, -slack) over the rows of an (m, n) array, each checked as by check_inequality;
    a NaN among the exact slacks is returned, where max(0.0, nan) would drop it.

    A row that _require_constraints passes has |x|^2 <= 1 + 2e-10, so its numpy correlation
    errs by <= gamma_n |x|^2: a float slack above 2*n*eps decides it, else check_inequality_rows.
    """
    xs = _require_constraints(xs)
    n = xs.shape[1]
    correlations = np.einsum("ij,ij->i", xs[:, 1:], xs[:, :-1]) + xs[:, 0] * xs[:, -1]
    slack = discrete_bound(n) - correlations
    if slack.min() > 2 * n * EPS:
        return 0.0
    worst = -float(check_inequality_rows(xs[slack <= 2 * n * EPS]).min())
    return worst if not worst <= 0.0 else 0.0  # +0.0 for -0.0, as max(0.0, x) gives
