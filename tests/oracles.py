"""Independent numerical oracles used by the tests.

Everything here is deliberately built from first principles (per-segment
geometry, least squares) rather than the library's closed forms, so
agreement is a genuine cross-check and not a tautology.  The exceptions are
the routes the library computed by before it took a faster one (interpolant
inner products for Fourier coefficients, numpy dot products for trig
polynomials): they are kept here as the reference the fast route must match.
"""

import math

import numpy as np

from wirtinger import aligned_harmonics, basis_norm, inner_product

TWO_PI = 2.0 * math.pi


def segment_simpson_product(x, y) -> float:
    """Exact integral of L_X * L_Y over [0, 2*pi].

    On each segment both interpolants are linear, so the product is a
    quadratic and one Simpson rule per segment integrates it exactly
    (up to roundoff).  Cyclic convention: segment j runs from x_{j-1}
    to x_j with x_0 = x_n.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    h = TWO_PI / n
    terms = []
    for j in range(n):
        ax, bx = x[j - 1], x[j]
        ay, by = y[j - 1], y[j]
        mid = (0.5 * (ax + bx)) * (0.5 * (ay + by))
        terms.append(h / 6.0 * (ax * ay + 4.0 * mid + bx * by))
    return math.fsum(terms)


def segment_l2(x) -> float:
    return segment_simpson_product(x, x)


def segment_h1(x) -> float:
    """Exact integral of L_X'^2: the derivative is constant on each segment."""
    x = np.asarray(x, dtype=float)
    h = TWO_PI / x.size
    return math.fsum((x[j] - x[j - 1]) ** 2 / h for j in range(x.size))


def lstsq_projection_sq(x, rows) -> float:
    """Squared norm of the orthogonal projection of x onto span(rows).

    Solved as a least-squares problem, independent of any orthonormality
    assumption about the spanning set.
    """
    a = np.asarray(rows, dtype=float).T
    coef, *_ = np.linalg.lstsq(a, np.asarray(x, dtype=float), rcond=None)
    p = a @ coef
    return float(p @ p)


def harmonic_span_residual(x) -> float:
    """Distance from x to span{cos(2*pi*i/n), sin(2*pi*i/n)}, i = 1..n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    i = np.arange(1, n + 1)
    a = np.stack([np.cos(TWO_PI * i / n), np.sin(TWO_PI * i / n)], axis=1)
    coef, *_ = np.linalg.lstsq(a, x, rcond=None)
    return float(np.linalg.norm(x - a @ coef))


def fourier_interpolant(x, jmax: int) -> list:
    """(j, a_j, b_j) for j = 1..jmax by the paper's route: the interpolant of
    the samples x_i = f(2*pi*i/n) projected onto the interpolants of the
    sampled cos(jt) and sin(jt), divided by their common squared norm."""
    x = np.asarray(x, dtype=float)
    n = x.size
    coeffs = []
    for j in range(1, jmax + 1):
        cos_ref, sin_ref = aligned_harmonics(n, j)
        scale = (2.0 / n) / basis_norm(n, j)
        coeffs.append((j, scale * inner_product(x, cos_ref), scale * inner_product(x, sin_ref)))
    return coeffs


def trig_polynomial_dot(terms):
    """Value and derivative of sum a*cos(j t) + b*sin(j t) over (j, a, b),
    each as two numpy dot products over the harmonics."""
    js = np.array([j for j, _, _ in terms], dtype=float)
    a = np.array([a for _, a, _ in terms], dtype=float)
    b = np.array([b for _, _, b in terms], dtype=float)

    def value(t: float) -> float:
        return float(np.dot(a, np.cos(js * t)) + np.dot(b, np.sin(js * t)))

    def derivative(t: float) -> float:
        return float(np.dot(js * b, np.cos(js * t)) - np.dot(js * a, np.sin(js * t)))

    return value, derivative
