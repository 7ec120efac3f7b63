"""Independent numerical oracles used by the tests.

Everything here is deliberately built from first principles (per-segment
geometry, least squares) rather than the library's closed forms, so
agreement is a genuine cross-check and not a tautology.  The exceptions are
the routes the library computed by before it took a faster one (interpolant
inner products for Fourier coefficients, numpy dot products for trig
polynomials, one vector at a time for `verify`, one basis vector and a
rebuilt block layout at a time for the spectral kernels, one block at a time
for the basis, one math.fsum per row for the random rows, the dense shift
matrix `shift_matrix` and the deflated n x n eigensolver `oracle_max_dense`
for the oracle, depth-first recursion with one integrand call per point for
adaptive Simpson, and a math.cos/math.sin loop per point for trigonometric
polynomials): they are kept here as the reference the fast route must
match.
"""

import math

import numpy as np

from wirtinger import (
    ConvergenceFailure,
    Fixed,
    OracleResult,
    QuadratureFailure,
    Rotation,
    aligned_harmonics,
    basis_norm,
    block_layout,
    build_basis,
    canonical_form,
    check_inequality,
    coordinates,
    cyclic_correlation,
    discrete_bound,
    inner_product,
    oracle_max,
    verify_action,
)
from wirtinger.core import fdot, fsum
from wirtinger.quadrature import MAX_DEPTH, MIN_DEPTH

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


def adaptive_simpson_recursive(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson by depth-first recursion, calling the scalar f once
    per point; the rule and the order of the sums are the library's."""
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson_recursive(f, b, a, tol)

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if depth >= MIN_DEPTH and abs(err) <= tol:
            return left + right + err
        if depth >= MAX_DEPTH:
            raise QuadratureFailure(
                f"tolerance {tol:.3e} unreachable on [{lo:.6g}, {hi:.6g}] at depth {depth}"
            )
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * tol, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * tol, depth + 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)


def trig_polynomial_loop(terms):
    """t -> sum a*cos(j t) + b*sin(j t) over (j, a, b), for a float t, with
    math.cos and math.sin, the terms added in order to a total from +0.0."""

    def value(t: float) -> float:
        total = 0.0
        for j, a, b in terms:
            total += a * math.cos(j * t) + b * math.sin(j * t)
        return total

    return value


def period_integral_per_point(g, tol: float, pieces: int) -> float:
    """Integral of the scalar g over [0, 2*pi] as `pieces` equal pieces,
    each by the recursion to tol/pieces, summed with math.fsum."""
    edges = [TWO_PI * i / pieces for i in range(pieces + 1)]
    return math.fsum(adaptive_simpson_recursive(g, lo, hi, tol / pieces)
                     for lo, hi in zip(edges, edges[1:]))


def trig_polynomial_dot(terms):
    """t -> sum a*cos(j t) + b*sin(j t) over (j, a, b), as two numpy dot
    products over the harmonics."""
    js = np.array([j for j, _, _ in terms], dtype=float)
    a = np.array([a for _, a, _ in terms], dtype=float)
    b = np.array([b for _, _, b in terms], dtype=float)

    def value(t: float) -> float:
        return float(np.dot(a, np.cos(js * t)) + np.dot(b, np.sin(js * t)))

    return value


def action_residuals_per_vector(basis) -> dict:
    """{k: residual} of the shift's block action, rolling each basis vector
    on its own: shift(e_cos) = cos*e_cos + sin*e_sin and
    shift(e_sin) = -sin*e_cos + cos*e_sin on a rotation block."""
    v = basis.vectors
    out = {}
    for b in basis.blocks:
        if isinstance(b, Fixed):
            e = v[b.index]
            r = np.linalg.norm(np.roll(e, 1) - b.eigenvalue * e)
        else:
            ec, es = v[b.indices[0]], v[b.indices[1]]
            c, s = math.cos(b.angle), math.sin(b.angle)
            tc, ts = np.roll(ec, 1), np.roll(es, 1)
            r = max(
                np.linalg.norm(tc - (c * ec + s * es)),
                np.linalg.norm(ts - (-s * ec + c * es)),
            )
        out[b.k] = float(r)
    return out


def basis_vectors_per_block(n: int) -> np.ndarray:
    """The shift-adapted basis as an n x n array, filled one rotation block
    at a time."""
    j = np.arange(n)
    vectors = np.empty((n, n))
    vectors[0] = 1.0 / math.sqrt(n)
    if n % 2 == 0:
        vectors[1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    amplitude = math.sqrt(2.0 / n)
    for b in block_layout(n):
        if isinstance(b, Rotation):
            angles = (TWO_PI / n) * ((j * b.k) % n)
            vectors[b.indices[0]] = amplitude * np.cos(angles)
            vectors[b.indices[1]] = amplitude * np.sin(angles)
    return vectors


def canonical_form_from_layout(y, n: int) -> float:
    """The diagonal correlation form of coordinates y, with the blocks
    rebuilt by block_layout(n) on every call."""
    y = np.asarray(y, dtype=float)
    terms = []
    for b in block_layout(n):
        if isinstance(b, Fixed):
            terms.append(b.eigenvalue * y[b.index] ** 2)
        else:
            i, j = b.indices
            terms.append(math.cos(b.angle) * (y[i] ** 2 + y[j] ** 2))
    return math.fsum(terms)


def random_unit_zero_mean_per_vector(n: int, rng) -> np.ndarray:
    """One standard_normal(n) draw per attempt, centered and scaled with
    compensated sums; retried while the centered norm is <= 1e-8."""
    while True:
        v = rng.standard_normal(n)
        v -= fsum(v) / n
        norm = math.sqrt(fdot(v, v))
        if norm > 1e-8:
            return v / norm


def random_unit_zero_mean_rows_per_row(n: int, m: int, rng) -> np.ndarray:
    """random_unit_zero_mean_rows with one math.fsum per row for the means and
    the squared norms."""
    xs = rng.standard_normal((m, n))
    xs -= np.array([math.fsum(v.tolist()) for v in xs])[:, None] / n
    norms = np.sqrt([math.fsum(v.tolist()) for v in np.square(xs)])
    keep = norms > 1e-8
    if keep.all():
        xs /= norms[:, None]
        return xs
    kept = xs[keep] / norms[keep, None]
    return np.concatenate([kept, random_unit_zero_mean_rows_per_row(n, m - len(kept), rng)])


def shift_matrix(n: int) -> np.ndarray:
    """Dense n x n matrix of the cyclic shift (row j has a 1 in column j-1)."""
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(-1, n - 1)] = 1.0
    return a


def oracle_max_dense(n: int) -> OracleResult:
    """The top eigenpair of the n x n symmetrized shift S = (A + A^T)/2 on the
    mean-zero vectors, with the all-ones direction deflated by a spectral
    shift."""
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


def verify_residuals_per_vector(ns, seed: int) -> dict:
    """`verify`'s five residuals, computed one vector at a time: per n, 5
    random vectors for the canonical form, then 200 through check_inequality."""
    rng = np.random.default_rng(seed)
    residuals = dict.fromkeys(("gram", "action", "canonical", "slack", "oracle"), 0.0)
    for n in ns:
        basis = build_basis(n)
        gram = np.abs(basis.vectors @ basis.vectors.T - np.eye(n)).max()
        residuals["gram"] = max(residuals["gram"], float(gram))
        residuals["action"] = max(residuals["action"], verify_action(basis))

        for _ in range(5):
            x = random_unit_zero_mean_per_vector(n, rng)
            corr = cyclic_correlation(x)
            form = canonical_form(coordinates(x, basis), basis)
            rel = abs(form - corr) / max(abs(corr), 1e-3)
            residuals["canonical"] = max(residuals["canonical"], rel)

        worst_violation = 0.0
        for _ in range(200):
            report = check_inequality(random_unit_zero_mean_per_vector(n, rng))
            worst_violation = max(worst_violation, -min(report.slack, 0.0))
        residuals["slack"] = max(residuals["slack"], worst_violation)

        value, _ = oracle_max(n)
        residuals["oracle"] = max(residuals["oracle"], abs(value - discrete_bound(n)))
    return residuals
