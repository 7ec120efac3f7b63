"""Orthonormal basis adapted to the cyclic shift.

The shift acts on R^n as a direct sum of one-dimensional fixed blocks and
two-dimensional rotation blocks.  The basis realizing this split is explicit:

    e_1 = (1, ..., 1)/sqrt(n)                                (eigenvalue +1)
    e_2 = (1, -1, ..., 1, -1)/sqrt(n)       for n even       (eigenvalue -1)
    cosine/sine pairs at frequency k = 1, 2, ...:
        sqrt(2/n) * (1, cos(2*pi*k/n), cos(2*pi*2k/n), ..., cos(2*pi*(n-1)k/n))
        sqrt(2/n) * (0, sin(2*pi*k/n), sin(2*pi*2k/n), ..., sin(2*pi*(n-1)k/n))

On each cosine/sine plane H_k the shift rotates by the angle 2*pi*k/n.
Blocks are labelled by k: k = 0 is the constant direction, k = n/2 (n even)
the alternating one, and 1 <= k < n/2 the rotation planes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    _require_rotation_block,
    _require_size,
    as_samples,
    cyclic_correlation_rows,
)
from .errors import DimensionMismatch, NonFinite


@dataclass(frozen=True)
class Fixed:
    """One-dimensional invariant block: shift(e) = eigenvalue * e."""

    index: int  # 0-based row in the basis matrix
    eigenvalue: float  # +1.0 or -1.0
    k: int  # block label: 0 for the constant vector, n//2 for the alternating one


@dataclass(frozen=True)
class Rotation:
    """Two-dimensional invariant plane on which the shift rotates by `angle`."""

    indices: tuple[int, int]  # 0-based rows of the cosine and sine vectors
    angle: float  # 2*pi*k/n
    k: int


@dataclass(frozen=True)
class CyclicBasis:
    """The shift-adapted orthonormal basis for a given n.

    `vectors` is an n x n read-only array whose row i is the basis vector
    e_{i+1}.  `blocks` is block_layout(n), and `rotation_cos_sin` the read-only
    (2, (n-1)//2) math.cos and math.sin of the rotation angles, each built on first read.
    """

    n: int
    vectors: np.ndarray

    @functools.cached_property
    def blocks(self) -> tuple:
        return block_layout(self.n)

    @functools.cached_property
    def rotation_cos_sin(self) -> np.ndarray:
        angles = _rotation_angles(self.n)
        table = np.array([[math.cos(a) for a in angles], [math.sin(a) for a in angles]])
        table.flags.writeable = False
        return table


def _first_rotation_row(n: int) -> int:
    """Row of the first cosine vector, after the one or two fixed blocks.

    It is also the position of the rotation block k = 1 in `blocks`.
    """
    return 2 - n % 2


def _rotation_angles(n: int) -> list:
    """The angle 2*pi*k/n of every rotation block k = 1..(n-1)//2, in order."""
    return [TWO_PI * k / n for k in range(1, (n - 1) // 2 + 1)]


def block_layout(n: int) -> tuple:
    """Block descriptors for dimension n, without building the vectors."""
    _require_size(n)
    blocks = [Fixed(index=0, eigenvalue=1.0, k=0)]
    if n % 2 == 0:
        blocks.append(Fixed(index=1, eigenvalue=-1.0, k=n // 2))
    first = _first_rotation_row(n)
    for k, angle in enumerate(_rotation_angles(n), 1):
        i = first + 2 * (k - 1)
        blocks.append(Rotation(indices=(i, i + 1), angle=angle, k=k))
    return tuple(blocks)


def build_basis(n: int) -> CyclicBasis:
    """Construct the explicit shift-adapted orthonormal basis for R^n, n >= 4.

    Angles are evaluated as 2*pi*((j*k) mod n)/n so periodicity stays exact
    for large j*k.  So every rotation entry is amplitude * cos or sin of one
    of the n angles 2*pi*m/n: both are tabulated once, and all rotation rows
    are gathered from the tables through the (j*k) mod n table.  The
    temporaries are that table and the two length-n tables.
    """
    _require_size(n)
    j = np.arange(n)
    vectors = np.empty((n, n))
    vectors[0] = 1.0 / math.sqrt(n)
    if n % 2 == 0:
        vectors[1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    amplitude = math.sqrt(2.0 / n)
    angles = (TWO_PI / n) * j
    first = _first_rotation_row(n)
    phase = np.multiply.outer(np.arange(1, (n - 1) // 2 + 1), j)
    np.remainder(phase, n, out=phase)
    # mode="clip" skips the bounds check and the buffered copy that "raise" makes
    np.take(amplitude * np.cos(angles), phase, out=vectors[first::2], mode="clip")
    np.take(amplitude * np.sin(angles), phase, out=vectors[first + 1::2], mode="clip")
    vectors.flags.writeable = False
    return CyclicBasis(n=n, vectors=vectors)


def action_residuals(basis: CyclicBasis) -> dict[int, float]:
    """Residual of the shift's action on each basis block, keyed by block label k.

    The whole basis is shifted once.  On a rotation block the predicted image
    is the rotation by +angle:
    shift(e_cos) = cos*e_cos + sin*e_sin, shift(e_sin) = -sin*e_cos + cos*e_sin.
    All blocks are taken at once.  Each residual row's norm is sqrt(r.dot(r)),
    as np.linalg.norm takes it for a 1-D array; a stacked (1, n) @ (n, 1)
    matmul calls the same BLAS dot for every row, while a norm along an axis
    would sum in another order and move the last digits.
    """
    n, v = basis.n, basis.vectors
    residual = np.empty_like(v)
    residual[:, 1:] = v[:, :-1]
    residual[:, 0] = v[:, -1]
    first = _first_rotation_row(n)
    cos_rows, sin_rows = v[first::2], v[first + 1::2]
    c, s = basis.rotation_cos_sin[:, :, None]
    # the fixed blocks k = 0 and (n even) k = n/2, with eigenvalues +1 and -1
    residual[:first] -= np.array((1.0, -1.0)[:first])[:, None] * v[:first]
    image, term = c * cos_rows, s * sin_rows
    residual[first::2] -= np.add(image, term, out=image)
    # c*sin - s*cos has the bits of -s*cos + c*sin: negation is exact
    np.multiply(c, sin_rows, out=image)
    residual[first + 1::2] -= np.subtract(image, np.multiply(s, cos_rows, out=term), out=image)
    norms = np.sqrt(np.matmul(residual[:, None, :], residual[:, :, None])).ravel()
    out = dict(zip((0, n // 2)[:first], norms[:first].tolist()))
    out.update(zip(range(1, len(c) + 1),
                   np.maximum(norms[first::2], norms[first + 1::2]).tolist()))
    return out


def verify_action(basis: CyclicBasis) -> float:
    """Maximum block-action residual over all basis vectors; a NaN in any block is kept."""
    return float(np.max([*action_residuals(basis).values()]))


def coordinates(x, basis: CyclicBasis) -> np.ndarray:
    """Coordinates y_i = <X, e_i> of a sample vector in the basis."""
    v = as_samples(x)
    if v.size != basis.n:
        raise DimensionMismatch(f"vector has length {v.size}, basis has n={basis.n}")
    return basis.vectors @ v


def canonical_form(y, basis: CyclicBasis) -> float:
    """Value of the correlation quadratic form <X, shift(X)> from coordinates.

    Each fixed block contributes eigenvalue * y_i^2 and each rotation block
    cos(angle) * (y_i^2 + y_j^2); this is the diagonalized form of the cyclic
    correlation.
    """
    yv = as_samples(y)
    if yv.size != basis.n:
        raise DimensionMismatch(f"coordinate vector has length {yv.size}, basis has n={basis.n}")
    return float(_canonical_forms(yv[None, :], basis)[0])


def _canonical_forms(ys: np.ndarray, basis: CyclicBasis) -> np.ndarray:
    """canonical_form of every row of an (m, n) array of coordinates, each
    summed by math.fsum: never by fsum_rows' extraction, which the correlation
    side of verify's canonical check may take."""
    squares = np.square(ys)
    first = _first_rotation_row(basis.n)
    terms = np.empty((len(ys), first + (basis.n - 1) // 2))
    terms[:, 0] = squares[:, 0]
    if first == 2:
        terms[:, 1] = -squares[:, 1]
    np.multiply(basis.rotation_cos_sin[0], squares[:, first::2] + squares[:, first + 1::2],
                out=terms[:, first:])
    return np.array([math.fsum(row) for row in terms.tolist()])


def canonical_residuals(xs, basis: CyclicBasis) -> np.ndarray:
    """|form - corr| / max(|corr|, 1e-3) for each row x of an (m, n) array.

    form is canonical_form(coordinates(x, basis), basis) and corr is
    cyclic_correlation(x), each with its bits.  The roundoff in form - corr is
    absolute (about eps*|x|^2), so below |corr| = 1e-3 the measure turns
    absolute instead of measuring roundoff.  Each row's coordinates come from
    its own basis.vectors @ x: the product with all rows at once (gemm) rounds
    differently from the matrix-vector one (gemv).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != basis.n:
        raise DimensionMismatch(f"need an (m, {basis.n}) array of sample vectors, got {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise NonFinite("sample vector entries must be finite")
    ys = np.array([basis.vectors @ x for x in xs]).reshape(xs.shape)
    form = _canonical_forms(ys, basis)
    corr = cyclic_correlation_rows(xs)
    return np.abs(form - corr) / np.maximum(np.abs(corr), 1e-3)


def block_energies(x) -> np.ndarray:
    """Squared projection norms for every block, indexed by block label k = 0..n//2.

    The shift-adapted basis is the real DFT basis, so one real FFT
    X = rfft(x) gives every projection without building it: |X_0|^2/n for
    the constant block, |X_{n/2}|^2/n for the alternating one (n even) and
    2|X_k|^2/n on each rotation plane 1 <= k < n/2.
    """
    v = as_samples(x)
    n = v.size
    _require_size(n)
    spectrum = np.fft.rfft(v)
    energies = (spectrum.real**2 + spectrum.imag**2) / n
    energies[1 : (n + 1) // 2] *= 2.0
    return energies


def aligned_harmonics(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled cos(k t_i) and sin(k t_i) at the sample points t_i = 2*pi*i/n.

    Both vectors span the rotation plane H_k but are phase-aligned to the
    sample times (the printed basis vectors start at t = 0 instead).
    """
    _require_rotation_block(n, k)
    i = np.arange(1, n + 1)
    angles = (TWO_PI / n) * ((i * k) % n)
    return np.cos(angles), np.sin(angles)
