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

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, _require_rotation_block, _require_size, as_samples, fdot
from .errors import BlockOutOfRange, DimensionMismatch


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
    e_{i+1}.  `blocks` lists the invariant blocks; `block(k)` looks one up
    by its frequency label.
    """

    n: int
    vectors: np.ndarray
    blocks: tuple

    def block(self, k: int):
        n = self.n
        if k == 0:
            return self.blocks[0]
        if 2 * k == n:
            return self.blocks[1]
        if 1 <= k <= (n - 1) // 2:
            return self.blocks[_first_rotation_row(n) + k - 1]
        raise BlockOutOfRange(f"no block k={k} for n={n} (valid: 0..{n // 2})")

    @property
    def block_ids(self) -> list[int]:
        return sorted(b.k for b in self.blocks)


def _first_rotation_row(n: int) -> int:
    """Row of the first cosine vector, after the one or two fixed blocks.

    It is also the position of the rotation block k = 1 in `blocks`.
    """
    return 2 - n % 2


def block_layout(n: int) -> tuple:
    """Block descriptors for dimension n, without building the vectors."""
    _require_size(n)
    blocks = [Fixed(index=0, eigenvalue=1.0, k=0)]
    if n % 2 == 0:
        blocks.append(Fixed(index=1, eigenvalue=-1.0, k=n // 2))
    first = _first_rotation_row(n)
    for k in range(1, (n - 1) // 2 + 1):
        i = first + 2 * (k - 1)
        blocks.append(Rotation(indices=(i, i + 1), angle=TWO_PI * k / n, k=k))
    return tuple(blocks)


def build_basis(n: int) -> CyclicBasis:
    """Construct the explicit shift-adapted orthonormal basis for R^n, n >= 4.

    Angles are evaluated as 2*pi*((j*k) mod n)/n so periodicity stays exact
    for large j*k.  All rotation rows are filled at once: the angles are
    written into the sine rows, the cosine rows are taken from them, and the
    sine rows are then overwritten in place, so the only temporary is the
    (j*k) mod n table.
    """
    blocks = block_layout(n)
    j = np.arange(n)
    vectors = np.empty((n, n))
    vectors[0] = 1.0 / math.sqrt(n)
    if n % 2 == 0:
        vectors[1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    amplitude = math.sqrt(2.0 / n)
    first = _first_rotation_row(n)
    cos_rows, sin_rows = vectors[first::2], vectors[first + 1::2]
    phase = np.multiply.outer(np.arange(1, (n - 1) // 2 + 1), j)
    np.remainder(phase, n, out=phase)
    np.multiply(TWO_PI / n, phase, out=sin_rows)
    np.cos(sin_rows, out=cos_rows)
    np.multiply(amplitude, cos_rows, out=cos_rows)
    np.sin(sin_rows, out=sin_rows)
    np.multiply(amplitude, sin_rows, out=sin_rows)
    vectors.flags.writeable = False
    return CyclicBasis(n=n, vectors=vectors, blocks=blocks)


def action_residuals(basis: CyclicBasis) -> dict[int, float]:
    """Residual of the shift's action on each basis block, keyed by block label k.

    The whole basis is shifted once.  On a rotation block the predicted image
    is the rotation by +angle:
    shift(e_cos) = cos*e_cos + sin*e_sin, shift(e_sin) = -sin*e_cos + cos*e_sin.
    All rotation blocks are taken at once.  Each residual row's norm is
    sqrt(r.dot(r)), as np.linalg.norm takes it for a 1-D array; a norm along
    an axis would sum in another order and move the last digits.
    """
    v = basis.vectors
    shifted = np.roll(v, 1, axis=1)
    first = _first_rotation_row(basis.n)
    fixed, rotations = basis.blocks[:first], basis.blocks[first:]
    cos_rows, sin_rows = v[first::2], v[first + 1::2]
    c = np.array([[math.cos(b.angle)] for b in rotations])
    s = np.array([[math.sin(b.angle)] for b in rotations])
    cos_residual = shifted[first::2] - (c * cos_rows + s * sin_rows)
    sin_residual = shifted[first + 1::2] - (-s * cos_rows + c * sin_rows)
    out = {}
    for b in fixed:
        r = shifted[b.index] - b.eigenvalue * v[b.index]
        out[b.k] = math.sqrt(r.dot(r))
    for b, rc, rs in zip(rotations, cos_residual, sin_residual):
        out[b.k] = max(math.sqrt(rc.dot(rc)), math.sqrt(rs.dot(rs)))
    return out


def verify_action(basis: CyclicBasis) -> float:
    """Maximum block-action residual over all basis vectors."""
    return max(action_residuals(basis).values())


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
    # Python's y ** 2 is the C library's pow(y, 2.0), which rounds differently
    # from numpy's y * y for about 1 value in 1000 (glibc); the form keeps pow's bits.
    squares = np.array([t ** 2 for t in yv.tolist()])
    first = _first_rotation_row(basis.n)
    cosines = np.array([math.cos(b.angle) for b in basis.blocks[first:]])
    terms = [squares[0]] if first == 1 else [squares[0], -squares[1]]
    terms += (cosines * (squares[first::2] + squares[first + 1::2])).tolist()
    return math.fsum(terms)


def project(x, basis: CyclicBasis, k: int) -> float:
    """Squared norm of the orthogonal projection of X onto block k."""
    v = as_samples(x)
    if v.size != basis.n:
        raise DimensionMismatch(f"vector has length {v.size}, basis has n={basis.n}")
    b = basis.block(k)
    idx = (b.index,) if isinstance(b, Fixed) else b.indices
    return math.fsum(fdot(v, basis.vectors[i]) ** 2 for i in idx)


def block_energies(x) -> dict[int, float]:
    """Squared projection norms for every block, keyed by block label k.

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
    return dict(enumerate(energies.tolist()))


def aligned_harmonics(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled cos(k t_i) and sin(k t_i) at the sample points t_i = 2*pi*i/n.

    Both vectors span the rotation plane H_k but are phase-aligned to the
    sample times (the printed basis vectors start at t = 0 instead).
    """
    _require_rotation_block(n, k)
    i = np.arange(1, n + 1)
    angles = (TWO_PI / n) * ((i * k) % n)
    return np.cos(angles), np.sin(angles)
