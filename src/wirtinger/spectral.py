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
        for b in self.blocks:
            if b.k == k:
                return b
        raise BlockOutOfRange(f"no block k={k} for n={self.n} (valid: 0..{self.n // 2})")

    @property
    def block_ids(self) -> list[int]:
        return sorted(b.k for b in self.blocks)


def block_layout(n: int) -> tuple:
    """Block descriptors for dimension n, without building the vectors."""
    _require_size(n)
    blocks = [Fixed(index=0, eigenvalue=1.0, k=0)]
    first = 1
    if n % 2 == 0:
        blocks.append(Fixed(index=1, eigenvalue=-1.0, k=n // 2))
        first = 2
    for k in range(1, (n - 1) // 2 + 1):
        i = first + 2 * (k - 1)
        blocks.append(Rotation(indices=(i, i + 1), angle=TWO_PI * k / n, k=k))
    return tuple(blocks)


def build_basis(n: int) -> CyclicBasis:
    """Construct the explicit shift-adapted orthonormal basis for R^n, n >= 4.

    Angles are evaluated as 2*pi*((j*k) mod n)/n so periodicity stays exact
    for large j*k.
    """
    blocks = block_layout(n)
    j = np.arange(n)
    vectors = np.empty((n, n))
    vectors[0] = 1.0 / math.sqrt(n)
    if n % 2 == 0:
        vectors[1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    amplitude = math.sqrt(2.0 / n)
    for b in blocks:
        if isinstance(b, Rotation):
            angles = (TWO_PI / n) * ((j * b.k) % n)
            vectors[b.indices[0]] = amplitude * np.cos(angles)
            vectors[b.indices[1]] = amplitude * np.sin(angles)
    vectors.flags.writeable = False
    return CyclicBasis(n=n, vectors=vectors, blocks=blocks)


@dataclass(frozen=True)
class ActionResidual:
    """How far shift(e_i) deviates from the predicted block image."""

    k: int
    residual: float


def action_residuals(basis: CyclicBasis) -> list[ActionResidual]:
    """Residuals of the block action of the shift on each basis block.

    On a rotation block the predicted image is the rotation by +angle:
    shift(e_cos) = cos*e_cos + sin*e_sin, shift(e_sin) = -sin*e_cos + cos*e_sin.
    """
    out = []
    v = basis.vectors
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
        out.append(ActionResidual(k=b.k, residual=float(r)))
    return out


def verify_action(basis: CyclicBasis) -> float:
    """Maximum block-action residual over all basis vectors."""
    return max(r.residual for r in action_residuals(basis))


def coordinates(x, basis: CyclicBasis) -> np.ndarray:
    """Coordinates y_i = <X, e_i> of a sample vector in the basis."""
    v = as_samples(x)
    if v.size != basis.n:
        raise DimensionMismatch(f"vector has length {v.size}, basis has n={basis.n}")
    return basis.vectors @ v


def canonical_form(y, n: int) -> float:
    """Value of the correlation quadratic form <X, shift(X)> from coordinates.

    Each fixed block contributes eigenvalue * y_i^2 and each rotation block
    cos(angle) * (y_i^2 + y_j^2); this is the diagonalized form of the cyclic
    correlation.
    """
    yv = as_samples(y)
    blocks = block_layout(n)
    if yv.size != n:
        raise DimensionMismatch(f"coordinate vector has length {yv.size}, expected {n}")
    terms = []
    for b in blocks:
        if isinstance(b, Fixed):
            terms.append(b.eigenvalue * yv[b.index] ** 2)
        else:
            i, j = b.indices
            terms.append(math.cos(b.angle) * (yv[i] ** 2 + yv[j] ** 2))
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
