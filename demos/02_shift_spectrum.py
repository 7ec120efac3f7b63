"""
How the cyclic shift acts on its adapted basis
==============================================

The shift x -> (x[n-1], x[0], ..., x[n-2]) is an orthogonal map, so it
decomposes into invariant lines and 2d rotation planes.  build_basis
returns an orthonormal basis aligned with that decomposition; in it the
symmetrized correlation form becomes a diagonal quadratic with
coefficients cos(2*pi*k/n).
"""

import numpy as np

from wirtinger import (
    Fixed,
    Rotation,
    block_energies,
    build_basis,
    canonical_form,
    coordinates,
    cyclic_correlation,
    shift,
    verify_action,
)

n = 12
basis = build_basis(n)

# orthonormality and the recorded action, both to machine precision
gram = basis.vectors @ basis.vectors.T
print(f"gram residual   {np.max(np.abs(gram - np.eye(n))):.3e}")
print(f"action residual {verify_action(basis):.3e}")
print()

print("block structure:")
for blk in basis.blocks:
    if isinstance(blk, Fixed):
        print(f"  k={blk.k}: fixed line, eigenvalue {blk.eigenvalue:+.0f}")
    elif isinstance(blk, Rotation):
        deg = np.degrees(blk.angle)
        print(f"  k={blk.k}: rotation plane {blk.indices}, angle {deg:.1f} deg")
print()

# a shift really does rotate each plane: compare coordinates before/after
rng = np.random.default_rng(3)
x = rng.standard_normal(n)
y = coordinates(x, basis)
y_shifted = coordinates(shift(x), basis)
for blk in basis.blocks:
    if not isinstance(blk, Rotation):
        continue
    i, j = blk.indices
    c, s = np.cos(blk.angle), np.sin(blk.angle)
    rotated = np.array([c * y[i] - s * y[j], s * y[i] + c * y[j]])
    # orientation: the recorded angle moves the cosine vector toward the sine vector
    err = np.max(np.abs(rotated - y_shifted[[i, j]]))
    print(f"  plane k={blk.k}: rotation mismatch {err:.3e}")
print()

# in these coordinates the correlation sum is a weighted sum of squares
q = canonical_form(y, basis)
print(f"correlation via samples        {cyclic_correlation(x):.15f}")
print(f"correlation via canonical form {q:.15f}")

# Parseval: block energies add up to |x|^2; entry k is block k's energy
energies = block_energies(x)
print(f"sum of block energies - |x|^2  {sum(energies.tolist()) - x @ x:.3e}")
