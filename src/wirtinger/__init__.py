"""Discrete Wirtinger inequality toolkit.

For mean-zero unit vectors x in R^n (n >= 4, cyclic convention x_0 = x_n)
the cyclic correlation sum x_j x_{j-1} is at most cos(2*pi/n), attained
exactly by sampled first harmonics.  This package builds the shift-adapted
orthonormal basis behind that bound, the piecewise-linear interpolant
energy identities, an independent eigensolver oracle, and the sampling
pipeline that recovers the classical integral inequality and Fourier
coefficients in the large-n limit.
"""

from .analysis import (
    FUNCTION_NAMES,
    PeriodicFunction,
    SweepRow,
    fourier_discrete,
    fourier_quadrature,
    harmonic_mix,
    named_function,
    partial_sum,
    rayleigh_sweep,
    sample,
    tail_energy,
)
from .core import (
    as_samples,
    center_normalize,
    cyclic_correlation,
    cyclic_correlation_rows,
    shift,
)
from .errors import (
    BlockOutOfRange,
    ConstraintViolation,
    ConvergenceFailure,
    DegenerateVector,
    DimensionMismatch,
    InvalidSize,
    NonFinite,
    QuadratureFailure,
    RangeError,
)
from .inequality import (
    BoundComparison,
    InequalityReport,
    OracleResult,
    bound_comparison,
    check_inequality,
    check_inequality_rows,
    discrete_bound,
    extremal_span_residual,
    extremal_vector,
    max_violation,
    oracle_max,
    piecewise_bound,
    random_unit_zero_mean_rows,
)
from .pwl import PiecewiseLinear, basis_norm, energy_h1, energy_l2, inner_product
from .quadrature import adaptive_simpson
from .spectral import (
    CyclicBasis,
    Fixed,
    Rotation,
    aligned_harmonics,
    block_energies,
    block_layout,
    build_basis,
    canonical_form,
    canonical_residuals,
    coordinates,
    verify_action,
)

__version__ = "0.1.0"
