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
    ConvergenceReport,
    FourierTable,
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
    ConstraintStatus,
    as_samples,
    center_normalize,
    constraint_status,
    cyclic_correlation,
    shift,
    shift_matrix,
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
    discrete_bound,
    extremal_span_residual,
    extremal_vector,
    max_violation,
    oracle_max,
    piecewise_bound,
    random_unit_zero_mean,
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
    coordinates,
    project,
    verify_action,
)

__version__ = "0.1.0"

__all__ = [
    "FUNCTION_NAMES",
    "BlockOutOfRange",
    "BoundComparison",
    "ConstraintStatus",
    "ConstraintViolation",
    "ConvergenceFailure",
    "ConvergenceReport",
    "CyclicBasis",
    "DegenerateVector",
    "DimensionMismatch",
    "Fixed",
    "FourierTable",
    "InequalityReport",
    "InvalidSize",
    "NonFinite",
    "OracleResult",
    "PeriodicFunction",
    "PiecewiseLinear",
    "QuadratureFailure",
    "RangeError",
    "Rotation",
    "SweepRow",
    "adaptive_simpson",
    "aligned_harmonics",
    "as_samples",
    "basis_norm",
    "block_energies",
    "block_layout",
    "bound_comparison",
    "build_basis",
    "canonical_form",
    "center_normalize",
    "check_inequality",
    "constraint_status",
    "coordinates",
    "cyclic_correlation",
    "discrete_bound",
    "energy_h1",
    "energy_l2",
    "extremal_span_residual",
    "extremal_vector",
    "fourier_discrete",
    "fourier_quadrature",
    "harmonic_mix",
    "inner_product",
    "max_violation",
    "named_function",
    "oracle_max",
    "partial_sum",
    "piecewise_bound",
    "project",
    "random_unit_zero_mean",
    "random_unit_zero_mean_rows",
    "rayleigh_sweep",
    "sample",
    "shift",
    "shift_matrix",
    "tail_energy",
    "verify_action",
]
