import math

import numpy as np
import pytest
from oracles import harmonic_span_residual

from wirtinger import (
    ConstraintViolation,
    InvalidSize,
    bound_comparison,
    check_inequality,
    cyclic_correlation,
    discrete_bound,
    extremal_span_residual,
    extremal_vector,
    oracle_max,
    piecewise_bound,
    random_unit_zero_mean,
)

SLACK_TOL = 1e-12

# closed forms evaluated at 50 decimal digits, rounded to double
PW_BOUND_4 = 0.12579985131695962
PW_BOUND_10 = 0.8147939796674301
MARGIN_100 = 6.486253847612179e-07
MARGIN_2048 = 3.6913667516130365e-12


def test_discrete_bound_values():
    assert abs(discrete_bound(4)) <= 1e-15
    assert discrete_bound(6) == pytest.approx(0.5, abs=1e-15)
    assert discrete_bound(5) == pytest.approx(0.30901699437494745, abs=0, rel=1e-15)


def test_discrete_bound_rejects_small_n():
    with pytest.raises(InvalidSize):
        discrete_bound(3)


def test_piecewise_bound_values():
    assert piecewise_bound(4) == pytest.approx(PW_BOUND_4, rel=1e-15)
    assert piecewise_bound(10) == pytest.approx(PW_BOUND_10, rel=1e-15)


def test_piecewise_bound_monotone_to_one():
    values = [piecewise_bound(n) for n in range(4, 4097)]
    assert all(b < 1.0 for b in values)
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    assert values[-1] > 0.999995


def test_extremal_vector_n4():
    s = 1 / math.sqrt(2)
    x = extremal_vector(4, s, 0.0)
    assert np.allclose(x, [0, -s, 0, s], atol=1e-15)


def test_extremal_vector_n6():
    x = extremal_vector(6, 0.0, 1 / math.sqrt(3))
    assert np.allclose(x, [0.5, 0.5, 0, -0.5, -0.5, 0], atol=1e-15)


def test_extremal_vector_constraint_gate():
    with pytest.raises(ConstraintViolation):
        extremal_vector(8, 0.5, 0.5)  # 0.5 != 2/8


def test_extremal_vector_is_conforming():
    for n in (4, 5, 12, 129):
        r = math.sqrt(2.0 / n)
        x = extremal_vector(n, r * math.cos(0.3), r * math.sin(0.3))
        assert abs(float(np.sum(x))) <= 1e-12
        assert float(x @ x) == pytest.approx(1.0, abs=1e-12)


def test_extremal_vector_attains_bound():
    for n in (4, 5, 6, 7, 12, 31, 32):
        r = math.sqrt(2.0 / n)
        x = extremal_vector(n, r * math.cos(1.1), r * math.sin(1.1))
        assert cyclic_correlation(x) == pytest.approx(discrete_bound(n), abs=SLACK_TOL)


def test_rotation_family_slack():
    for n in (5, 16):
        r = math.sqrt(2.0 / n)
        for theta in np.arange(0.0, 6.3, 0.7):
            report = check_inequality(extremal_vector(n, r * math.cos(theta), r * math.sin(theta)))
            assert abs(report.slack) <= SLACK_TOL
            assert report.satisfied


def test_check_inequality_alternating():
    report = check_inequality(np.array([1, -1, 1, -1]) / 2)
    assert report.correlation == pytest.approx(-1.0, abs=1e-15)
    assert report.slack == pytest.approx(1.0, abs=1e-15)
    assert report.satisfied


def test_check_inequality_rejects_unnormalized():
    with pytest.raises(ConstraintViolation):
        check_inequality(np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ConstraintViolation):
        check_inequality(np.array([1, -1, 1, -1]))  # zero mean but norm 2


def test_random_conforming_slacks():
    rng = np.random.default_rng(42)
    for n in (4, 5, 17, 64):
        for _ in range(200):
            report = check_inequality(random_unit_zero_mean(n, rng))
            assert report.slack >= -SLACK_TOL


def test_random_unit_zero_mean_constraints():
    rng = np.random.default_rng(1)
    for n in (4, 100, 512):
        x = random_unit_zero_mean(n, rng)
        assert abs(float(np.sum(x))) <= 1e-12
        assert float(x @ x) == pytest.approx(1.0, abs=1e-12)


def test_oracle_max_values():
    value, _ = oracle_max(5)
    assert value == pytest.approx(0.30901699437494745, abs=1e-12)
    value, _ = oracle_max(4)
    assert abs(value) <= 1e-12
    value, _ = oracle_max(64)
    assert value == pytest.approx(discrete_bound(64), abs=1e-10)


def test_oracle_max_argmax_is_extremal():
    for n in (4, 9, 64):
        _, argmax = oracle_max(n)
        assert float(argmax @ argmax) == pytest.approx(1.0, abs=1e-12)
        assert extremal_span_residual(argmax) <= 1e-8
        # independent least-squares check of the same membership claim
        assert harmonic_span_residual(argmax) <= 1e-8


def test_oracle_max_matches_mpmath_cos():
    """The eigensolver maximum is within 16 eps of a 40-digit cos(2*pi/n)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in range(4, 129):
            exact = mpmath.cos(2 * mpmath.pi / n)
            error = abs(oracle_max(n).value - exact)
            assert error <= 16 * 2.0**-52, (n, float(error / 2.0**-52))


def test_oracle_max_size_limits():
    with pytest.raises(InvalidSize):
        oracle_max(3)
    with pytest.raises(InvalidSize):
        oracle_max(513)


def test_bound_comparison_small_n():
    cmp4 = bound_comparison(4)
    assert cmp4.lhs == pytest.approx(0.0, abs=1e-15)
    assert cmp4.rhs == pytest.approx(PW_BOUND_4, rel=1e-15)
    assert cmp4.margin == pytest.approx(0.1258, abs=5e-5)


def test_bound_comparison_frozen_values():
    """Margins against 50-digit evaluation; the n=2048 case loses ~5 digits
    if computed by naive subtraction, so this pins the stable rearrangement."""
    assert bound_comparison(100).margin == pytest.approx(MARGIN_100, rel=1e-10)
    assert bound_comparison(2048).margin == pytest.approx(MARGIN_2048, rel=1e-10)


def test_bound_margin_small_n_matches_mpmath():
    """At n = 4..7, where the margin falls below (2*pi/n)^4/30, both the naive
    difference and the rearranged margin match a 60-digit evaluation of
    (6 - 2a^2)/(6 + a^2) - cos(a) to within a few ulps of 1.0."""
    mpmath = pytest.importorskip("mpmath")
    tol = 4 * 2.0 ** -52
    with mpmath.workdps(60):
        for n in range(4, 8):
            a = 2 * mpmath.pi / n
            exact = (6 - 2 * a ** 2) / (6 + a ** 2) - mpmath.cos(a)
            naive = piecewise_bound(n) - discrete_bound(n)
            assert abs(naive - exact) <= tol
            assert abs(bound_comparison(n).margin - exact) <= tol


def test_bound_margin_matches_mpmath_at_large_n():
    """The margin keeps its digits as n grows: within 8 ulps relative of
    (6 - 2a^2)/(6 + a^2) - cos(a), evaluated with 4*log10(n) + 30 digits so
    that the reference's own cancellation stays below them."""
    mpmath = pytest.importorskip("mpmath")
    for n in [*range(4, 400), 2048, 65536, 10**6, 10**8, 10**12]:
        with mpmath.workdps(int(4 * math.log10(n)) + 30):
            a = 2 * mpmath.pi / n
            exact = (6 - 2 * a**2) / (6 + a**2) - mpmath.cos(a)
            error = abs(bound_comparison(n).margin - exact) / exact
        assert error <= 8 * 2.0**-52, (n, float(error))


def test_bound_comparison_positive_margin():
    for n in range(4, 2049):
        assert bound_comparison(n).margin > 0.0


def test_bound_comparison_consistent_with_parts():
    for n in (4, 7, 33, 500):
        cmp_ = bound_comparison(n)
        assert cmp_.lhs == pytest.approx(discrete_bound(n), abs=1e-15)
        assert cmp_.rhs == pytest.approx(piecewise_bound(n), abs=1e-15)
        assert cmp_.margin == pytest.approx(cmp_.rhs - cmp_.lhs, abs=1e-13)
