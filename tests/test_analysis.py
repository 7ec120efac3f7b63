import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from oracles import fourier_interpolant, trig_polynomial_dot

from wirtinger import (
    FUNCTION_NAMES,
    DegenerateVector,
    FourierTable,
    InvalidSize,
    NonFinite,
    PeriodicFunction,
    RangeError,
    adaptive_simpson,
    block_energies,
    center_normalize,
    fourier_discrete,
    fourier_quadrature,
    harmonic_mix,
    named_function,
    partial_sum,
    rayleigh_sweep,
    sample,
    tail_energy,
)

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon

# (1/2pi) * integral of exp(sin t) = I_0(1), evaluated at 40 digits
BESSEL_I0_1 = 1.2660658777520084


def expsin_centered() -> PeriodicFunction:
    return PeriodicFunction(
        value=lambda t: math.exp(math.sin(t)) - BESSEL_I0_1,
        derivative=lambda t: math.cos(t) * math.exp(math.sin(t)),
        label="expsin0",
    )


class TestPeriodicFunctionProbes:
    def test_registry_functions_pass(self):
        for name in ("sin1", "cos1", "sin2", "mix13", "cubicodd"):
            named_function(name)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_function("nosuch")

    def test_rejects_aperiodic_value(self):
        with pytest.raises(ValueError, match="periodic"):
            PeriodicFunction(value=lambda t: t, derivative=lambda t: 1.0)

    def test_rejects_wrong_derivative(self):
        with pytest.raises(ValueError, match="central differences"):
            PeriodicFunction(value=math.sin, derivative=math.sin)


def test_sample_examples():
    f = named_function("sin1")
    assert np.allclose(sample(f, 4), [1, 0, -1, 0], atol=1e-15)
    g = named_function("cos1")
    assert np.allclose(sample(g, 4), [0, -1, 0, 1], atol=1e-15)
    zero = harmonic_mix([0.0, 0.0])
    assert np.array_equal(sample(zero, 6), np.zeros(6))


def test_sample_size_gate():
    with pytest.raises(InvalidSize):
        sample(named_function("sin1"), 3)


def test_sample_non_finite():
    bad = PeriodicFunction(
        value=lambda t: math.inf if abs(t - math.pi / 2) < 1e-9 else math.sin(t),
        derivative=math.cos,
        label="pole",
    )
    with pytest.raises(NonFinite):
        sample(bad, 4)  # t_1 = pi/2 hits the pole


def test_tail_energy_first_harmonic_vanishes():
    f = named_function("cos1")
    for n in (33, 65, 129, 257):
        assert tail_energy(f, n) <= 1e-12


def test_tail_energy_second_harmonic_is_half():
    f = named_function("sin2")
    assert tail_energy(f, 65) == pytest.approx(0.5, abs=1e-10)


def test_tail_energy_mixture_stays_up():
    f = harmonic_mix([0.0, 1.0, 0.0, 1.0])  # sin t + sin 2t
    for n in (33, 65, 129):
        assert tail_energy(f, n) == pytest.approx(0.5, abs=1e-10)


def test_tail_energy_size_gate():
    f = harmonic_mix([1.0, 0.0, 0.5, 0.0])
    with pytest.raises(InvalidSize):
        tail_energy(f, 3)
    # at n = 4 the only block k >= 2 is the alternating line k = n/2 = 2
    assert tail_energy(f, 4) == block_energies(sample(f, 4))[2] / 4
    assert tail_energy(named_function("sin1"), 5) <= 1e-12


@pytest.mark.parametrize(
    "coefficients, tail",
    [([0.0, 0.0, 1.0], 1.0), ([1.0, 0.0, 0.5, 0.0], 0.25)],  # cos 2t; cos t + 0.5 cos 2t
)
def test_tail_energy_at_four_is_the_alternating_line(coefficients, tail):
    """On the 4-point grid cos 2t samples (-1, 1, -1, 1): all of a*cos 2t lies
    in block k = 2, and its tail is a^2 (the (1/n) sum of the squared samples)."""
    f = harmonic_mix(coefficients)
    assert tail_energy(f, 4) == pytest.approx(tail, abs=1e-15)
    assert rayleigh_sweep(f, [4]).rows[0].tail_energy == pytest.approx(tail, abs=1e-15)


def test_sweep_rows_sorted_and_finite():
    report = rayleigh_sweep(named_function("cubicodd"), [32, 8, 16])
    assert [r.n for r in report.rows] == [8, 16, 32]
    for r in report.rows:
        for v in (r.mean, r.energy_l2, r.energy_h1, r.slack, r.tail_energy, r.elapsed_ms):
            assert math.isfinite(v)
    assert report.label == "cubicodd"


def test_sweep_sin_energies_converge_to_pi():
    ns = [8, 16, 32, 64, 128]
    report = rayleigh_sweep(named_function("sin1"), ns)
    # errors are pi*(1-cos a)/3 and ~pi*a^2/12 with a = 2*pi/n, so at n=128
    # they sit near 1.3e-3 and 6e-4
    errs_l2 = [abs(r.energy_l2 - math.pi) for r in report.rows]
    errs_h1 = [abs(r.energy_h1 - math.pi) for r in report.rows]
    assert errs_l2[-1] <= 2e-3 and errs_h1[-1] <= 1e-3
    for a, b in zip(errs_l2, errs_l2[1:]):
        assert 3.5 <= a / b <= 4.5
    slacks = [r.slack for r in report.rows]
    assert all(s >= -1e-12 for s in slacks)
    assert slacks[-1] <= slacks[0]  # equality case: slack decays toward 0
    assert slacks[-1] <= 1e-3


def test_sweep_sin2_energy_ratio_approaches_four():
    report = rayleigh_sweep(named_function("sin2"), [16, 32, 64, 128])
    ratios = [r.energy_h1 / r.energy_l2 for r in report.rows]
    assert abs(ratios[-1] - 4.0) <= 0.02
    assert all(abs(r2 - 4.0) <= abs(r1 - 4.0) + 1e-12 for r1, r2 in zip(ratios, ratios[1:]))


def test_sweep_mean_column_decays():
    report = rayleigh_sweep(expsin_centered(), [8, 16, 32])
    means = [abs(r.mean) for r in report.rows]
    assert all(m <= 0.5 / (r.n**2) for m, r in zip(means, report.rows))


def test_sweep_slack_positivity_across_registry():
    for name in ("sin1", "cos1", "sin2", "mix13", "cubicodd"):
        report = rayleigh_sweep(named_function(name), [4, 9, 32, 33])
        assert all(r.slack >= -1e-12 for r in report.rows)
        # each of these has f(t + pi) = -f(t) on the 4-point grid, so its one
        # block k >= 2 there (the alternating line) holds only rounding, ~eps^2
        assert report.rows[0].tail_energy <= 1e-30


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_sweep_slack_matches_exact_quotient(n):
    """The slack is cos(2*pi/n) - <u,Su>/<u,u> for the normalized samples u,
    within 4 ulps relative of an exact Fraction quotient and a 50-digit cos."""
    mpmath = pytest.importorskip("mpmath")
    f = harmonic_mix([0.3, -1.2, 0.0, 0.8])
    u = [Fraction(v) for v in center_normalize(sample(f, n)).tolist()]
    quotient = sum(a * b for a, b in zip(u, u[-1:] + u[:-1])) / sum(a * a for a in u)
    with mpmath.workdps(50):
        correlation = mpmath.mpf(quotient.numerator) / quotient.denominator
        exact = mpmath.cos(2 * mpmath.pi / n) - correlation
        error = abs(rayleigh_sweep(f, [n]).rows[0].slack - exact) / exact
    assert error <= 4 * EPS, float(error / EPS)


def test_sweep_rejects_constant_function():
    flat = PeriodicFunction(value=lambda t: 1.5, derivative=lambda t: 0.0, label="flat")
    with pytest.raises(DegenerateVector):
        rayleigh_sweep(flat, [8])


class TestFourierDiscrete:
    def test_single_harmonic(self):
        table = fourier_discrete(named_function("sin1"), 129, 3)
        a1, b1 = table.coefficient(1)
        assert b1 == pytest.approx(1.0, abs=1e-13)
        assert abs(a1) <= 1e-13
        for j in (2, 3):
            aj, bj = table.coefficient(j)
            assert abs(aj) <= 1e-13 and abs(bj) <= 1e-13

    def test_mixture(self):
        table = fourier_discrete(named_function("mix13"), 257, 4)
        assert table.coefficient(3)[0] == pytest.approx(0.5, abs=1e-13)
        assert table.coefficient(1)[1] == pytest.approx(1.0, abs=1e-13)
        assert table.method == "discrete-projection"

    def test_trig_polynomials_recovered_exactly(self):
        """Below the aliasing threshold the projection formula is an identity,
        not an approximation."""
        f = harmonic_mix([0.25, -1.5, 0.0, 0.75, 2.0, 0.0])
        table = fourier_discrete(f, 16, 3)
        assert table.coefficient(1) == pytest.approx((0.25, -1.5), abs=1e-14)
        assert table.coefficient(2) == pytest.approx((0.0, 0.75), abs=1e-14)
        assert table.coefficient(3) == pytest.approx((2.0, 0.0), abs=1e-14)

    def test_zero_function(self):
        table = fourier_discrete(harmonic_mix([0.0]), 64, 4)
        for j, a, b in table.coefficients:
            assert a == 0.0 and b == 0.0
            assert math.copysign(1.0, a) == math.copysign(1.0, b) == 1.0  # no "-0" in tables

    def test_aliasing_guard(self):
        with pytest.raises(InvalidSize):
            fourier_discrete(named_function("sin1"), 4, 4)
        with pytest.raises(InvalidSize):
            fourier_discrete(named_function("sin1"), 9, 4)  # needs n >= 10


@pytest.mark.parametrize("n", [10, 16, 17, 64, 129, 257, 513, 4096, 65536])
def test_fourier_discrete_matches_interpolant_route(n):
    """The FFT coefficients equal the paper's interpolant projections to
    within a few roundings of the largest sample."""
    jmax = min(8, (n - 2) // 2)
    functions = [named_function(name) for name in FUNCTION_NAMES]
    functions.append(harmonic_mix([0.3, -1.2, 0.0, 0.8, -0.45, 0.1, 0.0, 2.0]))
    for f in functions:
        x = sample(f, n)
        budget = 8 * EPS * np.abs(x).max()
        table = fourier_discrete(f, n, jmax)
        for (j, a, b), (_, a_ref, b_ref) in zip(table.coefficients, fourier_interpolant(x, jmax)):
            assert abs(a - a_ref) <= budget, (f.label, j)
            assert abs(b - b_ref) <= budget, (f.label, j)


class TestFourierQuadrature:
    def test_single_harmonic(self):
        table = fourier_quadrature(named_function("sin1"), 3)
        assert table.coefficient(1)[1] == pytest.approx(1.0, abs=1e-10)
        assert abs(table.coefficient(1)[0]) <= 1e-10
        for j in (2, 3):
            assert max(map(abs, table.coefficient(j))) <= 1e-10

    def test_mixture(self):
        table = fourier_quadrature(named_function("mix13"), 4)
        assert table.coefficient(3)[0] == pytest.approx(0.5, abs=1e-10)

    def test_odd_function_has_no_cosine_terms(self):
        table = fourier_quadrature(named_function("cubicodd"), 4)
        for j, a, b in table.coefficients:
            assert abs(a) <= 1e-10
            assert math.isfinite(b)
        # sine coefficients of this cubic decay like 1/j^3
        b1 = table.coefficient(1)[1]
        b2 = table.coefficient(2)[1]
        assert b1 / b2 == pytest.approx(8.0, rel=1e-6)

    def test_discrete_agrees_with_quadrature(self):
        for name in ("sin1", "sin2", "mix13", "cubicodd"):
            f = named_function(name)
            discrete = fourier_discrete(f, 513, 4)
            quad = fourier_quadrature(f, 4)
            for (j, ad, bd), (_, aq, bq) in zip(discrete.coefficients, quad.coefficients):
                assert abs(ad - aq) <= 5e-4
                assert abs(bd - bq) <= 5e-4


class TestPartialSum:
    def test_single_term_recovery(self):
        f = named_function("sin1")
        table = fourier_discrete(f, 129, 3)
        ps = partial_sum(table, 1)
        dist_sq = adaptive_simpson(
            lambda t: (ps.value(t) - f.value(t)) ** 2, 0.0, TWO_PI, tol=1e-12
        )
        assert dist_sq <= 1e-18

    def test_omitted_term_energy(self):
        f = named_function("mix13")
        table = fourier_discrete(f, 513, 4)
        ps = partial_sum(table, 2)
        err_sq = adaptive_simpson(
            lambda t: (ps.value(t) - f.value(t)) ** 2, 0.0, TWO_PI, tol=1e-10
        )
        assert err_sq == pytest.approx(math.pi / 4, abs=1e-6)

    def test_error_nonincreasing_in_order(self):
        f = named_function("mix13")
        table = fourier_discrete(f, 513, 4)
        errs = []
        for order in range(0, 5):
            ps = partial_sum(table, order)
            errs.append(
                adaptive_simpson(
                    lambda t: (ps.value(t) - f.value(t)) ** 2, 0.0, TWO_PI, tol=1e-10
                )
            )
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_order_range(self):
        table = fourier_discrete(named_function("sin1"), 64, 2)
        with pytest.raises(RangeError):
            partial_sum(table, 3)
        with pytest.raises(RangeError):
            partial_sum(table, -1)


def test_harmonic_mix_roundtrip():
    f = harmonic_mix([0.5, -1.0, 0.25])  # trailing b2 defaults to 0
    for t in (0.0, 0.9, 4.4):
        expected = 0.5 * math.cos(t) - math.sin(t) + 0.25 * math.cos(2 * t)
        assert f.value(t) == pytest.approx(expected, rel=1e-14, abs=1e-14)
    with pytest.raises(ValueError):
        harmonic_mix([])


def test_trig_polynomial_matches_dot_form():
    """harmonic_mix and partial_sum agree with the numpy dot-product form to a
    few roundings per term, for the value and (j-weighted) the derivative."""
    rng = np.random.default_rng(21)
    harmonics = 7
    flat = rng.uniform(-2.0, 2.0, 2 * harmonics).tolist()
    terms = list(zip(range(1, harmonics + 1), flat[0::2], flat[1::2]))
    value_ref, derivative_ref = trig_polynomial_dot(terms)
    value_budget = 4 * harmonics * EPS * math.fsum(abs(a) + abs(b) for _, a, b in terms)
    slope_budget = 4 * harmonics * EPS * math.fsum(j * (abs(a) + abs(b)) for j, a, b in terms)
    table = FourierTable(coefficients=tuple(terms), method="quadrature")
    for f in (harmonic_mix(flat), partial_sum(table, harmonics)):
        for t in np.linspace(-TWO_PI, 2 * TWO_PI, 301).tolist():
            assert abs(f.value(t) - value_ref(t)) <= value_budget
            assert abs(f.derivative(t) - derivative_ref(t)) <= slope_budget


def test_fourier_table_coefficient_lookup():
    table = fourier_quadrature(named_function("sin1"), 2)
    assert table.jmax == 2
    with pytest.raises(RangeError):
        table.coefficient(5)
