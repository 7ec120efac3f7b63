import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    fourier_interpolant,
    period_integral_per_point,
    trig_polynomial_dot,
    trig_polynomial_loop,
)

from wirtinger import (
    FUNCTION_NAMES,
    DegenerateVector,
    InvalidSize,
    NonFinite,
    PeriodicFunction,
    QuadratureFailure,
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
from wirtinger import quadrature
from wirtinger.analysis import PERIOD_PIECES, _period_integral

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon

# (1/2pi) * integral of exp(sin t) = I_0(1), evaluated at 40 digits
BESSEL_I0_1 = 1.2660658777520084


def expsin_centered() -> PeriodicFunction:
    return PeriodicFunction(value=lambda t: np.exp(np.sin(t)) - BESSEL_I0_1, label="expsin0")


class TestPeriodicFunctionProbes:
    def test_registry_functions_pass(self):
        for name in ("sin1", "cos1", "sin2", "mix13", "cubicodd"):
            named_function(name)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_function("nosuch")

    def test_rejects_aperiodic_value(self):
        with pytest.raises(ValueError, match="periodic"):
            PeriodicFunction(value=lambda t: t)
        with pytest.raises(ValueError, match="periodic"):
            PeriodicFunction(value=lambda t: 1e8 * (np.sin(t) + t))

    def test_periodicity_tolerance_has_a_floor(self):
        """sin(17t) takes one value at the 17 probes 2*pi*(k + 0.31)/17, so this
        periodic bump is 0 at each of them, and a few 1e-15 one period later:
        a tolerance relative to the probed values alone would be 0 and reject
        it."""
        PeriodicFunction(value=lambda t: np.maximum(0.0, np.sin(17 * t) - math.sin(0.62 * math.pi)))

    @pytest.mark.parametrize("amplitude", [1e-8, 1.0, 1e5, 1e8])
    def test_periodicity_tolerance_scales_with_the_values(self, amplitude):
        """sin(40t) evaluated at t + 2*pi moves by about 40 * ulp(2*pi) of
        its amplitude; an absolute tolerance of 1e-10 rejects that at 1e5."""
        PeriodicFunction(value=lambda t: amplitude * np.sin(40 * t))

    def test_registry_values_are_the_closed_forms(self):
        """sin1, cos1, sin2 and mix13 are coefficient tuples; they evaluate
        to the bits of the math-module expressions, signs of zero included."""
        forms = {
            "sin1": math.sin,
            "cos1": math.cos,
            "sin2": lambda t: math.sin(2.0 * t),
            "mix13": lambda t: math.sin(t) + 0.5 * math.cos(3.0 * t),
        }
        for t in np.linspace(-TWO_PI, 2 * TWO_PI, 1201).tolist() + [0.0, math.pi / 2]:
            for name, form in forms.items():
                got, want = named_function(name).value(t), form(t)
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_zero_terms_are_dropped(self):
        f = harmonic_mix([0.0, 0.0, 0.0, -0.0, 0.0, 2.5])
        assert f.value.__self__.terms == ((3, 0.0, 2.5),)
        assert harmonic_mix([0.0]).value(1.0) == 0.0


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
        value=lambda t: np.where(np.abs(t - math.pi / 2) < 1e-9, math.inf, np.sin(t)), label="pole"
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
    assert rayleigh_sweep(f, [4])[0].tail_energy == pytest.approx(tail, abs=1e-15)


def test_sweep_rows_sorted_and_finite():
    report = rayleigh_sweep(named_function("cubicodd"), [32, 8, 16])
    assert [r.n for r in report] == [8, 16, 32]
    for r in report:
        for v in (r.mean, r.energy_l2, r.energy_h1, r.slack, r.tail_energy, r.elapsed_ms):
            assert math.isfinite(v)


def test_sweep_sin_energies_converge_to_pi():
    ns = [8, 16, 32, 64, 128]
    report = rayleigh_sweep(named_function("sin1"), ns)
    # errors are pi*(1-cos a)/3 and ~pi*a^2/12 with a = 2*pi/n, so at n=128
    # they sit near 1.3e-3 and 6e-4
    errs_l2 = [abs(r.energy_l2 - math.pi) for r in report]
    errs_h1 = [abs(r.energy_h1 - math.pi) for r in report]
    assert errs_l2[-1] <= 2e-3 and errs_h1[-1] <= 1e-3
    for a, b in zip(errs_l2, errs_l2[1:]):
        assert 3.5 <= a / b <= 4.5
    slacks = [r.slack for r in report]
    assert all(s >= -1e-12 for s in slacks)
    assert slacks[-1] <= slacks[0]  # equality case: slack decays toward 0
    assert slacks[-1] <= 1e-3


def test_sweep_sin2_energy_ratio_approaches_four():
    report = rayleigh_sweep(named_function("sin2"), [16, 32, 64, 128])
    ratios = [r.energy_h1 / r.energy_l2 for r in report]
    assert abs(ratios[-1] - 4.0) <= 0.02
    assert all(abs(r2 - 4.0) <= abs(r1 - 4.0) + 1e-12 for r1, r2 in zip(ratios, ratios[1:]))


def test_sweep_mean_column_decays():
    report = rayleigh_sweep(expsin_centered(), [8, 16, 32])
    means = [abs(r.mean) for r in report]
    assert all(m <= 0.5 / (r.n**2) for m, r in zip(means, report))


def test_sweep_slack_positivity_across_registry():
    for name in ("sin1", "cos1", "sin2", "mix13", "cubicodd"):
        report = rayleigh_sweep(named_function(name), [4, 9, 32, 33])
        assert all(r.slack >= -1e-12 for r in report)
        # each of these has f(t + pi) = -f(t) on the 4-point grid, so its one
        # block k >= 2 there (the alternating line) holds only rounding, ~eps^2
        assert report[0].tail_energy <= 1e-30


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
        error = abs(rayleigh_sweep(f, [n])[0].slack - exact) / exact
    assert error <= 4 * EPS, float(error / EPS)


def test_sweep_rejects_constant_function():
    flat = PeriodicFunction(value=lambda t: 1.5, label="flat")
    with pytest.raises(DegenerateVector):
        rayleigh_sweep(flat, [8])


class TestFourierDiscrete:
    def test_single_harmonic(self):
        (_, a1, b1), *rest = fourier_discrete(named_function("sin1"), 129, 3)
        assert b1 == pytest.approx(1.0, abs=1e-13)
        assert abs(a1) <= 1e-13
        for _, aj, bj in rest:
            assert abs(aj) <= 1e-13 and abs(bj) <= 1e-13

    def test_mixture(self):
        table = fourier_discrete(named_function("mix13"), 257, 4)
        assert table[2][1] == pytest.approx(0.5, abs=1e-13)
        assert table[0][2] == pytest.approx(1.0, abs=1e-13)

    def test_trig_polynomials_recovered_exactly(self):
        """Below the aliasing threshold the projection formula is an identity,
        not an approximation."""
        f = harmonic_mix([0.25, -1.5, 0.0, 0.75, 2.0, 0.0])
        table = fourier_discrete(f, 16, 3)
        assert [j for j, _, _ in table] == [1, 2, 3]
        assert table[0][1:] == pytest.approx((0.25, -1.5), abs=1e-14)
        assert table[1][1:] == pytest.approx((0.0, 0.75), abs=1e-14)
        assert table[2][1:] == pytest.approx((2.0, 0.0), abs=1e-14)

    def test_zero_function(self):
        table = fourier_discrete(harmonic_mix([0.0]), 64, 4)
        for j, a, b in table:
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
        for (j, a, b), (_, a_ref, b_ref) in zip(table, fourier_interpolant(x, jmax)):
            assert abs(a - a_ref) <= budget, (f.label, j)
            assert abs(b - b_ref) <= budget, (f.label, j)


class TestFourierQuadrature:
    def test_single_harmonic(self):
        (_, a1, b1), *rest = fourier_quadrature(named_function("sin1"), 3)
        assert b1 == pytest.approx(1.0, abs=1e-10)
        assert abs(a1) <= 1e-10
        for _, aj, bj in rest:
            assert max(abs(aj), abs(bj)) <= 1e-10

    def test_mixture(self):
        table = fourier_quadrature(named_function("mix13"), 4)
        assert table[2][1] == pytest.approx(0.5, abs=1e-10)

    def test_needs_a_harmonic(self):
        with pytest.raises(InvalidSize, match="jmax >= 1"):
            fourier_quadrature(named_function("sin1"), 0)

    def test_odd_function_has_no_cosine_terms(self):
        table = fourier_quadrature(named_function("cubicodd"), 4)
        for j, a, b in table:
            assert abs(a) <= 1e-10
            assert math.isfinite(b)
        # sine coefficients of this cubic decay like 1/j^3
        b1 = table[0][2]
        b2 = table[1][2]
        assert b1 / b2 == pytest.approx(8.0, rel=1e-6)

    def test_discrete_agrees_with_quadrature(self):
        for name in ("sin1", "sin2", "mix13", "cubicodd"):
            f = named_function(name)
            discrete = fourier_discrete(f, 513, 4)
            quad = fourier_quadrature(f, 4)
            for (j, ad, bd), (_, aq, bq) in zip(discrete, quad):
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
    few roundings per term."""
    rng = np.random.default_rng(21)
    harmonics = 7
    flat = rng.uniform(-2.0, 2.0, 2 * harmonics).tolist()
    terms = list(zip(range(1, harmonics + 1), flat[0::2], flat[1::2]))
    value_ref = trig_polynomial_dot(terms)
    value_budget = 4 * harmonics * EPS * math.fsum(abs(a) + abs(b) for _, a, b in terms)
    for f in (harmonic_mix(flat), partial_sum(tuple(terms), harmonics)):
        for t in np.linspace(-TWO_PI, 2 * TWO_PI, 301).tolist():
            assert abs(f.value(t) - value_ref(t)) <= value_budget


@pytest.mark.parametrize("j", [1, 39, 40, 128, 1000])
@pytest.mark.parametrize("amplitude", [1e-8, 1.0, 1e5, 1e8])
def test_harmonic_mix_takes_any_harmonic_and_amplitude(j, amplitude):
    """A*sin(jt) is accepted and evaluated at any j and A; the sweep's tail
    column for it is checked in test_cli."""
    f = harmonic_mix([0.0] * (2 * j - 1) + [amplitude])
    for t in (0.3, 1.7, 5.9):
        assert f.value(t) == amplitude * math.sin(j * t)


@pytest.mark.parametrize("j", [127, 128, 207, 256, 335, 384, 512])
def test_period_integral_does_not_alias(j):
    """sin^2(jt) integrates to pi.  For j a multiple of 128 it vanishes on
    every node a single [0, 2*pi] pass visits up to the forced depth (the
    multiples of 2*pi/256), so that pass returns about 0.  For j = 207 and
    335 a piece ending at the golden-ratio point of the period sees a slow
    alias of sin^2(jt) that does not integrate to its mean.  j = 127 is the
    control."""
    (got,) = _period_integral(lambda t: (np.sin(j * t) ** 2)[None], 1e-10)
    assert got == pytest.approx(math.pi, abs=1e-10)


def test_period_integral_of_a_near_alias():
    """cos(400t)cos(14t) has the harmonics 386 and 414; each aliases to an
    integer frequency on the pieces' nodes, and integrates to 0."""
    (got,) = _period_integral(lambda t: (np.cos(400 * t) * np.cos(14 * t))[None], 1e-10)
    assert got == pytest.approx(0.0, abs=1e-10)


def _per_point(f: PeriodicFunction):
    """f's value for one float t: the per-point series loop for a
    trigonometric polynomial, else f.value itself, which then runs on floats."""
    series = getattr(f.value, "__self__", None)
    return trig_polynomial_loop(series.terms) if series is not None else f.value


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _mix(terms: dict) -> PeriodicFunction:
    """harmonic_mix of {j: (a_j, b_j)}."""
    flat = [0.0] * (2 * max(terms))
    for j, (a, b) in terms.items():
        flat[2 * j - 2 : 2 * j] = [a, b]
    return harmonic_mix(flat)


# the registry, and a seeded polynomial like the benchmark's --harmonics ones
SAMPLED = [named_function(name) for name in FUNCTION_NAMES] + [
    harmonic_mix(np.random.default_rng(7).uniform(-1.0, 1.0, 8).tolist())]


@pytest.mark.parametrize("n", [4, 257, 4097, 65536])
def test_sample_has_the_per_point_bits(n):
    """Blocks of SAMPLE_BLOCK points (4097 and 65536 cross block edges) give
    the bits of one float evaluation per point, zero signs included."""
    for f in SAMPLED:
        value = _per_point(f)
        want = [value(TWO_PI * j / n) for j in range(1, n + 1)]
        assert _bits(sample(f, n)) == _bits(want), f.label


@pytest.mark.parametrize("f, jmax", [pytest.param(f, 8, id=f.label[:12]) for f in SAMPLED]
                         + [pytest.param(named_function("cubicodd"), 12, id="cubicodd-jmax12")])
def test_fourier_quadrature_has_the_per_point_bits(f, jmax):
    """The array integrands, refined breadth-first, give the bits of the
    per-point integrands with math.cos and math.sin, refined depth-first;
    at jmax = 12 the harmonics span two groups."""
    value = _per_point(f)
    want = []
    for j in range(1, jmax + 1):
        a = period_integral_per_point(lambda t: value(t) * math.cos(j * t), 1e-10, PERIOD_PIECES)
        b = period_integral_per_point(lambda t: value(t) * math.sin(j * t), 1e-10, PERIOD_PIECES)
        want.append((j, a / math.pi, b / math.pi))
    got = fourier_quadrature(f, jmax)
    assert [_bits(c) for c in got] == [_bits(c) for c in want]


@pytest.mark.parametrize("terms, j", [
    ({1: (0.3, -1.2), 40: (0.0, 0.8)}, 40),
    ({3: (0.5, 0.5), 128: (1.0, 0.0)}, 128),
    ({207: (0.0, 1.0)}, 207),
    ({2: (-0.25, 0.0), 512: (0.0, 1.0)}, 512),
])
def test_high_harmonic_integrands_have_the_per_point_bits(terms, j):
    f = _mix(terms)
    value = _per_point(f)
    (got,) = _period_integral(lambda t: (f.value(t) * np.sin(j * t))[None], 1e-10)
    want = period_integral_per_point(lambda t: value(t) * math.sin(j * t), 1e-10, PERIOD_PIECES)
    assert _bits([got]) == _bits([want])


# the benchmark's `limit` polynomial of seed 7
LIMIT_SEED_7 = np.random.default_rng(7).uniform(-1.0, 1.0, 8).tolist()


def test_fourier_quadrature_evaluates_f_once_per_point():
    """The 16 integrals of jmax = 8 bisect the same dyadic tree of the pieces:
    one integral at a time evaluated f at 124,328 points, one frontier for all
    at about 10,125, the distinct points."""
    f = harmonic_mix(LIMIT_SEED_7)
    points = []
    counting = PeriodicFunction(lambda t: points.append(t.size) or f.value(t))
    points.clear()  # the periodicity probe
    fourier_quadrature(counting, 8)
    assert sum(points) <= 10_200, sum(points)


def test_fourier_quadrature_redoes_a_failed_group_one_integral_at_a_time(monkeypatch):
    """With a budget that the 16 rows of a piece exceed but each integral
    alone does not, the first group fails together and is redone one
    integral at a time, with the same bits."""
    f = harmonic_mix(LIMIT_SEED_7)
    want = fourier_quadrature(f, 12)
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 8192)
    piece = (0.0, TWO_PI / PERIOD_PIECES)
    rows = lambda t: np.array([f.value(t) * trig(j * t) for j in range(1, 9)
                               for trig in (np.cos, np.sin)])
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(rows, *piece, tol=1e-10 / PERIOD_PIECES)
    got = fourier_quadrature(f, 12)
    assert [_bits(c) for c in got] == [_bits(c) for c in want]


def test_fourier_quadrature_redoes_sin_500t_one_integral_at_a_time():
    """sin 500t at jmax = 8, with the budget as it is: the 16 rows of the
    shared frontier exhaust it on the first piece, and each integral alone
    passes.  Each coefficient has the bits of five 1-D integrals summed with
    math.fsum, and for j = 1 those of the per-point recursion too."""
    f = harmonic_mix([0.0] * 999 + [1.0])
    piece = (0.0, TWO_PI / PERIOD_PIECES)
    rows = lambda t: np.array([f.value(t) * trig(j * t) for j in range(1, 9)
                               for trig in (np.cos, np.sin)])
    with pytest.raises(QuadratureFailure, match="evaluation budget"):
        adaptive_simpson(rows, *piece, tol=1e-10 / PERIOD_PIECES)
    edges = [TWO_PI * i / PERIOD_PIECES for i in range(PERIOD_PIECES + 1)]

    def one_at_a_time(g):
        return math.fsum(adaptive_simpson(g, lo, hi, tol=1e-10 / PERIOD_PIECES)
                         for lo, hi in zip(edges, edges[1:]))

    want = [(j, one_at_a_time(lambda t: f.value(t) * np.cos(j * t)) / math.pi,
             one_at_a_time(lambda t: f.value(t) * np.sin(j * t)) / math.pi) for j in range(1, 9)]
    got = fourier_quadrature(f, 8)
    assert [_bits(c) for c in got] == [_bits(c) for c in want]
    value = _per_point(f)
    a1 = period_integral_per_point(lambda t: value(t) * math.cos(t), 1e-10, PERIOD_PIECES)
    assert _bits([got[0][1]]) == _bits([a1 / math.pi])


@pytest.mark.parametrize("amplitude", [1e6, 1e8])
def test_fourier_quadrature_at_the_rounding_level_fails_by_budget(amplitude):
    """At amplitude 1e6 the absolute tolerance 1e-10 is near the integrands'
    rounding, and the error test passes about as often as it fails; the
    evaluation budget ends the refinement, as MAX_DEPTH does at 1e8."""
    with pytest.raises(QuadratureFailure, match="open intervals"):
        fourier_quadrature(harmonic_mix([0.0, amplitude]), 3)


def test_fourier_quadrature_failing_by_budget_is_bounded_in_memory():
    """The five pieces of the first integral exhaust their shared budget, and
    each is redone alone until the first fails: the failed batch's frontier
    is freed before the redo, so the peak is about one call's."""
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure, match="open intervals"):
            fourier_quadrature(harmonic_mix([0.0, 1e6]), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("value", [
    math.sin,
    lambda t: 0.0 if t < math.pi else 1.0,
    lambda t: max(0.0, math.sin(t)),
])
def test_scalar_only_value_is_a_type_error(value):
    with pytest.raises(TypeError, match="1-D float array"):
        PeriodicFunction(value=value)
