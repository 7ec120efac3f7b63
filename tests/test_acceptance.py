"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each.  Tolerances are pinned here as constants so the
contract being checked is visible at a glance.
"""

import math
import time

import numpy as np
import pytest
from oracles import segment_h1, segment_l2

from wirtinger import (
    PiecewiseLinear,
    adaptive_simpson,
    build_basis,
    canonical_form,
    check_inequality,
    coordinates,
    cyclic_correlation,
    discrete_bound,
    energy_h1,
    energy_l2,
    extremal_vector,
    fourier_discrete,
    fourier_quadrature,
    named_function,
    oracle_max,
    partial_sum,
    piecewise_bound,
    random_unit_zero_mean,
    rayleigh_sweep,
    sample,
    tail_energy,
    verify_action,
)

TWO_PI = 2.0 * math.pi

ORACLE_TOL = 1e-10          # criterion 1
ORACLE_BUDGET_S = 60.0      # criterion 1
SLACK_TOL = 1e-12           # criteria 2, 3, 6
SEGMENT_REL_TOL = 1e-12     # criterion 4
ADAPTIVE_ABS_TOL = 1e-9     # criterion 4
# criterion 5: the naive margin is the float difference of two values in
# [0, 1], each within a few ulps of 1.0 of its exact value, and the bracket
# edges a^4/24 and a^6/80 are themselves rounded values of size <= 0.26;
# 8 ulps of 1.0 covers all of these roundings together
MARGIN_ROUNDING = 8 * 2.0 ** -52
RATE_WINDOW = (3.5, 4.5)    # criterion 7
TAIL_LOW = 1e-10            # criterion 8
TAIL_HIGH = 0.4             # criterion 8
FOURIER_AGREE_TOL = 5e-4    # criterion 9
PARTIAL_SUM_L2_TOL = 1e-6   # criterion 9
GRAM_TOL = 1e-12            # criterion 10
ACTION_TOL = 1e-12          # criterion 10
EQUIV_REL_TOL = 1e-11       # criterion 10


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_01_sharp_bound_matches_eigensolver():
    start = time.perf_counter()
    worst = 0.0
    for n in range(4, 129):
        value, _ = oracle_max(n)
        worst = max(worst, abs(value - discrete_bound(n)))
    elapsed = time.perf_counter() - start
    ok = worst <= ORACLE_TOL and elapsed <= ORACLE_BUDGET_S
    _report(1, "sharp bound", ok,
            f"max |oracle - cos(2pi/n)| = {worst:.3e} <= {ORACLE_TOL:.0e} "
            f"over n=4..128 in {elapsed:.1f}s")
    assert worst <= ORACLE_TOL
    assert elapsed <= ORACLE_BUDGET_S


def test_criterion_02_equality_clause():
    worst = 0.0
    thetas = np.arange(63) * 0.1
    for n in range(4, 65):
        r = math.sqrt(2.0 / n)
        for theta in thetas:
            x = extremal_vector(n, r * math.cos(theta), r * math.sin(theta))
            worst = max(worst, abs(check_inequality(x).slack))
    ok = worst <= SLACK_TOL
    _report(2, "equality clause", ok,
            f"max |slack| = {worst:.3e} <= {SLACK_TOL:.0e} "
            f"over n=4..64, 63 angles")
    assert ok


def test_criterion_03_inequality_as_property():
    rng = np.random.default_rng(42)
    per_n = 1640  # 61 sizes * 1640 = 100_040 vectors
    violations = 0
    worst = math.inf
    for n in range(4, 65):
        for _ in range(per_n):
            slack = check_inequality(random_unit_zero_mean(n, rng)).slack
            worst = min(worst, slack)
            if slack < -SLACK_TOL:
                violations += 1
    ok = violations == 0
    _report(3, "inequality property", ok,
            f"{61 * per_n} random conforming vectors, min slack = {worst:.3e}, "
            f"{violations} below -{SLACK_TOL:.0e}")
    assert ok


def test_criterion_04_energy_formula_exactness():
    rng = np.random.default_rng(7)
    sizes = [4 + (i % 61) for i in range(200)]
    worst_seg = 0.0
    worst_adaptive = 0.0
    for n in sizes:
        x = rng.standard_normal(n) * 2
        l2, h1 = energy_l2(x), energy_h1(x)
        worst_seg = max(worst_seg, abs(l2 - segment_l2(x)) / abs(l2))
        worst_seg = max(worst_seg, abs(h1 - segment_h1(x)) / abs(h1))
        L = PiecewiseLinear(x)
        q = adaptive_simpson(lambda t: L(t) ** 2, 0.0, TWO_PI, tol=1e-10)
        worst_adaptive = max(worst_adaptive, abs(q - l2) / max(1.0, abs(l2)))
    ok = worst_seg <= SEGMENT_REL_TOL and worst_adaptive <= ADAPTIVE_ABS_TOL
    _report(4, "energy formulas", ok,
            f"200 interpolants: segment-exact rel err {worst_seg:.3e} <= "
            f"{SEGMENT_REL_TOL:.0e}, structure-blind err {worst_adaptive:.3e} "
            f"<= {ADAPTIVE_ABS_TOL:.0e}")
    assert worst_seg <= SEGMENT_REL_TOL
    assert worst_adaptive <= ADAPTIVE_ABS_TOL


def test_criterion_05_strict_bound_comparison():
    # With a = 2*pi/n the margin is (6 - 2a^2)/(6 + a^2) - cos(a)
    #   = sum_{k>=2} (-1)^k [6^(1-k)/2 - 1/(2k)!] a^(2k)
    #   = a^4/24 - a^6/80 + ...
    # For n >= 4 the terms alternate in sign and shrink by a factor of at
    # most a^2/3 <= pi^2/12 < 1, so a^4/24 - a^6/80 <= margin <= a^4/24.
    positive = all(
        piecewise_bound(n) - discrete_bound(n) > 0.0 for n in range(4, 2049)
    )
    bracket_failures = []
    positions = []
    for n in range(4, 513):
        a = TWO_PI / n
        upper = a ** 4 / 24.0
        lower = upper - a ** 6 / 80.0
        margin = piecewise_bound(n) - discrete_bound(n)
        if not lower - MARGIN_ROUNDING <= margin <= upper + MARGIN_ROUNDING:
            bracket_failures.append(n)
        positions.append((margin - lower) / (upper - lower))
    ok = positive and not bracket_failures
    _report(5, "strict bound margin", ok,
            f"margin > 0 for n=4..2048: {positive}; "
            f"a^4/24 - a^6/80 <= margin <= a^4/24 (+-{MARGIN_ROUNDING:.1e}) "
            f"for n=4..512, position in bracket "
            f"{min(positions):.3f}..{max(positions):.3f}, "
            f"fails at n={bracket_failures}")
    assert positive
    assert not bracket_failures, (
        f"margin outside [a^4/24 - a^6/80, a^4/24] by more than "
        f"{MARGIN_ROUNDING:.1e} at n={bracket_failures}"
    )


def test_criterion_06_corollary_at_desk_scale():
    names = ("sin1", "cos1", "sin2", "mix13", "cubicodd")
    sizes = list(range(4, 65)) + [128, 256, 513]
    worst = math.inf
    for name in names:
        f = named_function(name)
        for n in sizes:
            x = sample(f, n)
            centered = x - np.mean(x)
            h1, l2 = energy_h1(centered), energy_l2(centered)
            worst = min(worst, (h1 - l2) + SLACK_TOL * h1)
    ok = worst >= 0.0
    _report(6, "interpolant corollary", ok,
            f"min of (energy_h1 - energy_l2 + {SLACK_TOL:.0e}*energy_h1) = "
            f"{worst:.3e} over 5 functions x {len(sizes)} sizes")
    assert ok


def test_criterion_07_convergence_to_classical_inequality():
    report = rayleigh_sweep(named_function("sin1"), [16, 32, 64, 128, 256])
    errs_l2 = [abs(r.energy_l2 - math.pi) for r in report.rows]
    errs_h1 = [abs(r.energy_h1 - math.pi) for r in report.rows]
    ratios = [a / b for a, b in zip(errs_l2, errs_l2[1:])]
    ratios += [a / b for a, b in zip(errs_h1, errs_h1[1:])]
    lo, hi = RATE_WINDOW
    ok = all(lo <= r <= hi for r in ratios)
    _report(7, "classical limit rate", ok,
            f"error contraction per doubling in [{min(ratios):.3f}, "
            f"{max(ratios):.3f}], required within [{lo}, {hi}]")
    assert ok


def test_criterion_08_tail_energy_dichotomy():
    low = max(tail_energy(named_function("cos1"), n) for n in (33, 65, 129, 257))
    high = min(tail_energy(named_function("sin2"), n) for n in (33, 65, 129, 257))
    ok = low <= TAIL_LOW and high >= TAIL_HIGH
    _report(8, "tail dichotomy", ok,
            f"first harmonic: max tail {low:.3e} <= {TAIL_LOW:.0e}; "
            f"second harmonic: min tail {high:.3f} >= {TAIL_HIGH}")
    assert low <= TAIL_LOW
    assert high >= TAIL_HIGH


def test_criterion_09_fourier_recovery():
    f = named_function("mix13")
    discrete = fourier_discrete(f, 513, 4)
    quad = fourier_quadrature(f, 4)
    worst = 0.0
    for (j, ad, bd), (_, aq, bq) in zip(discrete.coefficients, quad.coefficients):
        worst = max(worst, abs(ad - aq), abs(bd - bq))
    ps = partial_sum(discrete, 4)
    l2_err = adaptive_simpson(
        lambda t: (ps.value(t) - f.value(t)) ** 2, 0.0, TWO_PI, tol=1e-10
    )
    ok = worst <= FOURIER_AGREE_TOL and l2_err <= PARTIAL_SUM_L2_TOL
    _report(9, "fourier recovery", ok,
            f"max coefficient gap {worst:.3e} <= {FOURIER_AGREE_TOL:.0e}; "
            f"partial-sum L2 error {l2_err:.3e} <= {PARTIAL_SUM_L2_TOL:.0e}")
    assert worst <= FOURIER_AGREE_TOL
    assert l2_err <= PARTIAL_SUM_L2_TOL


def test_criterion_10_spectral_structure():
    worst_gram = 0.0
    worst_action = 0.0
    for n in range(4, 513):
        basis = build_basis(n)
        gram = np.abs(basis.vectors @ basis.vectors.T - np.eye(n)).max()
        worst_gram = max(worst_gram, float(gram))
        worst_action = max(worst_action, verify_action(basis))

    rng = np.random.default_rng(10)
    worst_equiv = 0.0
    for n in (4, 5, 6, 7, 31, 32, 128):
        basis = build_basis(n)
        for _ in range(20):
            x = rng.standard_normal(n)
            corr = cyclic_correlation(x)
            form = canonical_form(coordinates(x, basis), basis)
            worst_equiv = max(worst_equiv, abs(form - corr) / max(abs(corr), 1e-6))

    ok = worst_gram <= GRAM_TOL and worst_action <= ACTION_TOL and worst_equiv <= EQUIV_REL_TOL
    _report(10, "spectral structure", ok,
            f"gram {worst_gram:.3e} <= {GRAM_TOL:.0e}, action {worst_action:.3e} "
            f"<= {ACTION_TOL:.0e} for n<=512; canonical-vs-correlation rel "
            f"{worst_equiv:.3e} <= {EQUIV_REL_TOL:.0e}")
    assert worst_gram <= GRAM_TOL
    assert worst_action <= ACTION_TOL
    assert worst_equiv <= EQUIV_REL_TOL
