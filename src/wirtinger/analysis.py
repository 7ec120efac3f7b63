"""Sampling pipeline: convergence sweeps, tail-energy diagnostic, Fourier recovery.

Sampling a 2*pi-periodic C^1 function at t_j = 2*pi*j/n and feeding the
piecewise-linear machinery recovers the classical zero-mean inequality
(integral of f^2 <= integral of f'^2) in the n -> infinity limit, and the
block projections recover the Fourier coefficients of f.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, _normalize_centered, _require_size, fdot, fsum
from .errors import InvalidSize, NonFinite, QuadratureFailure, RangeError
from .pwl import energy_h1, energy_l2
from .quadrature import _first_call, adaptive_simpson
# build_basis is no longer called here; the binding stays because
# bench/test_bench.py checks that the tracer rebinds it in this module
from .spectral import block_energies, build_basis  # noqa: F401

PROBE_POINTS = 17
PERIODICITY_TOL = 1e-10
# Quadrature integrates the period as PERIOD_PIECES equal pieces.  Up to the forced
# depth their nodes form one grid of 256 * PERIOD_PIECES = 1280 points, on which a
# harmonic m takes the values of an integer alias; over the whole period that alias
# integrates to 0 as m does, unless m is a nonzero multiple of 1280 and the alias is
# a constant.  One piece would alias every multiple of 256; unequal pieces are not
# whole periods of their aliases, so near-multiples would go wrong.  Each piece gets a
# call of its own: 16 integrals in one call for all 5 pieces raised the peak RSS of
# `fourier --n 65536 --jmax 8` on a 4-harmonic polynomial from 37.3 to 43.7 MiB.
PERIOD_PIECES = 5
_EDGES = [TWO_PI * i / PERIOD_PIECES for i in range(PERIOD_PIECES + 1)]
# fourier_quadrature integrates the cos and sin of this many harmonics in one frontier:
# at jmax = 64 that computes 1.26-1.29 times the values of one integral at a time, with
# f at 8% of its points, and takes cubicodd, mix13 and sin1 from 363, 559 and 522 ms to
# 297, 320 and 384.  Groups of 16 were no faster; 64 harmonics exceed EVAL_BUDGET.
HARMONIC_GROUP = 8
# sample() evaluates f on this many points at a time, because all n at once
# holds a few n-point temporaries at the peak: `fourier --n 65536 --jmax 8` on
# a 4-harmonic polynomial then peaked at 38.3 MiB RSS, 1.5 MiB (4%) above the
# per-point loop, and with blocks of 4096 points at 37.0 MiB (medians of 5).
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class _TrigSeries:
    """The (j, a, b) terms of sum a*cos(j t) + b*sin(j t)."""

    terms: tuple

    # PeriodicFunction holds this bound method, and knows a series by it
    def evaluate(self, t):
        """The sum at t, a float or an array, elementwise; the terms are added
        in order to a total that starts at +0.0."""
        total = 0.0
        for j, a, b in self.terms:
            jt = j * t
            total += a * np.cos(jt) + b * np.sin(jt)
        return total


@dataclass(frozen=True)
class PeriodicFunction:
    """A 2*pi-periodic function, given by its values.

    `value` is evaluated elementwise: it takes a 1-D float array and returns
    values of the same shape (a scalar result is taken as a constant).
    Trigonometric polynomials are periodic by construction.  Any other
    callable is probed for periodicity at a few points, in one call, so
    aperiodic user input fails fast instead of polluting convergence tables,
    and a scalar-only callable fails with a TypeError.
    """

    value: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if isinstance(getattr(self.value, "__self__", None), _TrigSeries):
            return  # periodic by construction
        probes = TWO_PI * (np.arange(PROBE_POINTS) + 0.31) / PROBE_POINTS
        values = _first_call(self.value, np.concatenate((probes, probes + TWO_PI)))
        here, later = values[:PROBE_POINTS], values[PROBE_POINTS:]
        # f's rounding grows with its size, so the tolerance is relative to it above 1
        tol = PERIODICITY_TOL * max(1.0, *np.abs(here).tolist())
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which passes
            off = np.abs(later - here) > tol
        if off.any():
            raise ValueError(f"value is not 2*pi-periodic at t={probes[off.argmax()]:.6g}")


def sample(f: PeriodicFunction, n: int) -> np.ndarray:
    """Sample vector x_j = f(2*pi*j/n), j = 1..n."""
    _require_size(n)
    out = np.empty(n)
    for start in range(0, n, SAMPLE_BLOCK):
        j = np.arange(start + 1, min(start + SAMPLE_BLOCK, n) + 1)
        out[start : start + j.size] = f.value(TWO_PI * j / n)
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"function {f.label!r} produced non-finite samples")
    return out


def tail_energy(f: PeriodicFunction, n: int) -> float:
    """(1/n) * sum over blocks k >= 2 of the squared projection of the samples.

    Vanishes as n grows exactly when f is a pure first harmonic.  Needs
    n >= 4, as sample does; every such n has a block k >= 2, since for even
    n the alternating line k = n/2 is one (at n = 4 it is the whole tail).
    """
    return _tail_of_samples(sample(f, n))


def _tail_of_samples(x: np.ndarray) -> float:
    return fsum(block_energies(x)[2:]) / x.size


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean: float
    energy_l2: float
    energy_h1: float
    slack: float
    tail_energy: float
    elapsed_ms: float


def rayleigh_sweep(f: PeriodicFunction, ns) -> tuple:
    """Convergence table for the centered interpolants of f: one SweepRow per
    given n, in increasing order.

    Per n: samples f, centers by the sample mean, and records both interpolant
    energies, the discrete slack of the normalized sample vector, and the
    tail energy.  Energies converge to the integrals of f^2 and f'^2.
    """
    rows = []
    for n in sorted(set(int(n) for n in ns)):
        start = time.perf_counter()
        x = sample(f, n)
        mean = fsum(x) / n
        centered = x - mean
        e2 = energy_l2(centered)
        h1 = energy_h1(centered)
        u = _normalize_centered(centered)  # center_normalize(x), in centered's place
        d = u - np.roll(u, 1)
        # cos(2pi/n) - <u,Su>/<u,u> without subtracting two numbers near 1
        slack = fdot(d, d) / (2.0 * fdot(u, u)) - 2.0 * math.sin(math.pi / n) ** 2
        tail = _tail_of_samples(x)
        elapsed = (time.perf_counter() - start) * 1e3
        rows.append(
            SweepRow(
                n=n,
                mean=mean,
                energy_l2=e2,
                energy_h1=h1,
                slack=slack,
                tail_energy=tail,
                elapsed_ms=elapsed,
            )
        )
    return tuple(rows)


def fourier_discrete(f: PeriodicFunction, n: int, jmax: int) -> tuple:
    """Fourier coefficients (j, a_j, b_j), j = 1..jmax, of f from the projections
    of its samples onto the invariant planes H_j at grid size n.

    The paper projects the interpolant of the samples of f onto the
    interpolants of the sampled cos(jt), sin(jt), which span H_j, and divides
    by their common squared norm basis_norm(n, j):

        a_j = 3 <L_X, L_{cos j}> / (pi * (2 + cos(2*pi*j/n)))

    and the same for b_j with sin.  Against a vector of H_j the interpolant
    inner product is basis_norm(n, j) times the Euclidean one, so the norm
    cancels exactly: a_j = (2/n) <X, cos j> and b_j = (2/n) <X, sin j>.
    Both come from one real FFT of the samples taken from t = 0,
    a_j = (2/n) Re X_j and b_j = -(2/n) Im X_j.  Requires n >= 2*jmax + 2 so
    the first jmax harmonics occupy distinct blocks (aliasing guard).
    """
    _require_resolvable(n, jmax)
    # sample() starts at t_1; rolling puts f(t_n) = f(0) first
    spectrum = np.fft.rfft(np.roll(sample(f, n), 1))[1 : jmax + 1] * (2.0 / n)
    # 0.0 - imag, not -imag: a zero imaginary part gives b_j = 0.0, never "-0"
    coeffs = zip(range(1, jmax + 1), spectrum.real.tolist(), (0.0 - spectrum.imag).tolist())
    return tuple(coeffs)


def _require_resolvable(n: int, jmax: int) -> None:
    """fourier_discrete's guard: jmax >= 1, and the aliasing guard n >= 2*jmax + 2.
    The CLI runs it before it starts either column, so a usage error is not
    reported only after the quadrature has run."""
    if jmax < 1:
        raise InvalidSize(f"need jmax >= 1, got {jmax}")
    if n < 2 * jmax + 2:
        raise InvalidSize(f"need n >= 2*jmax+2 = {2 * jmax + 2} to resolve jmax={jmax}, got n={n}")


def fourier_quadrature(f: PeriodicFunction, jmax: int, tol: float = 1e-10) -> tuple:
    """Fourier coefficients (j, a_j, b_j), j = 1..jmax, by adaptive quadrature:
    a_j = (1/pi) * integral of f(t) cos(jt), b_j = (1/pi) * integral of f(t) sin(jt).

    HARMONIC_GROUP harmonics refine together, as rows of one integrand that evaluates
    f once per point, with the bits of one integral at a time; a group that fails is
    redone as one one-row integrand per integral, so it fails where and as those do."""
    if jmax < 1:
        raise InvalidSize(f"need jmax >= 1, got {jmax}")
    coeffs = []
    for start in range(1, jmax + 1, HARMONIC_GROUP):
        js = range(start, min(start + HARMONIC_GROUP, jmax + 1))
        try:  # f(t) cos(jt), f(t) sin(jt) for j in js, as rows
            sums = _period_integral(lambda t: _harmonic_rows(js, t, f.value(t)), tol)
        except QuadratureFailure:
            sums = None
        if sums is None:  # outside the handler, whose traceback would keep the failed frontier alive
            sums = [_period_integral(lambda t: (f.value(t) * trig(j * t))[None], tol)[0]
                    for j in js for trig in (np.cos, np.sin)]
        coeffs += [(j, a / math.pi, b / math.pi) for j, a, b in zip(js, sums[0::2], sums[1::2])]
    return tuple(coeffs)


def _harmonic_rows(js: range, t: np.ndarray, ft) -> np.ndarray:
    """The rows ft cos(jt), ft sin(jt) for j in js, as one (2 len(js), t.size)
    array: cos(jt) and sin(jt) are written into its (len(js), 2, t.size) layout,
    and ft, f's values at t, multiplied into it in place."""
    jt = np.array(js, dtype=float)[:, None] * t
    rows = np.empty((len(js), 2, t.size))
    np.cos(jt, out=rows[:, 0])
    np.sin(jt, out=rows[:, 1])
    rows *= ft
    return rows.reshape(-1, t.size)


def _period_integral(g: Callable[[np.ndarray], np.ndarray], tol: float) -> list:
    """The integrals over [0, 2*pi] of g's rows, one per row: PERIOD_PIECES equal
    pieces to absolute tol, one call each, summed with math.fsum."""
    pieces = np.array([adaptive_simpson(g, lo, hi, tol=tol / PERIOD_PIECES)
                       for lo, hi in zip(_EDGES, _EDGES[1:])])
    return [math.fsum(row) for row in pieces.T.tolist()]


def _trig_polynomial(terms, label: str) -> PeriodicFunction:
    """The trigonometric polynomial of the (j, a, b) terms."""
    # a (j, 0, 0) term would add a signed zero to a total that starts at +0.0: no bits change
    kept = tuple((j, float(a), float(b)) for j, a, b in terms if a != 0.0 or b != 0.0)
    return PeriodicFunction(value=_TrigSeries(kept).evaluate, label=label)


def partial_sum(table: tuple, order: int) -> PeriodicFunction:
    """Trigonometric polynomial summing the harmonics j <= `order` of a table of
    (j, a_j, b_j), j = 1..jmax, as fourier_discrete and fourier_quadrature give."""
    if not 0 <= order <= len(table):
        raise RangeError(f"order must lie in 0..{len(table)}, got {order}")
    kept = [(j, a, b) for j, a, b in table if j <= order]
    return _trig_polynomial(kept, label=f"partial_sum(J={order})")


def harmonic_mix(coefficients) -> PeriodicFunction:
    """Trigonometric polynomial from a flat list a1, b1, a2, b2, ..."""
    flat = [float(c) for c in coefficients]
    if not flat:
        raise ValueError("need at least one coefficient")
    if len(flat) % 2 == 1:
        flat.append(0.0)
    terms = zip(range(1, len(flat) // 2 + 1), flat[0::2], flat[1::2])
    label = "harmonics(" + ",".join(f"{c:g}" for c in flat) + ")"
    return _trig_polynomial(terms, label=label)


def _cubic_odd(t):
    # t(2*pi - t)(pi - t)/pi^3 on [0, 2*pi]: zero-mean, C^1 across the seam
    # (the slope is 2*pi^2/pi^3 at both ends), odd about t = pi.  On an array
    # % is np.remainder, which for a positive divisor gives Python's result.
    u = t % TWO_PI
    return u * (TWO_PI - u) * (math.pi - u) / math.pi**3


def named_function(name: str) -> PeriodicFunction:
    """Look up one of the bundled test functions by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown function {name!r}; available: {', '.join(sorted(_REGISTRY))}")


_REGISTRY = {
    "sin1": lambda: _trig_polynomial([(1, 0.0, 1.0)], label="sin1"),
    "cos1": lambda: _trig_polynomial([(1, 1.0, 0.0)], label="cos1"),
    "sin2": lambda: _trig_polynomial([(2, 0.0, 1.0)], label="sin2"),
    "mix13": lambda: _trig_polynomial([(1, 0.0, 1.0), (3, 0.5, 0.0)], label="mix13"),
    "cubicodd": lambda: PeriodicFunction(_cubic_odd, label="cubicodd"),
}

FUNCTION_NAMES = tuple(sorted(_REGISTRY))
