"""Sampling pipeline: convergence sweeps, tail-energy diagnostic, Fourier recovery.

Sampling a 2*pi-periodic C^1 function at t_j = 2*pi*j/n and feeding the
piecewise-linear machinery recovers the classical zero-mean inequality
(integral of f^2 <= integral of f'^2) in the n -> infinity limit, and the
block projections recover the Fourier coefficients of f.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, _require_size, center_normalize, fdot, fsum
from .errors import InvalidSize, NonFinite, RangeError
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
# whole periods of their aliases, so near-multiples would go wrong.
PERIOD_PIECES = 5
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
            total += a * np.cos(j * t) + b * np.sin(j * t)
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
    energies = block_energies(x)
    return math.fsum(e for k, e in energies.items() if k >= 2) / x.size


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean: float
    energy_l2: float
    energy_h1: float
    slack: float
    tail_energy: float
    elapsed_ms: float


@dataclass(frozen=True)
class ConvergenceReport:
    label: str
    rows: tuple = field(default_factory=tuple)


def rayleigh_sweep(f: PeriodicFunction, ns) -> ConvergenceReport:
    """Convergence table for the centered interpolants of f over the given n.

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
        u = center_normalize(x)
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
    return ConvergenceReport(label=f.label, rows=tuple(rows))


@dataclass(frozen=True)
class FourierTable:
    """Coefficients (j, a_j, b_j) for j = 1..jmax, plus how they were obtained."""

    coefficients: tuple
    method: str  # "discrete-projection" or "quadrature"

    @property
    def jmax(self) -> int:
        return max(j for j, _, _ in self.coefficients)

    def coefficient(self, j: int) -> tuple[float, float]:
        for jj, a, b in self.coefficients:
            if jj == j:
                return a, b
        raise RangeError(f"no coefficient j={j} in table (jmax={self.jmax})")


def fourier_discrete(f: PeriodicFunction, n: int, jmax: int) -> FourierTable:
    """Fourier coefficients of f from the projections of its samples onto the
    invariant planes H_j at grid size n.

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
    if jmax < 1:
        raise InvalidSize(f"need jmax >= 1, got {jmax}")
    if n < 2 * jmax + 2:
        raise InvalidSize(f"need n >= 2*jmax+2 = {2 * jmax + 2} to resolve jmax={jmax}, got n={n}")
    # sample() starts at t_1; rolling puts f(t_n) = f(0) first
    spectrum = np.fft.rfft(np.roll(sample(f, n), 1))[1 : jmax + 1] * (2.0 / n)
    # 0.0 - imag, not -imag: a zero imaginary part gives b_j = 0.0, never "-0"
    coeffs = zip(range(1, jmax + 1), spectrum.real.tolist(), (0.0 - spectrum.imag).tolist())
    return FourierTable(coefficients=tuple(coeffs), method="discrete-projection")


def fourier_quadrature(f: PeriodicFunction, jmax: int, tol: float = 1e-10) -> FourierTable:
    """Fourier coefficients a_j = (1/pi) * integral of f(t) cos(jt),
    b_j = (1/pi) * integral of f(t) sin(jt), by adaptive quadrature."""
    if jmax < 1:
        raise InvalidSize(f"need jmax >= 1, got {jmax}")
    coeffs = []
    for j in range(1, jmax + 1):
        a = _period_integral(lambda t: f.value(t) * np.cos(j * t), tol) / math.pi
        b = _period_integral(lambda t: f.value(t) * np.sin(j * t), tol) / math.pi
        coeffs.append((j, a, b))
    return FourierTable(coefficients=tuple(coeffs), method="quadrature")


def _period_integral(g: Callable[[np.ndarray], np.ndarray], tol: float) -> float:
    """Integral of g over [0, 2*pi], in PERIOD_PIECES equal pieces, to absolute tol."""
    edges = [TWO_PI * i / PERIOD_PIECES for i in range(PERIOD_PIECES + 1)]
    return math.fsum(adaptive_simpson(g, lo, hi, tol=tol / PERIOD_PIECES)
                     for lo, hi in zip(edges, edges[1:]))


def _trig_polynomial(terms, label: str) -> PeriodicFunction:
    """The trigonometric polynomial of the (j, a, b) terms."""
    # a (j, 0, 0) term would add a signed zero to a total that starts at +0.0: no bits change
    kept = tuple((j, float(a), float(b)) for j, a, b in terms if a != 0.0 or b != 0.0)
    return PeriodicFunction(value=_TrigSeries(kept).evaluate, label=label)


def partial_sum(table: FourierTable, order: int) -> PeriodicFunction:
    """Trigonometric polynomial summing the table's harmonics up to `order`."""
    if not 0 <= order <= table.jmax:
        raise RangeError(f"order must lie in 0..{table.jmax}, got {order}")
    kept = [(j, a, b) for j, a, b in table.coefficients if j <= order]
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
