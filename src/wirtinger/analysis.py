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
from .quadrature import adaptive_simpson
# build_basis is no longer called here; the binding stays because
# bench/test_bench.py checks that the tracer rebinds it in this module
from .spectral import block_energies, build_basis  # noqa: F401

PROBE_POINTS = 17
PERIODICITY_TOL = 1e-10
DERIVATIVE_PROBE_STEP = 1e-5
DERIVATIVE_PROBE_TOL = 1e-6


@dataclass(frozen=True)
class PeriodicFunction:
    """A 2*pi-periodic C^1 function with its derivative.

    Construction probes periodicity of both callables and checks the
    derivative against central differences at a few points, so mismatched
    user input fails fast instead of polluting convergence tables.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    label: str = ""

    def __post_init__(self):
        probes = TWO_PI * (np.arange(PROBE_POINTS) + 0.31) / PROBE_POINTS
        for t in probes:
            v = self.value(t)
            if abs(self.value(t + TWO_PI) - v) > PERIODICITY_TOL:
                raise ValueError(f"value is not 2*pi-periodic at t={t:.6g}")
            d = self.derivative(t)
            if abs(self.derivative(t + TWO_PI) - d) > PERIODICITY_TOL:
                raise ValueError(f"derivative is not 2*pi-periodic at t={t:.6g}")
            h = DERIVATIVE_PROBE_STEP
            central = (self.value(t + h) - self.value(t - h)) / (2.0 * h)
            if abs(central - d) > DERIVATIVE_PROBE_TOL:
                raise ValueError(
                    f"derivative disagrees with central differences at t={t:.6g}: "
                    f"{d:.10g} vs {central:.10g}"
                )


def sample(f: PeriodicFunction, n: int) -> np.ndarray:
    """Sample vector x_j = f(2*pi*j/n), j = 1..n."""
    _require_size(n)
    out = np.fromiter((f.value(TWO_PI * j / n) for j in range(1, n + 1)), dtype=float, count=n)
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
        a = adaptive_simpson(lambda t: f.value(t) * math.cos(j * t), 0.0, TWO_PI, tol=tol) / math.pi
        b = adaptive_simpson(lambda t: f.value(t) * math.sin(j * t), 0.0, TWO_PI, tol=tol) / math.pi
        coeffs.append((j, a, b))
    return FourierTable(coefficients=tuple(coeffs), method="quadrature")


def _trig_series(terms: tuple) -> Callable[[float], float]:
    """t -> sum of a*cos(j t) + b*sin(j t) over the (j, a, b) terms."""

    def evaluate(t: float) -> float:
        total = 0.0
        for j, a, b in terms:
            total += a * math.cos(j * t) + b * math.sin(j * t)
        return total

    return evaluate


def _trig_polynomial(terms, label: str) -> PeriodicFunction:
    """The trigonometric polynomial of the (j, a, b) terms, with its derivative."""
    terms = tuple((j, float(a), float(b)) for j, a, b in terms)
    slopes = tuple((j, j * b, -j * a) for j, a, b in terms)
    return PeriodicFunction(value=_trig_series(terms), derivative=_trig_series(slopes), label=label)


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


def _cubic_odd() -> PeriodicFunction:
    # t(2*pi - t)(pi - t)/pi^3 on [0, 2*pi]: zero-mean, C^1 across the seam
    # (the slope is 2*pi^2/pi^3 at both ends), odd about t = pi.
    scale = math.pi**3

    def value(t: float) -> float:
        u = t % TWO_PI
        return u * (TWO_PI - u) * (math.pi - u) / scale

    def derivative(t: float) -> float:
        u = t % TWO_PI
        return (2.0 * math.pi**2 - 6.0 * math.pi * u + 3.0 * u * u) / scale

    return PeriodicFunction(value=value, derivative=derivative, label="cubicodd")


def named_function(name: str) -> PeriodicFunction:
    """Look up one of the bundled test functions by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown function {name!r}; available: {', '.join(sorted(_REGISTRY))}")


_REGISTRY = {
    "sin1": lambda: PeriodicFunction(math.sin, math.cos, label="sin1"),
    "cos1": lambda: PeriodicFunction(math.cos, lambda t: -math.sin(t), label="cos1"),
    "sin2": lambda: PeriodicFunction(
        lambda t: math.sin(2.0 * t), lambda t: 2.0 * math.cos(2.0 * t), label="sin2"
    ),
    "mix13": lambda: PeriodicFunction(
        lambda t: math.sin(t) + 0.5 * math.cos(3.0 * t),
        lambda t: math.cos(t) - 1.5 * math.sin(3.0 * t),
        label="mix13",
    ),
    "cubicodd": _cubic_odd,
}

FUNCTION_NAMES = tuple(sorted(_REGISTRY))
