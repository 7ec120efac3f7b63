"""Adaptive Simpson quadrature with interval bisection.

Kept deliberately simple: smooth (or piecewise-smooth) periodic integrands
at desk scale, absolute tolerance, Richardson-corrected estimates.
"""

from collections.abc import Callable

from .errors import QuadratureFailure

# Maximum bisection depth.  On an interval containing a kink the error
# estimate shrinks by 4 per level while the tolerance only halves, so the
# ratio closes one bit per level and tight tolerances can need close to 50
# levels.  52 halvings take the width down to the spacing of doubles, past
# which no new midpoints are representable, so deeper recursion cannot
# refine anything.
MAX_DEPTH = 52
# Bisections forced before an interval may be accepted.  Guards against
# integrands that happen to vanish on the coarse dyadic grid (e.g.
# trigonometric products sampled at multiples of pi/2), which would
# otherwise pass the error test instantly.
MIN_DEPTH = 6


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Args:
        f: Integrand.
        a: Lower bound.
        b: Upper bound.
        tol: Absolute error tolerance, halved at each subdivision.

    Returns:
        The integral estimate (with Richardson correction).

    Raises:
        QuadratureFailure: If an interval still misses its tolerance at
            MAX_DEPTH.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if depth >= MIN_DEPTH and abs(err) <= tol:
            return left + right + err
        if depth >= MAX_DEPTH:
            raise QuadratureFailure(
                f"tolerance {tol:.3e} unreachable on [{lo:.6g}, {hi:.6g}] at depth {depth}"
            )
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * tol, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * tol, depth + 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)
