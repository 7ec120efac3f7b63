"""Adaptive Simpson quadrature with interval bisection.

Kept deliberately simple: smooth (or piecewise-smooth) periodic integrands
at desk scale, absolute tolerance, Richardson-corrected estimates.
Refinement is breadth-first: every open interval of one depth is bisected
together, with one call of the integrand on an array of all their new
points (Gander & Gautschi, BIT 40 (2000)).
"""

from collections.abc import Callable

import numpy as np

from .errors import QuadratureFailure

# Maximum bisection depth.  On an interval containing a kink the error
# estimate shrinks by 4 per level while the tolerance only halves, so the
# ratio closes one bit per level and tight tolerances can need close to 50
# levels.  52 halvings take the width down to the spacing of doubles, past
# which no new midpoints are representable, so deeper recursion cannot
# refine anything.
MAX_DEPTH = 52
# Integrand evaluations allowed per call.  Where the error test fails about
# everywhere (a tolerance at the integrand's rounding level) every depth
# doubles the open intervals, and breadth-first refinement would widen the
# whole frontier long before any interval reaches MAX_DEPTH.  The budget
# stops a frontier that doubles at every depth at depth 18, with 262,144 open
# intervals and 50 MiB allocated at the peak.  The largest count a passing
# integral of the tests, demos or benchmark takes is 205,041.
EVAL_BUDGET = 2**20
# Bisections forced before an interval may be accepted.  Guards against
# integrands that happen to vanish on the coarse dyadic grid (e.g.
# trigonometric products sampled at multiples of pi/2), which would
# otherwise pass the error test instantly.
MIN_DEPTH = 6

_CONTRACT = "must take a 1-D float array and return values of the same shape"


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-10) -> float:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Each interval is accepted or bisected by the same rule, and its pieces
    summed in the same order, as a depth-first recursion that adds the left
    half's integral to the right half's, so the result has that recursion's
    bits.

    Args:
        f: Integrand, evaluated elementwise: it takes a 1-D float array and
            returns values of the same shape (a scalar result is taken as
            a constant).  It is called once for the ends and the middle of
            [a, b], then once per depth level.
        a: Lower bound.
        b: Upper bound.
        tol: Absolute error tolerance, halved at each subdivision.

    Returns:
        The integral estimate (with Richardson correction).

    Raises:
        TypeError: If f does not take an array, as a scalar-only callable
            such as math.sin does not.
        QuadratureFailure: If an interval still misses its tolerance at
            MAX_DEPTH, or the open intervals need more than EVAL_BUDGET
            evaluations.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)

    ends = np.array([a, 0.5 * (a + b), b])
    fa, fm, fb = _first_call(f, ends)
    evals = ends.size
    # The open intervals of one depth, as rows: their ends, the integrand at
    # their ends and middles, and their whole-interval Simpson estimates.
    lo, hi = ends[:1], ends[2:]
    flo, fmid, fhi = np.array([fa]), np.array([fm]), np.array([fb])
    whole = _simpson(flo, fmid, fhi, hi - lo)
    # per depth: which intervals were accepted, and their values
    levels = []
    depth = 0
    while lo.size:
        k = lo.size
        if evals + 2 * k > EVAL_BUDGET:
            raise QuadratureFailure(
                f"evaluation budget {EVAL_BUDGET} exhausted at depth {depth} "
                f"with {k} open intervals")
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
            mid = 0.5 * (lo + hi)
            # the halves: all left halves, then all right halves
            a2, b2, fa2, fb2 = np.array((lo, mid, mid, hi, flo, fmid, fmid, fhi)).reshape(4, 2 * k)
            quarters = 0.5 * (a2 + b2)
        fm2 = _shaped(f(quarters), quarters)
        evals += fm2.size
        with np.errstate(over="ignore", invalid="ignore"):
            halves = _simpson(fa2, fm2, fb2, b2 - a2)
            estimate = halves[:k] + halves[k:]
            err = (estimate - whole) / 15.0
            if depth >= MIN_DEPTH:
                done = np.abs(err) <= tol
            else:
                done = np.zeros(k, dtype=bool)
            levels.append((done, estimate[done] + err[done]))
        split = ~done
        if depth >= MAX_DEPTH and split.any():
            i = np.flatnonzero(split)[np.argmin(lo[split])]  # the one recursion meets first
            raise QuadratureFailure(
                f"tolerance {tol:.3e} unreachable on [{lo[i]:.6g}, {hi[i]:.6g}] at depth {depth}"
            )
        halved = np.array((a2, b2, fa2, fm2, fb2, halves))[:, np.concatenate((split, split))]
        lo, hi, flo, fmid, fhi, whole = halved
        tol = 0.5 * tol
        depth += 1

    # Collapse bottom-up: a split interval's value is its left half's plus its
    # right half's, which lie in the two halves of the next depth's values.
    below = np.empty(0)
    for done, accepted in reversed(levels):
        value = np.empty(done.size)
        value[done] = accepted
        m = below.size // 2
        value[~done] = below[:m] + below[m:]
        below = value
    return float(below[0])


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _shaped(values, t: np.ndarray) -> np.ndarray:
    """A function's values on t as a float array of t's shape; a scalar
    result is broadcast."""
    values = np.asarray(values, dtype=float)
    if values.shape != t.shape:
        if values.ndim:
            raise TypeError(f"the function {_CONTRACT}: got shape {values.shape} "
                            f"for {t.size} points")
        values = np.full(t.shape, values)
    return values


def _first_call(f, t: np.ndarray) -> np.ndarray:
    """f(t), shaped, where a scalar-only callable (math.sin, or a test such
    as `t < c` on the argument) raises on the array: that becomes a
    TypeError that says what is asked of f."""
    try:
        values = f(t)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"the function {_CONTRACT}; on an array it raised "
                        f"{type(exc).__name__}: {exc}") from exc
    return _shaped(values, t)
