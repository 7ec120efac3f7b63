"""Adaptive Simpson quadrature with interval bisection.

Kept deliberately simple: smooth (or piecewise-smooth) periodic integrands
at desk scale, absolute tolerance, Richardson-corrected estimates.
Refinement is breadth-first: the points of the forced depths take one call
of the integrand, then every open interval of one depth is bisected
together, with one call on an array of all their new points (Gander &
Gautschi, BIT 40 (2000)).  Several integrals, given as the rows of one
integrand, refine in one such frontier and share its budget.
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
# Integrand values (points times components) allowed per call.  Where the
# error test fails about everywhere (a tolerance at the integrand's rounding
# level) every depth doubles the open intervals, and breadth-first refinement
# would widen the whole frontier long before any interval reaches MAX_DEPTH.
# The budget stops a frontier that doubles at every depth at depth 18, with
# 262,144 open intervals and 50 MiB allocated at the peak, for any number of
# components.  The largest count a passing call of the tests, demos or
# benchmark takes is 262,160 (`fourier --fn cos1 --jmax 64`).  The forced
# depths' one call is checked after it returns, at depth MIN_DEPTH.
EVAL_BUDGET = 2**20
# Bisections forced before an interval may be accepted.  Guards against
# integrands that happen to vanish on the coarse dyadic grid (e.g.
# trigonometric products sampled at multiples of pi/2), which would
# otherwise pass the error test instantly.  One call evaluates their points.
MIN_DEPTH = 6

_CONTRACT = "must take a 1-D float array and return values of the same shape"


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-10) -> float | np.ndarray:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Each interval is accepted or bisected by the same rule, and its pieces
    summed in the same order, as a depth-first recursion that adds the left
    half's integral to the right half's, so the result has that recursion's
    bits.

    Args:
        f: Integrand, evaluated elementwise: it takes a 1-D float array t and
            returns values of the same shape (a scalar result is taken as
            a constant), or c components of shape (c, t.size).  It is called
            once on the 4 * 2**MIN_DEPTH + 1 points that bisection reaches
            through depth MIN_DEPTH, then once per deeper level with an
            interval still open.
        a: Lower bound.
        b: Upper bound.
        tol: Absolute error tolerance of the integral, halved at each
            subdivision.

    Returns:
        The integral estimate (with Richardson correction).  For c
        components, c such integrals as an array: each component accepts or
        bisects by its own test, so entry i has the bits of component i
        alone; sharing the budget, together they may fail where each alone
        passes.

    Raises:
        TypeError: If f does not take an array, as a scalar-only callable
            such as math.sin does not.
        ValueError: If a or b is not a scalar.
        QuadratureFailure: If an interval still misses its tolerance at
            MAX_DEPTH, or the open intervals need more than EVAL_BUDGET
            values.
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if lo.ndim or hi.ndim:
        raise ValueError(f"bounds must be scalars, got shapes {lo.shape} and {hi.shape}; "
                         f"for 1-D arrays of one length, integrate one interval per call")
    if lo == hi:  # f's rows from a call on no points
        value = np.zeros(_first_call(f, np.empty(0), rows=True).shape[:-1])
    else:
        flip = lo > hi  # the negated integral over [b, a]
        value = _integral(f, *((hi, lo) if flip else (lo, hi)), tol)
        value = -value if flip else value
    return value if value.ndim else float(value)


def _integral(f, lo, hi, tol: float) -> np.ndarray:
    """The integral over [lo, hi], lo < hi, as an array of f's rows."""
    # The forced depths split every interval: their points are the recursive
    # midpoints of [lo, hi], the 2**MIN_DEPTH intervals of depth MIN_DEPTH in
    # order with their middles and quarter-points.
    t = np.empty((4 << MIN_DEPTH) + 1)
    t[0], t[-1] = lo, hi
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        for depth in range(MIN_DEPTH + 2):
            step = (t.size - 1) >> depth
            t[step // 2 :: step] = 0.5 * (t[:-1:step] + t[step::step])
    values = _first_call(f, t, rows=True)
    rows = values.shape[:-1]  # (c,) for c components
    evals, components = values.size, int(np.prod(rows))
    _check_budget(evals, MIN_DEPTH, 1 << MIN_DEPTH)
    # The open intervals of one depth, along the last axis: `ends2` holds the
    # ends of all their left halves, then of all their right halves, [lo | mid]
    # and [mid | hi], `fends2` f there, `fm2` f at the halves' middles, `whole`
    # their Simpson estimates, and `refining` the components that failed the
    # error test on every larger interval around them (True for a 1-D f); an
    # interval is open while one does.
    j = np.arange(0, t.size - 1, 4)  # the first points of the intervals of depth MIN_DEPTH
    k = j.size
    ends = np.concatenate((j, j + 2, j + 2, j + 4))
    ends2, fends2 = t.take(ends), values.take(ends, axis=-1)
    mids = np.concatenate((j + 1, j + 3))
    quarters, fm2 = t.take(mids), values.take(mids, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _simpson(fends2[..., :k], fends2[..., k : 2 * k], fends2[..., 3 * k :],
                         ends2[3 * k :] - ends2[:k])
    for _ in range(MIN_DEPTH):
        tol = 0.5 * tol
    # per depth from MIN_DEPTH: the split intervals, the components that passed and their values
    levels, depth, refining = [], MIN_DEPTH, True
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            a2, b2 = ends2[: 2 * k], ends2[2 * k :]
            fa2, fb2 = fends2[..., : 2 * k], fends2[..., 2 * k :]
            halves = _simpson(fa2, fm2, fb2, b2 - a2)
            estimate = halves[..., :k] + halves[..., k:]
            err = (estimate - whole) / 15.0
            passed = np.abs(err) <= tol
            failed = refining > passed
            split = failed.any(axis=0) if rows else failed
            levels.append((split, passed, (estimate + err)[passed]))
            if depth >= MAX_DEPTH and split.any():
                i = np.flatnonzero(split)[np.argmin(a2[:k][split])]  # the one recursion meets first
                raise QuadratureFailure(f"tolerance {tol:.3e} unreachable on "
                                        f"[{a2[i]:.6g}, {b2[k + i]:.6g}] at depth {depth}")
            # the split intervals' halves, out of the 2k halves and out of 4 such blocks
            keep4 = np.flatnonzero(np.concatenate((split,) * 8))
            keep2 = keep4[: keep4.size // 4]
            ends2 = np.concatenate((a2, quarters, quarters, b2)).take(keep4)
            fends2 = np.concatenate((fa2, fm2, fm2, fb2), axis=-1).take(keep4, axis=-1)
            whole = halves.take(keep2, axis=-1)
            if rows:
                refining = np.concatenate((failed, failed), axis=1).take(keep2, axis=1)
            k = keep2.size
            quarters = 0.5 * (ends2[: 2 * k] + ends2[2 * k :])
        tol = 0.5 * tol
        depth += 1
        if not k:
            break
        _check_budget(evals + 2 * k * components, depth, k)
        fm2 = _shaped(f(quarters), quarters, rows)
        evals += fm2.size

    # Collapse bottom-up: a split interval's value is its left half's plus its
    # right half's, which lie in the two halves of the next depth's values.  A
    # component that passed takes its own value instead; below that interval it
    # no longer refines, and its values there are never read.  The forced
    # depths split every interval, and their intervals are in order, so each
    # value is the sum of the next depth's pair.
    below = np.empty(rows + (0,))
    with np.errstate(over="ignore", invalid="ignore"):
        for split, passed, accepted in reversed(levels):
            value = np.zeros(passed.shape)
            m = below.shape[-1] // 2
            value[..., split] = below[..., :m] + below[..., m:]
            value[passed] = accepted
            below = value
        for _ in range(MIN_DEPTH):
            below = below[..., 0::2] + below[..., 1::2]
    return below[..., 0]


def _check_budget(evals: int, depth: int, k: int) -> None:
    if evals > EVAL_BUDGET:
        raise QuadratureFailure(f"evaluation budget {EVAL_BUDGET} exhausted at depth {depth} "
                                f"with {k} open intervals")


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _shaped(values, t: np.ndarray, rows: tuple = ()) -> np.ndarray:
    """A function's values on t as a float array of shape rows + t.shape; a
    scalar result is broadcast."""
    values = np.asarray(values, dtype=float)
    if values.shape != rows + t.shape:
        if values.ndim:
            raise TypeError(f"the function {_CONTRACT}: got shape {values.shape} "
                            f"for {t.size} points")
        values = np.full(rows + t.shape, values)
    return values


def _first_call(f, t: np.ndarray, rows: bool = False) -> np.ndarray:
    """f(t), shaped, as rows if asked and f returns them, where a scalar-only
    callable (math.sin, or a test such as `t < c` on the argument) raises on
    the array: that becomes a TypeError that says what is asked of f."""
    try:
        values = f(t)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"the function {_CONTRACT}; on an array it raised "
                        f"{type(exc).__name__}: {exc}") from exc
    values = np.asarray(values, dtype=float)
    return _shaped(values, t, values.shape[:1] if rows and values.ndim == 2 else ())
