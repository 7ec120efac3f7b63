"""Adaptive Simpson quadrature with interval bisection.

Kept deliberately simple: smooth (or piecewise-smooth) periodic integrands
at desk scale, absolute tolerance, Richardson-corrected estimates.
Refinement is breadth-first: every open interval of one depth is bisected
together, with one call of the integrand on an array of all their new
points (Gander & Gautschi, BIT 40 (2000)).  Several integrals, given as
arrays of bounds, or as the rows of one integrand, refine in one such
frontier and share its budget.
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
# benchmark takes is 262,160 (`fourier --fn cos1 --jmax 64`).  The intervals
# of a batch share one budget, so its memory is bounded as one call's; a
# batch that runs out redoes each interval alone, with a budget of its own,
# so it passes and fails exactly where its intervals do alone.
EVAL_BUDGET = 2**20
# Bisections forced before an interval may be accepted.  Guards against
# integrands that happen to vanish on the coarse dyadic grid (e.g.
# trigonometric products sampled at multiples of pi/2), which would
# otherwise pass the error test instantly.
MIN_DEPTH = 6

_CONTRACT = "must take a 1-D float array and return values of the same shape"


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float | np.ndarray,
                     b: float | np.ndarray, tol: float = 1e-10) -> float | np.ndarray:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Each interval is accepted or bisected by the same rule, and its pieces
    summed in the same order, as a depth-first recursion that adds the left
    half's integral to the right half's, so the result has that recursion's
    bits.

    Args:
        f: Integrand, evaluated elementwise: it takes a 1-D float array t and
            returns values of the same shape (a scalar result is taken as
            a constant), or c components of shape (c, t.size).  It is called
            once for the ends and the middles of the intervals, then once
            per depth level.
        a: Lower bound, or a 1-D array of lower bounds.
        b: Upper bound, or a 1-D array of upper bounds of a's length.
        tol: Absolute error tolerance of each integral, halved at each
            subdivision.

    Returns:
        The integral estimate (with Richardson correction); for arrays, an
        array of one estimate per interval [a[i], b[i]], with the bits of
        adaptive_simpson(f, a[i], b[i], tol).  All intervals refine in one
        frontier and share one EVAL_BUDGET; if it runs out, or an interval
        misses its tolerance, each interval is redone alone, in order, so
        exactly the intervals that fail alone fail, with the same message.
        For c components, c such results as rows: each component accepts or
        bisects by its own test, so row i has the bits of component i alone;
        sharing the budget, together they may fail where each alone passes.

    Raises:
        TypeError: If f does not take an array, as a scalar-only callable
            such as math.sin does not.
        ValueError: If a and b are not scalars or 1-D arrays of one length.
        QuadratureFailure: If an interval still misses its tolerance at
            MAX_DEPTH, or the open intervals need more than EVAL_BUDGET
            values.
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if lo.shape != hi.shape or lo.ndim > 1:
        raise ValueError(f"bounds must be scalars or 1-D arrays of one length, "
                         f"got shapes {lo.shape} and {hi.shape}")
    if lo.ndim == 0:
        value = _integrals(f, lo[None], hi[None], tol)[..., 0]
        return value if value.ndim else float(value)
    try:
        return _integrals(f, lo, hi, tol)
    except QuadratureFailure:
        if lo.size == 1:
            raise
    # outside the handler, whose traceback would keep the failed frontier alive
    return np.concatenate([_integrals(f, lo[i : i + 1], hi[i : i + 1], tol)
                           for i in range(lo.size)], axis=-1)


def _integrals(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The integrals over [a[i], b[i]], refined in one frontier: one per
    interval, or a row of them per component of f."""
    flip = a > b  # the negated integral over [b, a]
    live = np.flatnonzero(a != b)
    lo, hi = np.where(flip, b, a)[live], np.where(flip, a, b)[live]
    k = live.size
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        ends = np.concatenate((lo, 0.5 * (lo + hi), hi))
    # one first call on the lower ends, the middles and the upper ends: [a, m, b] for one
    # (on no points if no interval is live: it tells f's rows)
    first = _first_call(f, ends, rows=True)
    rows = first.shape[:-1]  # (c,) for c components
    evals, components = first.size, int(np.prod(rows))
    # The open intervals of one depth, along the last axis: `ends2` holds the
    # ends of all their left halves, then of all their right halves, [lo | mid]
    # and [mid | hi], `fends2` f there, `whole` their Simpson estimates, and
    # `refining` the components that failed the error test on every larger
    # interval around them (True for a 1-D f); an interval is open while one does.
    ends2 = np.concatenate((ends[: 2 * k], ends[k:]))
    fends2 = np.concatenate((first[..., : 2 * k], first[..., k:]), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _simpson(first[..., :k], first[..., k : 2 * k], first[..., 2 * k :], hi - lo)
        quarters = 0.5 * (ends2[: 2 * k] + ends2[2 * k :])
    # per depth: the split intervals, the components that passed and their values
    levels, depth, refining = [], 0, True
    while k:
        if evals + 2 * k * components > EVAL_BUDGET:
            raise QuadratureFailure(
                f"evaluation budget {EVAL_BUDGET} exhausted at depth {depth} "
                f"with {k} open intervals")
        fm2 = _shaped(f(quarters), quarters, rows)
        evals += fm2.size
        with np.errstate(over="ignore", invalid="ignore"):
            a2, b2 = ends2[: 2 * k], ends2[2 * k :]
            fa2, fb2 = fends2[..., : 2 * k], fends2[..., 2 * k :]
            halves = _simpson(fa2, fm2, fb2, b2 - a2)
            estimate = halves[..., :k] + halves[..., k:]
            err = (estimate - whole) / 15.0
            passed = np.abs(err) <= tol if depth >= MIN_DEPTH else np.zeros(err.shape, bool)
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

    # Collapse bottom-up: a split interval's value is its left half's plus its
    # right half's, which lie in the two halves of the next depth's values.  A
    # component that passed takes its own value instead; below that interval it
    # no longer refines, and its values there are never read.
    below = np.empty(rows + (0,))
    with np.errstate(over="ignore", invalid="ignore"):
        for split, passed, accepted in reversed(levels):
            value = np.zeros(passed.shape)
            m = below.shape[-1] // 2
            value[..., split] = below[..., :m] + below[..., m:]
            value[passed] = accepted
            below = value
    values = np.zeros(rows + a.shape)
    values[..., live] = np.where(flip[live], -below, below)
    return values


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
