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
# 262,144 open intervals, for any number of components: a NaN integrand
# allocates 35.3 MiB at the peak (tracemalloc), and the failing
# `fourier_quadrature(harmonic_mix([0, 1e6]), 3)` 42.2 MiB.  The largest count
# a passing call of the tests, demos or benchmark takes is 352,136 (8
# components, inside the failing `fourier --harmonics=0,1e6 --n 16`), leaving
# aside one test that fills the budget on purpose; `fourier --fn cos1 --jmax 64
# --n 257` takes 262,160, and the largest one-component integral 205,041.  The forced depths' one call is checked
# after it returns, at depth MIN_DEPTH.
EVAL_BUDGET = 2**20
# Bisections forced before an interval may be accepted.  Guards against
# integrands that happen to vanish on the coarse dyadic grid (e.g.
# trigonometric products sampled at multiples of pi/2), which would
# otherwise pass the error test instantly.  One call evaluates their points.
MIN_DEPTH = 6

# Where the forced depths' points hold the 2**MIN_DEPTH intervals of depth
# MIN_DEPTH, one a column: their ends and middles as rows a, m, b, and their
# quarter-points as two rows
_ENDS = np.arange(0, 4 << MIN_DEPTH, 4) + np.array([[0], [2], [4]])
_MIDS = np.arange(0, 4 << MIN_DEPTH, 4) + np.array([[1], [3]])

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
    # The k open intervals of one depth, along the last axis: `x` holds their
    # ends and middles as rows a, m, b, `fx` f there, `q` the middles of their
    # halves [a, m] and [m, b] as two rows, `fq` f there, `whole` their Simpson
    # estimates, and `refining` the components that failed the error test on
    # every larger interval around them (True for a 1-D f); an interval is open
    # while one does.
    x, fx = t.take(_ENDS), values.take(_ENDS, axis=-1)
    q, fq = t.take(_MIDS), values.take(_MIDS, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _simpson(fx[..., 0, :], fx[..., 1, :], fx[..., 2, :], x[2] - x[0])
    for _ in range(MIN_DEPTH):
        tol = 0.5 * tol
    # per depth from MIN_DEPTH: the indices of the split intervals, every
    # interval's corrected estimate (estimate + err, which the collapse
    # overwrites at the split ones), and for rows the components that passed
    levels, depth, refining = [], MIN_DEPTH, True
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            halves = _simpson(fx[..., :2, :], fq, fx[..., 1:, :], x[1:] - x[:2])
            estimate = halves[..., 0, :] + halves[..., 1, :]
            err = (estimate - whole) / 15.0
            passed = np.abs(err) <= tol
            failed = refining > passed
            split = failed.any(axis=0) if rows else failed
            keep = split.nonzero()[0]
            estimate += err
            levels.append((keep, estimate, passed if rows else None))
            if not keep.size:
                break
            if depth >= MAX_DEPTH:
                i = keep[np.argmin(x[0].take(keep))]  # the one recursion meets first
                raise QuadratureFailure(f"tolerance {tol:.3e} unreachable on "
                                        f"[{x[0, i]:.6g}, {x[2, i]:.6g}] at depth {depth}")
            # the split intervals' halves, all left halves and then all right ones:
            # a, m, b of [a, m] and [m, b] are the rows a | m, q, m | b
            k = 2 * keep.size
            xk, fxk = x.take(keep, axis=1), fx.take(keep, axis=-1)
            x = np.concatenate((xk[:2], q.take(keep, axis=1), xk[1:])).reshape(3, k)
            fx = np.concatenate((fxk[..., :2, :], fq.take(keep, axis=-1), fxk[..., 1:, :]),
                                axis=-2).reshape(rows + (3, k))
            whole = halves.take(keep, axis=-1).reshape(rows + (k,))
            if rows:
                refining = failed.take(np.concatenate((keep, keep)), axis=1)
            q = 0.5 * (x[:2] + x[1:])
        tol = 0.5 * tol
        depth += 1
        _check_budget(evals + 2 * k * components, depth, k)
        points = q.reshape(-1)  # the left halves' middles, then the right halves'
        fq = _shaped(f(points), points, rows).reshape(rows + (2, k))
        evals += fq.size

    # Collapse bottom-up, in place: a split interval's value is its left
    # half's plus its right half's, which lie in the two halves of the next
    # depth's values, and is written over its estimate.  For rows, a component
    # that passed on a split interval keeps its own estimate; below that
    # interval it no longer refines, and its values there are never read.  The
    # deepest depth splits nothing.  The forced depths split every interval,
    # and their intervals are in order, so each value is the sum of the next
    # depth's pair.
    below = levels.pop()[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for keep, value, passed in reversed(levels):
            sums = below[..., : keep.size] + below[..., keep.size :]
            if passed is not None:
                np.copyto(sums, value.take(keep, axis=-1), where=passed.take(keep, axis=-1))
            value[..., keep] = sums
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
