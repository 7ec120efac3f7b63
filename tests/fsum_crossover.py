"""Time fsum_rows' two routes on the shapes that set its entry threshold.

Usage: python tests/fsum_crossover.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script); its `src/` is imported.  For every shape (m rows of n entries) of
the crossover table above `core.FSUM_ROWS_MIN_ENTRIES`, the script times
`fsum_rows` with the threshold patched to 0 (every array takes the
whole-array route) and to infinity (every row goes through math.fsum), best
of 7 rounds each, and prints one line per shape:

    m n route whole_us rows_us scratch_us squared centered squared_left centered_left

`whole_us` and `rows_us` are the two routes' times on squared Gaussian rows,
whose sums the whole-array route certifies, and `squared` is their ratio,
whole-array time over row-by-row time.  On verify's 205-row draws,
`scratch_us` is the whole-array route's time on the same rows with a
preallocated scratch, as `random_unit_zero_mean_rows` passes it (`-` on
the other shapes).  `centered` is that ratio on
Gaussian rows less their mean, whose sums cancel, so that the whole-array
route sends most rows on to math.fsum.  `squared_left` and `centered_left`
count the rows that the whole-array route leaves to math.fsum on each.
`route` is the one `fsum_rows` takes at that shape with the threshold as
committed.  The script checks that both routes, each with and without a
scratch, give the same bits on each array and on its copy with the columns
reversed, and asserts nothing about the timings.  Kept out of pytest's collection by its name.  Takes about 6 s.
"""

import math
import sys
import timeit
from pathlib import Path

import numpy as np

# (m, n): one long row, few long rows (canonical_residuals' 5 rows), a few
# short ones, and verify's 205-row draws at the smallest, middle and largest sizes
SHAPES = [(1, 1024), (1, 2048), (1, 4096), (1, 16384), (2, 1024),
          (5, 160), (5, 256), (5, 410), (5, 512), (10, 160),
          (20, 32), (20, 160), (205, 4), (205, 9), (205, 10), (205, 20),
          (205, 80), (205, 160)]
ROUNDS = 7
ROUND_SECONDS = 0.02


def _best_us(f) -> float:
    """Best time of one call of f over ROUNDS rounds, in microseconds."""
    number = max(1, int(ROUND_SECONDS / max(timeit.timeit(f, number=1), 1e-7)))
    return min(timeit.repeat(f, number=number, repeat=ROUNDS)) / number * 1e6


def main(argv: list) -> int:
    if len(argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[1] if len(argv) == 2 else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(root.resolve() / "src"))
    from wirtinger import core

    threshold = core.FSUM_ROWS_MIN_ENTRIES
    print(f"# FSUM_ROWS_MIN_ENTRIES = {threshold}")
    print("# m n route whole_us rows_us scratch_us squared centered squared_left centered_left")
    rng = np.random.default_rng(2048)
    fsum = math.fsum
    for m, n in SHAPES:
        gaussian = rng.standard_normal((m, n))
        scratch = np.full((m, n), math.nan)
        times, left = [], []
        for x in (gaussian**2, gaussian - gaussian.mean(axis=1, keepdims=True)):
            outputs = []
            for entries in (0, math.inf):  # the whole-array route, then row by row
                core.FSUM_ROWS_MIN_ENTRIES = entries
                times.append(_best_us(lambda: core.fsum_rows(x)))
                outputs += [core.fsum_rows(v).tobytes() for v in (x, x[:, ::-1])]
                outputs += [core.fsum_rows(v, scratch).tobytes() for v in (x, x[:, ::-1])]
            calls = []
            core.FSUM_ROWS_MIN_ENTRIES = 0
            math.fsum = lambda row: calls.append(1) or fsum(row)
            try:
                core.fsum_rows(x)
            finally:
                math.fsum = fsum
                core.FSUM_ROWS_MIN_ENTRIES = threshold
            left.append(len(calls))
            if len(set(outputs)) != 1:  # the sums are correctly rounded in any order
                print(f"fsum_rows' routes or column orders differ at ({m}, {n})", file=sys.stderr)
                return 1
        scratch_us = "-"
        if m == 205:  # verify's draw: its squares on the whole-array route, with a scratch
            squared = gaussian**2
            core.FSUM_ROWS_MIN_ENTRIES = 0
            try:
                scratch_us = f"{_best_us(lambda: core.fsum_rows(squared, scratch)):.1f}"
            finally:
                core.FSUM_ROWS_MIN_ENTRIES = threshold
        route = "whole" if m * n >= threshold else "rows"
        print(f"{m} {n} {route} {times[0]:.1f} {times[1]:.1f} {scratch_us} "
              f"{times[0] / times[1]:.2f} {times[2] / times[3]:.2f} {left[0]} {left[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
