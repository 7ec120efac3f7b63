"""One benchmark run in a fresh process, started by run.py.

Imports the program from the checkout's `src/`, builds the workload's
seeded inputs, runs one untimed warm-up pass, then times passes of the
workload's job for the given number of seconds, checking the outputs of
every pass.  The result, with every pass time, goes to --out as JSON.

With --trace 0 a fixed slice of reference work, a few milliseconds of
interpreted code, is timed from a SIGALRM handler every REFERENCE_INTERVAL_S
of wall time during each pass, so the slices sample the machine's speed all
through the pass.  A pass's program time (its wall time less the slices
inside it) is divided by the harmonic mean of the slice times during the
pass.  The host's speed drifts by tens of percent within seconds, and the
slices, timed on the same core in the same moments, drift with it, so the
ratio does not.
Between passes, fresh interpreters time the import of the program (the
set-up probes), spread evenly over the run.

With --trace 1, untraced and traced passes alternate (their order swapped
in every pair); the traced passes give the per-layer metrics and the
difference of the two medians is the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import COUNT_METRICS, ROOT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # untraced runs: enough for a median and quartiles
MIN_PAIRS = 2  # traced runs
MAX_PROBLEMS = 20  # problem messages kept in the result
# The reference slice: adaptive Simpson of a squared piecewise-linear
# function, written out in plain Python: the function calls, closures and
# float arithmetic the program's hot loops are made of.  It is part of the
# benchmark, so it is the same on every commit; about 3.6 ms on the machine
# the benchmark was written on.
REFERENCE_KNOTS = [0.3 * math.sin(1.7 * k) + 0.2 * math.cos(0.9 * k) for k in range(16)]
REFERENCE_REPEATS = 60
REFERENCE_INTERVAL_S = 0.05
SETUP_PROBES = 12  # timed set-up probes per untraced run, spread evenly over it
PROBE_TIMEOUT_S = 30
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import wirtinger, wirtinger.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(wirtinger.__file__)\n"
)


def import_program() -> float:
    """Import the package under test and return the seconds it took."""
    start = time.perf_counter()
    import wirtinger
    import wirtinger.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    where = Path(wirtinger.__file__).resolve().parent
    if where != (ROOT / "src" / "wirtinger").resolve():
        raise SystemExit(f"imported wirtinger from {where}, not from this checkout's src/")
    return elapsed


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None

    def record(self, workload, outputs: dict) -> None:
        """Check one pass; every pass has the same inputs, so it must also
        give the same outputs as the first."""
        digest = workload.digest(outputs)
        self.digest = self.digest or digest
        repeat = [] if digest == self.digest else ["output differs from the first pass"]
        for op, problems in workload.check(outputs).items():
            self.attempted += 1
            if problems or repeat:
                self.failed += 1
                self.problems.extend(f"{op}: {p}" for p in problems + repeat)
        del self.problems[MAX_PROBLEMS:]


def timed_pass(workload, tally: Tally) -> float:
    start = time.perf_counter()
    outputs = workload.run()
    wall = time.perf_counter() - start
    tally.record(workload, outputs)
    return wall


def _reference_integrand(t: float) -> float:
    knots = REFERENCE_KNOTS
    u = t * len(knots) / (2.0 * math.pi)
    k = int(u)
    left, right = knots[k % len(knots)], knots[(k + 1) % len(knots)]
    return (left + (right - left) * (u - k)) ** 2


def _reference_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_reference_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _reference_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def reference_slice() -> float:
    """The fixed reference work; returns its result so it is not dead code."""
    f, b = _reference_integrand, 2.0 * math.pi
    fa, fm, fb = f(0.0), f(0.5 * b), f(b)
    total = 0.0
    for _ in range(REFERENCE_REPEATS):
        total += _reference_simpson(f, 0.0, b, fa, fm, fb, b / 6.0 * (fa + 4.0 * fm + fb),
                                    1e-12, 40)
    return total


def slice_seconds() -> float:
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


class Speedometer:
    """Times a reference slice from a SIGALRM handler every interval of wall
    time while in use; each slice is kept as (start, seconds)."""

    def __init__(self, interval: float = REFERENCE_INTERVAL_S):
        self.interval = interval
        self.slices = []

    def _tick(self, signum, frame) -> None:
        self.slices.append((time.perf_counter(), slice_seconds()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_seconds() -> float:
    """Seconds to import the program in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    seconds, where = done.stdout.split()
    if Path(where).resolve().parent != (ROOT / "src" / "wirtinger").resolve():
        raise RuntimeError(f"the probe imported wirtinger from {where}, not from src/")
    return float(seconds)


def untraced_run(workload, tally: Tally, seconds: float) -> dict:
    walls, program, slice_means, ratios, setup = [], [], [], [], []
    setup_seconds()  # untimed: loads the interpreter and numpy into the page cache
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        with Speedometer() as meter:
            begin = time.perf_counter()
            outputs = workload.run()
            wall = time.perf_counter() - begin
        inside = [s for t, s in meter.slices if t < begin + wall]
        tally.record(workload, outputs)
        walls.append(wall)
        program.append(wall - math.fsum(inside))
        # The harmonic mean weights each stretch of the pass by the machine's
        # speed in it; a pass shorter than the interval gets one slice after it.
        slice_means.append(statistics.harmonic_mean(inside or [slice_seconds()]))
        ratios.append(program[-1] / slice_means[-1])
        if len(setup) * seconds <= (time.perf_counter() - start) * SETUP_PROBES:
            setup.append(setup_seconds())
    return {"wall_s": walls, "program_s": program, "reference_s": slice_means,
            "wall_ref": ratios, "setup_s": setup}


def traced_pass(workload, tally: Tally, tracer: Tracer) -> float:
    """One pass with every layer traced; its spans stay in `tracer`."""
    tracer.reset()
    tracer.install()
    outputs = {}
    try:
        start = time.perf_counter()
        tracer.wrap(ROOT_SPAN, lambda: outputs.update(workload.run()))()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tally.record(workload, outputs)
    return wall


def traced_run(workload, tally: Tally, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    plain, traced, rollups = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(traced_pass(workload, tally, tracer))
                rollups.append(tracer.rollup())
            else:
                plain.append(timed_pass(workload, tally))
    tracer.save(spans_path)
    per_pass = [layer_metrics(r) for r in rollups]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update({name: per_pass[0][name] for name in COUNT_METRICS})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {
        "layers": metrics,
        "counts_repeat": all(m[k] == per_pass[0][k] for m in per_pass for k in COUNT_METRICS),
        "rollup": rollups[-1],
        "wall_s": plain,
        "traced_wall_s": traced,
    }


def program_facts() -> dict:
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.25
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spans", required=True, help="span dump path (.npz) for --trace 1")
    args = parser.parse_args(argv)

    import_s = import_program()
    workdir = tempfile.mkdtemp(prefix="work-", dir=Path(args.out).parent)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        timed_pass(workload, tally)  # warm-up: lazy set-up and caches, not timed
        reference_slice()
        if args.trace:
            result = traced_run(workload, tally, args.seconds, args.spans)
        else:
            result = untraced_run(workload, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        import_s=import_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        # for repeatability within this run only: never compare across commits
        digest=tally.digest,
        program=program_facts(),
    )
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
