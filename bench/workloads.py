"""The benchmark's workloads: seeded inputs, the job one pass runs, and the
checks of every operation's output against references computed here.

Each workload class takes the seed and a scratch directory, builds all of
its inputs up front, and offers

    run()              the timed job; returns {operation: output}
    check(outputs)     {operation: [problems]}; an empty list means correct
    digest(outputs)    hash of the outputs, for repeatability within one run

The references never come from the program: thresholds are copied here,
and expected values are closed forms of the seeded inputs.  A wrong output
is a failed operation, never an exception that ends the run.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon

# Sweep column that holds a wall time.  It differs between identical runs,
# so it is left out of every check and digest.
TIMING_COLUMN = "elapsed_ms"


def _call_cli(argv: list, out_path: str) -> tuple:
    """Run `wirtinger <argv>` in-process; return (exit code, --out text).

    `cli.main` is looked up at call time so a traced run sees its wrapper.
    An exception escaping the CLI is reported as the exit code.
    """
    from wirtinger import cli

    with contextlib.suppress(FileNotFoundError):
        os.unlink(out_path)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        return f"{type(exc).__name__}: {exc}", ""
    try:
        with open(out_path, encoding="utf-8") as fh:
            return rc, fh.read()
    except FileNotFoundError:
        return rc, ""


def _drop_timing(text: str) -> str:
    """CSV text without the timing column."""
    lines = text.splitlines()
    if not lines or TIMING_COLUMN not in lines[0].split(","):
        return text
    k = lines[0].split(",").index(TIMING_COLUMN)
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != k)
                     for line in lines)


def _parse_csv(text: str) -> list:
    """Rows of a numeric CSV table as dicts, without the timing column."""
    lines = _drop_timing(text).splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _close(label: str, got: float, want: float, tol: float) -> list:
    if not abs(got - want) <= tol:  # also catches NaN
        return [f"{label}: got {got!r}, expected {want!r} within {tol:.3g}"]
    return []


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Verify:
    """`wirtinger verify --n 4..160 --seed S`: many small n.

    Per-vector Python overhead dominates: about 200 `check_inequality` and
    `random_unit_zero_mean` calls per n, each doing compensated sums over
    `.tolist()`; the eigensolver oracle and the dense basis take the rest.
    One operation per pass: the CLI call.
    """

    N_SPEC = "4..160"
    # Copied from the CLI's documented thresholds, so that loosening them in
    # the program does not loosen this check.
    THRESHOLDS = {"gram": 1e-12, "action": 1e-12, "canonical": 1e-11,
                  "slack": 1e-12, "oracle": 1e-10}

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "verify.jsonl")
        self.argv = ["verify", "--n", self.N_SPEC, "--seed", str(seed),
                     "--out", self.out, "--format", "jsonl"]

    def run(self) -> dict:
        return {"verify": _call_cli(self.argv, self.out)}

    def check(self, outputs: dict) -> dict:
        rc, text = outputs["verify"]
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            rows = {r["check"]: r for r in map(json.loads, text.splitlines())}
        except (ValueError, KeyError, TypeError) as exc:
            return {"verify": problems + [f"unreadable output: {exc}"]}
        if set(rows) != set(self.THRESHOLDS):
            problems.append(f"checks {sorted(rows)}, expected {sorted(self.THRESHOLDS)}")
        for name, limit in self.THRESHOLDS.items():
            row = rows.get(name)
            if row is None:
                continue
            if not row.get("max_residual", math.inf) <= limit:
                problems.append(f"{name}: residual {row.get('max_residual')!r} over {limit:g}")
            if row.get("threshold") != limit or row.get("status") != "pass":
                problems.append(f"{name}: row {row} does not pass at threshold {limit:g}")
        return {"verify": problems}

    def digest(self, outputs: dict) -> str:
        return _hash(outputs)


class Limit:
    """Two CLI calls on a seeded random trig polynomial: a few large n.

    `sweep --n 512,1024,2048,4096` builds dense bases up to 4096 x 4096
    (134 MB) for the tail energy; `fourier --n 65536 --jmax 8` samples
    65,536 scalar callbacks and runs compensated dots of that length, plus
    shallow adaptive quadrature of smooth integrands.  Two operations per
    pass: the sweep and the Fourier table.
    """

    SWEEP_NS = (512, 1024, 2048, 4096)
    FOURIER_N = 65536
    JMAX = 8
    HARMONICS = 4
    # Fourier coefficients of a trig polynomial are exact at any n > 2*jmax,
    # so the discrete ones only carry rounding; quadrature runs at tol 1e-10.
    DISCRETE_TOL = 1e-12
    QUAD_TOL = 1e-9
    # Tolerance on the sweep's closed-form values; energy_h1 is computed as a
    # difference that loses digits like n^2, so it also gets EPS * n^2.
    EXACT_RTOL = 1e-12

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, 2 * self.HARMONICS)]
        self.a, self.b = coeffs[0::2], coeffs[1::2]
        # repr round-trips exactly; "=" keeps a leading minus from reading as a flag
        harmonics = ",".join(repr(c) for c in coeffs)
        self.sweep_out = os.path.join(workdir, "sweep.csv")
        self.fourier_out = os.path.join(workdir, "fourier.csv")
        self.sweep_argv = ["sweep", "--n", ",".join(map(str, self.SWEEP_NS)),
                           f"--harmonics={harmonics}", "--out", self.sweep_out]
        self.fourier_argv = ["fourier", "--n", str(self.FOURIER_N), "--jmax", str(self.JMAX),
                             f"--harmonics={harmonics}", "--out", self.fourier_out]

    def run(self) -> dict:
        return {"sweep": _call_cli(self.sweep_argv, self.sweep_out),
                "fourier": _call_cli(self.fourier_argv, self.fourier_out)}

    def expected_sweep_row(self, n: int) -> dict:
        """Closed forms of one sweep row, and Parseval's limits of the energies.

        Harmonic j with power p_j = a_j^2 + b_j^2, sampled at n points, has
        interpolant energies (pi/3) p_j (2 + cos(2 pi j/n)) and
        pi j^2 p_j sinc^2(pi j/n); cross terms vanish for j < n/2.
        """
        power = [a * a + b * b for a, b in zip(self.a, self.b)]
        js = range(1, len(power) + 1)
        theta = [TWO_PI * j / n for j in js]
        total = math.fsum(power)
        half = [t / 2.0 for t in theta]
        return {
            "energy_l2": math.fsum(p * (2.0 + math.cos(t)) * math.pi / 3.0
                                   for p, t in zip(power, theta)),
            "energy_h1": math.fsum(math.pi * j * j * p * (math.sin(u) / u) ** 2
                                   for j, p, u in zip(js, power, half)),
            "slack": math.fsum(p * (math.cos(theta[0]) - math.cos(t))
                               for p, t in zip(power, theta)) / total,
            "tail_energy": 0.5 * math.fsum(power[1:]),
            "parseval_l2": math.pi * total,
            "parseval_h1": math.pi * math.fsum(j * j * p for j, p in zip(js, power)),
            "power": total,
        }

    def check_sweep(self, rc, text: str) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            rows = _parse_csv(text)
        except ValueError as exc:
            return problems + [f"unreadable output: {exc}"]
        ns = tuple(int(r.get("n", -1)) for r in rows)
        if ns != self.SWEEP_NS:
            return problems + [f"rows for n={ns}, expected {self.SWEEP_NS}"]
        wave = TWO_PI * self.HARMONICS
        for n, row in zip(ns, rows):
            want = self.expected_sweep_row(n)
            at = f"n={n}"
            try:
                # Parseval: the interpolant energies fall short of the integrals
                # of f^2 and f'^2 by at most (2 pi J/n)^2/6 and /12 of them.
                p2, p1 = want["parseval_l2"], want["parseval_h1"]
                h1_round = (self.EXACT_RTOL + EPS * n * n) * p1
                problems += _close(f"{at} energy_l2 vs Parseval", row["energy_l2"], p2,
                                   p2 * (wave / n) ** 2 / 6.0 + self.EXACT_RTOL * p2)
                problems += _close(f"{at} energy_h1 vs Parseval", row["energy_h1"], p1,
                                   p1 * (wave / n) ** 2 / 12.0 + h1_round)
                # and the exact values at this n
                problems += _close(f"{at} energy_l2", row["energy_l2"], want["energy_l2"],
                                   self.EXACT_RTOL * p2)
                problems += _close(f"{at} energy_h1", row["energy_h1"], want["energy_h1"],
                                   h1_round)
                problems += _close(f"{at} tail_energy", row["tail_energy"], want["tail_energy"],
                                   self.EXACT_RTOL * want["power"])
                problems += _close(f"{at} slack", row["slack"], want["slack"], self.EXACT_RTOL)
                problems += _close(f"{at} mean", row["mean"], 0.0,
                                   self.EXACT_RTOL * math.sqrt(want["power"]))
            except KeyError as exc:
                problems.append(f"{at}: missing column {exc}")
        return problems

    def check_fourier(self, rc, text: str) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            rows = _parse_csv(text)
        except ValueError as exc:
            return problems + [f"unreadable output: {exc}"]
        js = tuple(int(r.get("j", -1)) for r in rows)
        if js != tuple(range(1, self.JMAX + 1)):
            return problems + [f"rows for j={js}, expected 1..{self.JMAX}"]
        pad = [0.0] * (self.JMAX - self.HARMONICS)
        for j, row, a, b in zip(js, rows, self.a + pad, self.b + pad):
            try:
                problems += _close(f"a_discrete[{j}]", row["a_discrete"], a, self.DISCRETE_TOL)
                problems += _close(f"b_discrete[{j}]", row["b_discrete"], b, self.DISCRETE_TOL)
                problems += _close(f"a_quad[{j}]", row["a_quad"], a, self.QUAD_TOL)
                problems += _close(f"b_quad[{j}]", row["b_quad"], b, self.QUAD_TOL)
            except KeyError as exc:
                problems.append(f"j={j}: missing column {exc}")
        return problems

    def check(self, outputs: dict) -> dict:
        return {"sweep": self.check_sweep(*outputs["sweep"]),
                "fourier": self.check_fourier(*outputs["fourier"])}

    def digest(self, outputs: dict) -> str:
        return _hash({op: (rc, _drop_timing(text)) for op, (rc, text) in outputs.items()})


class Crosscheck:
    """Library job: closed-form interpolant energy against blind quadrature.

    For each of COUNT seeded random interpolants, `adaptive_simpson` of
    L(t)^2 must agree with `energy_l2`, as in acceptance criterion 04.  The
    kinks force deep bisection, so quadrature and scalar evaluation of
    `PiecewiseLinear` do almost all the work.  The sizes are a fixed grid
    over 4..64 and only the knot values are seeded, which keeps the work of
    a pass within about 1% across seeds.  One operation per interpolant.
    """

    COUNT = 40
    SIZES = tuple(np.rint(np.linspace(4, 64, COUNT)).astype(int).tolist())
    QUAD_TOL = 1e-10
    AGREE_TOL = 1e-9  # relative to max(1, |energy|), as criterion 04
    EXACT_RTOL = 1e-12

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.knots = [rng.standard_normal(n) * 2.0 for n in self.SIZES]
        # closed form (2 pi/3n) sum(2 x_j^2 + x_j x_{j-1}), summed exactly here
        self.reference = []
        for x in self.knots:
            v = x.tolist()
            terms = [2.0 * v[j] * v[j] + v[j] * v[j - 1] for j in range(len(v))]
            self.reference.append(TWO_PI / (3.0 * len(v)) * math.fsum(terms))

    def run(self) -> dict:
        from wirtinger import pwl, quadrature

        out = {}
        for i, x in enumerate(self.knots):
            try:
                interp = pwl.PiecewiseLinear(x)
                quad = quadrature.adaptive_simpson(lambda t: interp(t) ** 2, 0.0, TWO_PI,
                                                   tol=self.QUAD_TOL)
                out[f"interpolant{i}"] = (quad, pwl.energy_l2(x))
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                out[f"interpolant{i}"] = f"{type(exc).__name__}: {exc}"
        return out

    def check(self, outputs: dict) -> dict:
        problems = {}
        for i, ref in enumerate(self.reference):
            op = f"interpolant{i}"
            got = outputs.get(op, "missing")
            if isinstance(got, str):
                problems[op] = [got]
                continue
            quad, energy = got
            problems[op] = (
                _close("energy_l2", energy, ref, self.EXACT_RTOL * ref)
                + _close("quadrature vs energy_l2", quad, energy,
                         self.AGREE_TOL * max(1.0, abs(energy))))
        return problems

    def digest(self, outputs: dict) -> str:
        return _hash({op: repr(v) for op, v in outputs.items()})


WORKLOADS = {"verify": Verify, "limit": Limit, "crosscheck": Crosscheck}
