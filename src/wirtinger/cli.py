"""Command line front end: verification suites, bound tables, sweeps, Fourier tables.

Exit codes: 0 all checks pass, 1 a numerical check failed (a NaN fails), 2 bad usage/config.
Tables go to --out (written atomically: temp file then rename) or stdout, LF endings,
as CSV (default; floats %.17g) or JSON lines (floats as the shortest round-trip repr).
"""

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
import threading

import numpy as np

from .analysis import (
    FUNCTION_NAMES,
    PeriodicFunction,
    _require_resolvable,
    fourier_discrete,
    fourier_quadrature,
    harmonic_mix,
    named_function,
    rayleigh_sweep,
)
from .core import TWO_PI, _require_size
from .errors import (
    ConstraintViolation,
    ConvergenceFailure,
    DegenerateVector,
    InvalidSize,
    NonFinite,
    QuadratureFailure,
)
# check_inequality is no longer called here; the binding stays because
# bench/test_bench.py checks that the tracer rebinds it in this module
from .inequality import (  # noqa: F401
    ORACLE_MAX_N,
    bound_comparison,
    check_inequality,
    discrete_bound,
    extremal_span_residual,
    max_violation,
    oracle_max,
    random_unit_zero_mean_rows,
)
from .spectral import build_basis, canonical_residuals, verify_action

# sweep and fourier take O(n log n) time and a few length-n arrays; n = 2^20 runs in seconds
SAMPLE_MAX_N = 2**20
# |f| <= sum|c|, so the largest sum of squares the energies form, an n-point FFT's
# |X_k|^2, is at most (n sum|c|)^2: kept a factor 4 below the largest double
HARMONICS_MAX_ABS_SUM = sys.float_info.max ** 0.5 / (2 * SAMPLE_MAX_N)

# bounds writes each row as it is made, so its memory does not grow with the
# sizes: 10^5 sizes take about 1.2 s (0.2 s of it start-up, on a 2-core Xeon) at
# a peak RSS of 29 MiB, what importing the package takes (90 MiB when the rows
# were held).  The cap bounds the run time.
# The margin, about a^4/24 with a = 2*pi/n, is a normal double up to BOUNDS_MAX_N,
# which correctly rounded square roots make the same on every platform.
BOUNDS_MAX_SIZES = 100_000
BOUNDS_MAX_N = int(TWO_PI / math.sqrt(math.sqrt(24 * sys.float_info.min)))
# sweep's time grows with its total samples, and with the sizes' prime factors,
# which set its real FFTs' time: `sweep --n 1048576` takes about 0.5 s, and
# `--n 1048573..1048576` about 2.4 s.  The cap bounds the run time.
SWEEP_MAX_SAMPLES = 4 * SAMPLE_MAX_N

# per-check residual thresholds for `verify`; a --tol override replaces all of them
VERIFY_THRESHOLDS = {
    "gram": 1e-12,
    "action": 1e-12,
    "canonical": 1e-11,
    "slack": 1e-12,
    "oracle": 1e-10,
}


class ConfigError(Exception):
    """Invalid command-line configuration (maps to exit code 2)."""


def parse_n_spec(text: str):
    """Parse --n: an integer '8', a range '4..64' (left unbuilt), or a list '8,16,32',
    as a range or a sorted tuple of distinct sizes: a repeated size runs once."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigError(f"empty range {text!r}")
            return range(lo, hi + 1)
        if "," in text:
            return tuple(sorted({int(p) for p in text.split(",") if p.strip()}))
        return (int(text),)
    except ValueError:
        raise ConfigError(f"cannot parse --n value {text!r}")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirtinger",
        description="Discrete Wirtinger inequality toolkit: verify, tabulate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, default_n, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--n", default=default_n, metavar="SPEC",
                       help=f"int, range 'a..b', or comma list (default {default_n})")
        if name in ("verify", "fourier"):
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance override for pass/fail checks")
        if name == "verify":
            p.add_argument("--seed", type=int, default=42,
                           help="seed for the random test vectors (default 42)")
        p.add_argument("--out", default=None, help="output file (atomic write)")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default=None)
        if name in ("sweep", "fourier"):
            p.add_argument("--fn", default=None,
                           help="named test function: " + ", ".join(FUNCTION_NAMES))
            p.add_argument("--harmonics", default=None, metavar="a1,b1,a2,b2,...",
                           help="trig polynomial coefficients instead of --fn")
        if name == "fourier":
            p.add_argument("--jmax", type=int, default=4,
                           help="highest harmonic to extract (default 4)")
    return parser


def _resolve_function(args) -> PeriodicFunction:
    if args.fn and args.harmonics:
        raise ConfigError("pass either --fn or --harmonics, not both")
    if args.harmonics:
        try:
            coeffs = [float(p) for p in args.harmonics.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --harmonics {args.harmonics!r}")
        if not coeffs:
            raise ConfigError("--harmonics needs at least one coefficient")
        if not sum(map(abs, coeffs)) <= HARMONICS_MAX_ABS_SUM:  # one comparison: NaN fails it
            raise ConfigError(f"--harmonics needs sum |c| <= {HARMONICS_MAX_ABS_SUM:.3g}")
        return harmonic_mix(coeffs)
    if args.fn:
        try:
            return named_function(args.fn)
        except KeyError as exc:
            raise ConfigError(exc.args[0])
    raise ConfigError("this command needs --fn or --harmonics")


def _make_config(args) -> argparse.Namespace:
    """The parsed namespace, with `ns` and `fn` resolved.

    Size rules (n >= 4, jmax >= 1, the aliasing guard) are the library's own:
    its InvalidSize is raised at the smallest n, before any output, and n >= 4
    is checked here first for every form of --n.  A range stays unbuilt, and
    its ends are checked before anything iterates it.
    """
    ns = parse_n_spec(args.n)
    if not ns:
        raise ConfigError("--n parsed to an empty set")
    largest = ns[-1]
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < math.inf:  # one comparison: NaN fails it
        raise ConfigError(f"--tol must be finite and positive, got {tol}")
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    cmd = args.command
    if cmd in ("sweep", "fourier"):
        args.fn = _resolve_function(args)
        if largest > SAMPLE_MAX_N:
            raise ConfigError(f"{cmd} capped at n <= {SAMPLE_MAX_N}")
    # a range's length and total from its ends (len() fails past 2**63)
    count = ns[-1] - ns[0] + 1 if isinstance(ns, range) else len(ns)
    total = (ns[0] + ns[-1]) * count // 2 if isinstance(ns, range) else sum(ns)
    if cmd == "sweep" and total > SWEEP_MAX_SAMPLES:
        raise ConfigError(f"sweep capped at {SWEEP_MAX_SAMPLES} samples in all, got {total}")
    if cmd == "bounds" and count > BOUNDS_MAX_SIZES:
        raise ConfigError(f"bounds capped at {BOUNDS_MAX_SIZES} sizes")
    if cmd == "bounds" and largest > BOUNDS_MAX_N:
        raise ConfigError(f"bounds capped at n <= {BOUNDS_MAX_N} (the margin underflows past it)")
    if cmd == "fourier" and count != 1:
        raise ConfigError("fourier needs a single --n value")
    # fail fast: oracle_max would raise only after every smaller n had run
    if cmd in ("verify", "maximize") and largest > ORACLE_MAX_N:
        raise ConfigError(f"{cmd} capped at n <= {ORACLE_MAX_N} (eigensolver range)")
    if cmd == "verify" and args.fmt and not args.out:  # its stdout is a text table
        raise ConfigError("verify --format needs --out, the file it encodes")
    args.fmt = args.fmt or "csv"
    if args.out and os.path.isdir(args.out):  # writing would fail only after all the work
        raise ConfigError(f"--out {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ConfigError(f"--out {args.out!r} is in a directory that does not exist")
    _require_size(ns[0])
    args.ns = ns
    return args


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _render(rows, fmt: str):
    """The lines of the rows (dicts) as CSV or JSON lines, with the first row's
    keys as columns, each made as its row arrives."""
    header = None
    for row in rows:
        if header is None:
            header = list(row)
            if fmt == "csv":
                yield ",".join(header) + "\n"
        if fmt == "csv":
            yield ",".join(_fmt_value(row[h]) for h in header) + "\n"
        else:
            yield json.dumps({h: (row[h] if isinstance(row[h], (int, str)) else float(row[h]))
                              for h in header}) + "\n"


def _atomic_write(path: str, lines) -> None:
    """Write the lines through a temp file and a rename.  mkstemp makes the file 0o600,
    so it gets the mode that open() would leave: an existing target's, else 0o666 & ~umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o077)  # reading the umask sets it; 0o077 meanwhile is the safe side
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wirtinger-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(rows, cfg, passes=None) -> int:
    """Write the rows (an iterable of dicts) to --out or stdout as they are made,
    and return the exit code they decide: 1 if `passes` is false on any row, else 0.
    Each rule is a comparison that a NaN fails."""
    failed = False

    def checked():
        nonlocal failed
        for row in rows:
            failed = failed or not passes(row)
            yield row

    lines = _render(rows if passes is None else checked(), cfg.fmt)
    if cfg.out:
        _atomic_write(cfg.out, lines)
    else:
        sys.stdout.writelines(lines)
    return 1 if failed else 0


def _cmd_bounds(cfg) -> int:
    def rows():
        for n in cfg.ns:
            cmp = bound_comparison(n)
            yield {"n": n, "cos_bound": cmp.lhs, "piecewise_bound": cmp.rhs,
                   "margin": cmp.margin}

    return _emit(rows(), cfg, lambda row: row["margin"] > 0.0)


def _cmd_sweep(cfg) -> int:
    return _emit([vars(r) for r in rayleigh_sweep(cfg.fn, cfg.ns)], cfg)


def _cmd_fourier(cfg) -> int:
    """The discrete table runs on a helper thread while this one integrates: both
    are numpy work that releases the GIL, so on two cores they overlap.  Its
    exception is raised first, as when it ran first; its size guard runs here,
    before either starts, so a usage error does not wait for the quadrature."""
    n, jmax = cfg.ns[0], cfg.jmax
    tol = cfg.tol if cfg.tol is not None else 1e-3
    _require_resolvable(n, jmax)
    outcome = []  # the discrete table, or what it raised

    def discrete_table():
        try:
            outcome.append(fourier_discrete(cfg.fn, n, jmax))
        except BaseException as exc:  # re-raised on the calling thread
            outcome.append(exc)

    helper = threading.Thread(target=discrete_table, name="fourier_discrete")
    helper.start()
    try:
        quad = fourier_quadrature(cfg.fn, jmax)
    finally:
        helper.join()
        if isinstance(outcome[0], BaseException):
            raise outcome.pop()
    rows = ({"j": j, "a_discrete": ad, "b_discrete": bd, "a_quad": aq, "b_quad": bq,
             "abs_err_a": abs(ad - aq), "abs_err_b": abs(bd - bq)}
            for (j, ad, bd), (_, aq, bq) in zip(outcome.pop(), quad))
    return _emit(rows, cfg, lambda row: row["abs_err_a"] <= tol and row["abs_err_b"] <= tol)


def _cmd_maximize(cfg) -> int:
    rows = []
    for n in cfg.ns:
        value, argmax = oracle_max(n)
        bound = discrete_bound(n)
        rows.append({"n": n, "oracle_value": value, "cos_bound": bound,
                     "diff": abs(value - bound), "span_residual": extremal_span_residual(argmax)})
    return _emit(rows, cfg, lambda row: row["diff"] <= 1e-10 and row["span_residual"] <= 1e-8)


def _gram_residual(vectors: np.ndarray) -> float:
    """max |V V^T - I| over the entries."""
    gram = vectors @ vectors.T
    gram.reshape(-1)[::len(gram) + 1] -= 1.0  # the diagonal, as a view
    return float(np.abs(gram, out=gram).max())


def _random_residuals(basis, rng) -> tuple[float, float]:
    """verify's canonical and slack residuals at one size, from one draw.

    A draw of 5 + 200 rows consumes the stream as a draw of 5 and then one of
    200 do; only a degenerate row among the first 5 (probability about 0 for
    Gaussian rows) would be replaced after all 205 instead.  The rows, and the
    draw's (2, 205, n) scratch, are freed on return, before the next size is built.
    """
    xs = random_unit_zero_mean_rows(basis.n, 205, rng)
    return float(canonical_residuals(xs[:5], basis).max()), max_violation(xs[5:])


def _cmd_verify(cfg) -> int:
    """Five running maxima over the sizes, in VERIFY_THRESHOLDS' order, kept by
    np.maximum, which keeps a NaN; the exit code comes from the rows' status column."""
    rng = np.random.default_rng(cfg.seed)
    worst = np.zeros(len(VERIFY_THRESHOLDS))
    for n in cfg.ns:
        basis = build_basis(n)
        np.maximum(worst, (_gram_residual(basis.vectors), verify_action(basis),
                           *_random_residuals(basis, rng),
                           abs(oracle_max(n)[0] - discrete_bound(n))), out=worst)
    rows = []
    for (name, threshold), residual in zip(VERIFY_THRESHOLDS.items(), worst.tolist()):
        threshold = threshold if cfg.tol is None else cfg.tol
        status = "pass" if residual <= threshold else "FAIL"
        rows.append({"check": name, "max_residual": residual,
                     "threshold": threshold, "status": status})
        print(f"{name:<10} max_residual={residual:.3e} threshold={threshold:.1e} {status}")
    if cfg.out:
        _emit(rows, cfg)
    return 1 if any(row["status"] == "FAIL" for row in rows) else 0


# subcommand -> (handler, default --n, help), in --help order
COMMANDS = {
    "verify": (_cmd_verify, "4..64",
               "run the orthonormality/action/canonical/slack/oracle check suite"),
    "bounds": (_cmd_bounds, "4..128",
               "tabulate cos(2*pi/n), the piecewise bound, and their margin"),
    "sweep": (_cmd_sweep, "8,16,32,64,128", "convergence table for a sampled periodic function"),
    "fourier": (_cmd_fourier, "257", "discrete vs quadrature Fourier coefficients"),
    "maximize": (_cmd_maximize, "4..64",
                 "Sturm-sequence Newton maximum of the correlation form vs cos(2*pi/n)"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(_make_config(args))
    except (ConfigError, InvalidSize, OSError) as exc:  # OSError: writing the output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceFailure, QuadratureFailure, NonFinite,
            ConstraintViolation, DegenerateVector) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
