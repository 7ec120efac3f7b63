"""Command line front end: verification suites, bound tables, sweeps, Fourier tables.

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 bad usage/config.
Tables go to --out (written atomically: temp file then rename) or stdout,
as CSV (default) or JSON lines, floats at 17 significant digits, LF endings.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .analysis import (
    FUNCTION_NAMES,
    PeriodicFunction,
    fourier_discrete,
    fourier_quadrature,
    harmonic_mix,
    named_function,
    rayleigh_sweep,
)
from .core import cyclic_correlation
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
from .spectral import build_basis, canonical_form, coordinates, verify_action

# sweep and fourier take O(n log n) time and a few length-n arrays; n = 2^20 runs in seconds
SAMPLE_MAX_N = 2**20

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


def parse_n_spec(text: str) -> tuple:
    """Parse --n: a single integer '8', a range '4..64', or a list '8,16,32'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigError(f"empty range {text!r}")
            return tuple(range(lo, hi + 1))
        if "," in text:
            return tuple(int(p) for p in text.split(",") if p.strip())
        return (int(text),)
    except ValueError:
        raise ConfigError(f"cannot parse --n value {text!r}")


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
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
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
        return harmonic_mix(coeffs)
    if args.fn:
        try:
            return named_function(args.fn)
        except KeyError as exc:
            raise ConfigError(exc.args[0])
    raise ConfigError("this command needs --fn or --harmonics")


def _make_config(args) -> argparse.Namespace:
    """The parsed namespace, with `ns` (sorted, deduplicated) and `fn` resolved.

    Size rules (n >= 4, jmax >= 1, the aliasing guard) are the library's own:
    its InvalidSize is raised at the smallest n, before any output.
    """
    ns = parse_n_spec(args.n)
    if not ns:
        raise ConfigError("--n parsed to an empty set")
    tol = getattr(args, "tol", None)
    if tol is not None and tol <= 0:
        raise ConfigError(f"--tol must be positive, got {tol}")
    cmd = args.command
    if cmd in ("sweep", "fourier"):
        args.fn = _resolve_function(args)
        if max(ns) > SAMPLE_MAX_N:
            raise ConfigError(f"{cmd} capped at n <= {SAMPLE_MAX_N}")
    if cmd == "fourier" and len(ns) != 1:
        raise ConfigError("fourier needs a single --n value")
    # fail fast: oracle_max would raise only after every smaller n had run
    if cmd in ("verify", "maximize") and max(ns) > ORACLE_MAX_N:
        raise ConfigError(f"{cmd} capped at n <= {ORACLE_MAX_N} (eigensolver range)")
    args.ns = tuple(sorted(set(ns)))
    return args


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _render(rows: list, header: list, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt_value(row[h]) for h in header) for row in rows)
        return "\n".join(lines) + "\n"
    out = []
    for row in rows:
        obj = {h: (row[h] if isinstance(row[h], (int, str)) else float(row[h]))
               for h in header}
        out.append(json.dumps(obj))
    return "\n".join(out) + ("\n" if out else "")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wirtinger-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(rows: list, header: list, cfg) -> None:
    text = _render(rows, header, cfg.fmt)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(cfg) -> int:
    header = ["n", "cos_bound", "piecewise_bound", "margin"]
    rows = []
    ok = True
    for n in cfg.ns:
        cmp = bound_comparison(n)
        rows.append({"n": n, "cos_bound": cmp.lhs, "piecewise_bound": cmp.rhs,
                     "margin": cmp.margin})
        ok = ok and cmp.margin > 0.0
    _emit(rows, header, cfg)
    return 0 if ok else 1


def _cmd_sweep(cfg) -> int:
    header = ["n", "mean", "energy_l2", "energy_h1", "slack", "tail_energy", "elapsed_ms"]
    _emit([vars(r) for r in rayleigh_sweep(cfg.fn, cfg.ns).rows], header, cfg)
    return 0


def _cmd_fourier(cfg) -> int:
    n = cfg.ns[0]
    tol = cfg.tol if cfg.tol is not None else 1e-3
    discrete = fourier_discrete(cfg.fn, n, cfg.jmax)
    quad = fourier_quadrature(cfg.fn, cfg.jmax)
    header = ["j", "a_discrete", "b_discrete", "a_quad", "b_quad", "abs_err_a", "abs_err_b"]
    rows = []
    worst = 0.0
    for (j, ad, bd), (_, aq, bq) in zip(discrete.coefficients, quad.coefficients):
        ea, eb = abs(ad - aq), abs(bd - bq)
        worst = max(worst, ea, eb)
        rows.append({"j": j, "a_discrete": ad, "b_discrete": bd, "a_quad": aq,
                     "b_quad": bq, "abs_err_a": ea, "abs_err_b": eb})
    _emit(rows, header, cfg)
    return 0 if worst <= tol else 1


def _cmd_maximize(cfg) -> int:
    header = ["n", "oracle_value", "cos_bound", "diff", "span_residual"]
    rows = []
    ok = True
    for n in cfg.ns:
        value, argmax = oracle_max(n)
        bound = discrete_bound(n)
        diff = abs(value - bound)
        residual = extremal_span_residual(argmax)
        rows.append({"n": n, "oracle_value": value, "cos_bound": bound,
                     "diff": diff, "span_residual": residual})
        ok = ok and diff <= 1e-10 and residual <= 1e-8
    _emit(rows, header, cfg)
    return 0 if ok else 1


def _cmd_verify(cfg) -> int:
    thresholds = dict(VERIFY_THRESHOLDS)
    if cfg.tol is not None:
        thresholds = {name: cfg.tol for name in thresholds}
    rng = np.random.default_rng(cfg.seed)

    residuals = {name: 0.0 for name in thresholds}
    for n in cfg.ns:
        basis = build_basis(n)
        gram = np.abs(basis.vectors @ basis.vectors.T - np.eye(n)).max()
        residuals["gram"] = max(residuals["gram"], float(gram))
        residuals["action"] = max(residuals["action"], verify_action(basis))

        for x in random_unit_zero_mean_rows(n, 5, rng):
            corr = cyclic_correlation(x)
            form = canonical_form(coordinates(x, basis), n)
            # the roundoff in form - corr is absolute (about eps*|x|^2), so below
            # |corr| = 1e-3 the check turns absolute instead of measuring roundoff
            rel = abs(form - corr) / max(abs(corr), 1e-3)
            residuals["canonical"] = max(residuals["canonical"], rel)

        worst_violation = max_violation(random_unit_zero_mean_rows(n, 200, rng))
        residuals["slack"] = max(residuals["slack"], worst_violation)

        value, _ = oracle_max(n)
        residuals["oracle"] = max(residuals["oracle"], abs(value - discrete_bound(n)))

    rows = []
    all_pass = True
    for name in ("gram", "action", "canonical", "slack", "oracle"):
        passed = residuals[name] <= thresholds[name]
        all_pass = all_pass and passed
        rows.append({"check": name, "max_residual": residuals[name],
                     "threshold": thresholds[name], "status": "pass" if passed else "FAIL"})
        print(f"{name:<10} max_residual={residuals[name]:.3e} "
              f"threshold={thresholds[name]:.1e} {'pass' if passed else 'FAIL'}")
    if cfg.out:
        text = _render(rows, ["check", "max_residual", "threshold", "status"], cfg.fmt)
        _atomic_write(cfg.out, text)
    return 0 if all_pass else 1


# subcommand -> (handler, default --n, help), in --help order
COMMANDS = {
    "verify": (_cmd_verify, "4..64",
               "run the orthonormality/action/canonical/slack/oracle check suite"),
    "bounds": (_cmd_bounds, "4..128",
               "tabulate cos(2*pi/n), the piecewise bound, and their margin"),
    "sweep": (_cmd_sweep, "8,16,32,64,128", "convergence table for a sampled periodic function"),
    "fourier": (_cmd_fourier, "257", "discrete vs quadrature Fourier coefficients"),
    "maximize": (_cmd_maximize, "4..64",
                 "eigensolver maximum of the correlation form vs cos(2*pi/n)"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(_make_config(args))
    except (ConfigError, InvalidSize) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceFailure, QuadratureFailure, NonFinite,
            ConstraintViolation, DegenerateVector) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
