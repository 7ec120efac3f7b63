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
from dataclasses import dataclass

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
    NonFinite,
    QuadratureFailure,
)
from .inequality import (
    bound_comparison,
    check_inequality,
    discrete_bound,
    extremal_span_residual,
    oracle_max,
    random_unit_zero_mean,
)
from .spectral import build_basis, canonical_form, coordinates, verify_action

# sweep and fourier take O(n log n) time and a few length-n arrays; n = 2^20 runs in seconds
SAMPLE_MAX_N = 2**20
ORACLE_MAX_N = 512

DEFAULT_NS = {
    "verify": "4..64",
    "bounds": "4..128",
    "sweep": "8,16,32,64,128",
    "fourier": "257",
    "maximize": "4..64",
}

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


@dataclass(frozen=True)
class RunConfig:
    command: str
    ns: tuple
    fn: PeriodicFunction | None
    jmax: int
    tol: float | None
    seed: int
    out: str | None
    fmt: str


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

    specs = {
        "verify": "run the orthonormality/action/canonical/slack/oracle check suite",
        "bounds": "tabulate cos(2*pi/n), the piecewise bound, and their margin",
        "sweep": "convergence table for a sampled periodic function",
        "fourier": "discrete vs quadrature Fourier coefficients",
        "maximize": "eigensolver maximum of the correlation form vs cos(2*pi/n)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", default=DEFAULT_NS[name], metavar="SPEC",
                       help=f"int, range 'a..b', or comma list (default {DEFAULT_NS[name]})")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override for pass/fail checks")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for randomized suites (default 42)")
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
    if getattr(args, "fn", None) and getattr(args, "harmonics", None):
        raise ConfigError("pass either --fn or --harmonics, not both")
    if getattr(args, "harmonics", None):
        try:
            coeffs = [float(p) for p in args.harmonics.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --harmonics {args.harmonics!r}")
        if not coeffs:
            raise ConfigError("--harmonics needs at least one coefficient")
        return harmonic_mix(coeffs)
    if getattr(args, "fn", None):
        try:
            return named_function(args.fn)
        except KeyError as exc:
            raise ConfigError(exc.args[0])
    raise ConfigError("this command needs --fn or --harmonics")


def _make_config(args) -> RunConfig:
    ns = parse_n_spec(args.n)
    if not ns:
        raise ConfigError("--n parsed to an empty set")
    if min(ns) < 4:
        raise ConfigError(f"n must be >= 4, got {min(ns)}")
    if args.tol is not None and args.tol <= 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")

    fn = None
    jmax = getattr(args, "jmax", 1)
    cmd = args.command
    if cmd in ("sweep", "fourier"):
        fn = _resolve_function(args)
        if max(ns) > SAMPLE_MAX_N:
            raise ConfigError(f"{cmd} capped at n <= {SAMPLE_MAX_N}")
    if cmd == "fourier":
        if jmax < 1:
            raise ConfigError(f"--jmax must be >= 1, got {jmax}")
        if len(ns) != 1:
            raise ConfigError("fourier needs a single --n value")
        if ns[0] < 2 * jmax + 2:
            raise ConfigError(
                f"aliasing guard: need n >= 2*jmax+2 = {2 * jmax + 2}, got n={ns[0]}"
            )
    if cmd in ("verify", "maximize") and max(ns) > ORACLE_MAX_N:
        raise ConfigError(f"{cmd} capped at n <= {ORACLE_MAX_N} (eigensolver range)")

    return RunConfig(
        command=cmd,
        ns=tuple(sorted(set(ns))),
        fn=fn,
        jmax=jmax,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
    )


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
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
        obj = {h: (row[h] if isinstance(row[h], (int, str, bool)) else float(row[h]))
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


def _emit(rows: list, header: list, cfg: RunConfig) -> None:
    text = _render(rows, header, cfg.fmt)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(cfg: RunConfig) -> int:
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


def _cmd_sweep(cfg: RunConfig) -> int:
    report = rayleigh_sweep(cfg.fn, cfg.ns)
    header = ["n", "mean", "energy_l2", "energy_h1", "slack", "tail_energy", "elapsed_ms"]
    rows = [{"n": r.n, "mean": r.mean, "energy_l2": r.energy_l2, "energy_h1": r.energy_h1,
             "slack": r.slack, "tail_energy": r.tail_energy, "elapsed_ms": r.elapsed_ms}
            for r in report.rows]
    _emit(rows, header, cfg)
    return 0


def _cmd_fourier(cfg: RunConfig) -> int:
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


def _cmd_maximize(cfg: RunConfig) -> int:
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


def _cmd_verify(cfg: RunConfig) -> int:
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

        for _ in range(5):
            x = random_unit_zero_mean(n, rng)
            corr = cyclic_correlation(x)
            form = canonical_form(coordinates(x, basis), n)
            rel = abs(form - corr) / max(abs(corr), 1e-6)
            residuals["canonical"] = max(residuals["canonical"], rel)

        worst_violation = 0.0
        for _ in range(200):
            report = check_inequality(random_unit_zero_mean(n, rng))
            worst_violation = max(worst_violation, -min(report.slack, 0.0))
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


_DISPATCH = {
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "fourier": _cmd_fourier,
    "maximize": _cmd_maximize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _make_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except (ConvergenceFailure, QuadratureFailure, NonFinite,
            ConstraintViolation, DegenerateVector) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
