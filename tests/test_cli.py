import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import verify_residuals_per_vector

from wirtinger.cli import (
    BOUNDS_MAX_N,
    BOUNDS_MAX_SIZES,
    HARMONICS_MAX_ABS_SUM,
    SAMPLE_MAX_N,
    SWEEP_MAX_SAMPLES,
    VERIFY_THRESHOLDS,
    ConfigError,
    _build_parser,
    _make_config,
    main,
    parse_n_spec,
)

SWEEP_HEADER = "n,mean,energy_l2,energy_h1,slack,tail_energy,elapsed_ms"
FOURIER_HEADER = "j,a_discrete,b_discrete,a_quad,b_quad,abs_err_a,abs_err_b"
BOUNDS_HEADER = "n,cos_bound,piecewise_bound,margin"


def test_parse_n_spec_forms():
    assert parse_n_spec("8") == (8,)
    assert parse_n_spec("4..7") == range(4, 8)
    assert parse_n_spec("8,16,32") == (8, 16, 32)
    # a list is sorted and each size in it kept once
    assert parse_n_spec("32,8,16,8,32") == (8, 16, 32)


def test_verify_passes_small_range(capsys, tmp_path):
    """verify prints its checks, and --out writes them as CSV, with the
    string columns check and status unquoted."""
    out_csv = tmp_path / "v.csv"
    assert main(["verify", "--n", "4..10", "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    for check in ("gram", "action", "canonical", "slack", "oracle"):
        assert check in out
    assert "FAIL" not in out
    header, *rows = out_csv.read_text().splitlines()
    assert header == "check,max_residual,threshold,status"
    checks = []
    for row in rows:
        check, residual, threshold, status = row.split(",")
        checks.append(check)
        assert float(residual) <= float(threshold) and status == "pass"
    assert checks == ["gram", "action", "canonical", "slack", "oracle"]


@pytest.mark.parametrize("seed", [1, 7, 25, 42, 58])
def test_verify_matches_per_vector_reference(seed, tmp_path, capsys):
    """The batched verify prints the bytes of the one-vector-at-a-time loop."""
    out = tmp_path / "verify.jsonl"
    rc = main(["verify", "--n", "4..48", "--seed", str(seed), "--format", "jsonl",
               "--out", str(out)])
    residuals = verify_residuals_per_vector(range(4, 49), seed)
    lines, printed = [], []
    for name, value in residuals.items():
        limit = VERIFY_THRESHOLDS[name]
        status = "pass" if value <= limit else "FAIL"
        lines.append(json.dumps({"check": name, "max_residual": value,
                                 "threshold": limit, "status": status}) + "\n")
        printed.append(f"{name:<10} max_residual={value:.3e} threshold={limit:.1e} {status}\n")
    assert out.read_bytes() == "".join(lines).encode()
    assert capsys.readouterr().out == "".join(printed)
    assert rc == 0


@pytest.mark.parametrize("index, rc", [(4, 0), (5, 1), (204, 1)])
def test_verify_slack_checks_rows_5_to_204(index, rc, monkeypatch, capsys):
    """Of each size's 205 rows, the first 5 go to the canonical check and
    the other 200 to the slack check.  A finite row of norm 2 is rejected
    there (numerical failure, exit 1) and passes the canonical check, whose
    measure is relative, so the row at `index` shows which rows the slack
    check reads."""
    from wirtinger import cli, random_unit_zero_mean_rows

    xs = random_unit_zero_mean_rows(8, 205, np.random.default_rng(3))
    xs[index] *= 2.0
    monkeypatch.setattr(cli, "random_unit_zero_mean_rows", lambda n, m, rng: xs.copy())
    assert main(["verify", "--n", "8"]) == rc
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: constraints not met") if rc else err == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3"],
    ["bounds", "--n", "3"],
    ["sweep", "--fn", "sin1", "--n", "3"],
    ["maximize", "--n", "3"],
    ["fourier", "--fn", "sin1", "--jmax", "0"],
    ["fourier", "--fn", "sin1", "--n", "5", "--jmax", "2"],
    ["bounds", "--n", "2..3"],
    ["fourier", "--fn", "sin1", "--n", "4", "--jmax", "4"],
])
def test_library_size_errors_are_usage_errors(argv, tmp_path, capsys):
    """The library's InvalidSize exits 2 with its message, before any output."""
    out = tmp_path / "never.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "4..1000000000000"],
    ["maximize", "--n", "4..1000000000000"],
    ["sweep", "--fn", "sin1", "--n", "4..1000000000000"],
    ["sweep", "--fn", "sin1", "--n", "4..1048576"],
    ["fourier", "--fn", "sin1", "--n", "4..1000000000000"],
    ["verify", "--n=-1000000000000..5"],
    ["maximize", "--n=-100000000..5"],
    ["bounds", "--n", "4..1000000000000"],
    # ranges longer than len() can return
    ["verify", "--n", "4..100000000000000000000"],
    ["bounds", "--n", "4..100000000000000000000"],
    # past the n where bounds' margin is a normal double (at 10^100 it is 0)
    ["bounds", "--n", str(BOUNDS_MAX_N + 1)],
    ["bounds", "--n", str(10**100)],
])
def test_size_cap_checked_before_the_sizes_are_built(argv, tmp_path, capsys):
    """A range far past a cap, or starting far below n = 4, is refused from its
    ends and length alone, without first building its sizes."""
    out = tmp_path / "never.csv"
    start = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [["bounds"], ["verify", "--n", "4..512"]])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_a_usage_error_before_any_work(argv, where, tmp_path, capsys):
    """An --out in a missing directory, or naming a directory, exits 2 before
    the work that would otherwise run first, and leaves no temp file."""
    out = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    start = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not os.listdir(tmp_path)


def test_failed_write_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """An OSError while writing --out exits 2 with its message and removes the temp file."""
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["bounds", "--n", "4..8", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command, default_n", [
    ("verify", "4..64"),
    ("bounds", "4..128"),
    ("sweep", "8,16,32,64,128"),
    ("fourier", "257"),
    ("maximize", "4..64"),
])
def test_default_n(command, default_n):
    assert _build_parser().parse_args([command]).n == default_n


def test_verify_unachievable_tolerance(capsys):
    assert main(["verify", "--n", "4..6", "--tol", "1e-20"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bounds_stdout(capsys):
    assert main(["bounds", "--n", "4..100"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == BOUNDS_HEADER
    assert len(lines) == 98
    first = lines[1].split(",")
    assert int(first[0]) == 4
    assert float(first[3]) == pytest.approx(0.1258, abs=5e-5)
    assert all(float(line.split(",")[3]) > 0 for line in lines[1:])


def test_bounds_margin_is_normal_at_its_cap(capsys):
    """The margin, about a^4/24 with a = 2*pi/n, falls below the smallest
    normal double just past BOUNDS_MAX_N.  At the cap bounds prints a normal
    margin inside criterion 05's bracket a^4/24 - a^6/80 <= margin <= a^4/24,
    to 8 ulps relative."""
    assert main(["bounds", "--n", str(BOUNDS_MAX_N)]) == 0
    margin = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    a = 2.0 * math.pi / BOUNDS_MAX_N
    assert margin >= sys.float_info.min
    rel = 8 * 2.0**-52
    assert (a**4 / 24 - a**6 / 80) * (1 - rel) <= margin <= a**4 / 24 * (1 + rel)


def test_bounds_writes_each_row_as_it_is_made(capsys, monkeypatch):
    """By the time one size's row is computed, the rows before it are
    written: bounds holds no table, whatever the number of sizes."""
    from wirtinger import cli

    original = cli.bound_comparison
    new_lines = []

    def comparing(n):
        new_lines.append(capsys.readouterr().out.count("\n"))
        return original(n)

    monkeypatch.setattr(cli, "bound_comparison", comparing)
    assert main(["bounds", "--n", "4..8"]) == 0
    assert new_lines == [0, 2, 1, 1, 1]  # the header comes with the first row
    assert capsys.readouterr().out.count("\n") == 1


def test_bounds_file_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--n", "4..64", "--out", str(p1)]) == 0
    assert main(["bounds", "--n", "4..64", "--out", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1 and b1.endswith(b"\n")
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".wirtinger-")]


@pytest.fixture
def umask():
    """Set the process umask for one test, and restore it after."""
    saved = os.umask(0o022)
    yield os.umask
    os.umask(saved)


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_new_out_file_gets_the_umask_mode(mask, mode, umask, tmp_path):
    """A new --out file has the mode open() would give it, not the 0o600 of
    the temp file it is renamed from."""
    umask(mask)
    out = tmp_path / "b.csv"
    assert main(["bounds", "--n", "4..6", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_out_file_keeps_the_mode_of_the_file_it_replaces(umask, tmp_path):
    out = tmp_path / "b.csv"
    out.write_text("old\n")
    out.chmod(0o664)
    assert main(["bounds", "--n", "4..6", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o664
    assert out.read_text().startswith(BOUNDS_HEADER + "\n")


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--fn", "sin1", "--n", "8,16,32,64,128", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    l2 = [float(line.split(",")[2]) for line in lines[1:]]
    h1 = [float(line.split(",")[3]) for line in lines[1:]]
    assert abs(l2[-1] - math.pi) < 2e-3
    assert abs(h1[-1] - math.pi) < 1e-3


def test_sweep_deterministic_apart_from_timing(tmp_path):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--fn", "mix13", "--n", "8,16", "--out", str(p1)]) == 0
    assert main(["sweep", "--fn", "mix13", "--n", "8,16", "--out", str(p2)]) == 0

    def strip_timing(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_timing(p1) == strip_timing(p2)


def test_sweep_energy_ratio_for_second_harmonic(capsys):
    assert main(["sweep", "--fn", "sin2", "--n", "16,32,64"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    last = rows[-1].split(",")
    assert float(last[3]) / float(last[2]) == pytest.approx(4.0, abs=0.05)


def test_sweep_unknown_function(tmp_path):
    out = tmp_path / "never.csv"
    assert main(["sweep", "--fn", "nosuch", "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_harmonics_flag(capsys):
    assert main(["sweep", "--harmonics", "0,1", "--n", "16,32"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(SWEEP_HEADER)


def sine_harmonics(j: int, amplitude: float) -> str:
    """--harmonics value of amplitude * sin(jt)."""
    return "--harmonics=" + ",".join(["0"] * (2 * j - 1) + [repr(amplitude)])


@pytest.mark.parametrize("j", [1, 39, 40, 128, 1000])
@pytest.mark.parametrize("amplitude", [1e-8, 1.0, 1e5, 1e8])
def test_sweep_high_harmonics_and_amplitudes(j, amplitude, capsys):
    """A*sin(jt) at n = 4096 > 2j: the tail is A^2/2 for j >= 2 and 0 for the
    first harmonic, within the tail tests' unit-amplitude budget of 1e-10
    scaled by the power A^2."""
    assert main(["sweep", sine_harmonics(j, amplitude), "--n", "4096", "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    tail = 0.0 if j == 1 else amplitude**2 / 2
    assert row["tail_energy"] == pytest.approx(tail, abs=1e-10 * amplitude**2)


def test_sweep_large_first_harmonic(capsys):
    assert main(["sweep", "--harmonics=1e6", "--n", "512"]) == 0
    assert capsys.readouterr().out.startswith(SWEEP_HEADER)


@pytest.mark.parametrize("harmonics", ["nan", "0,inf", "-inf", "1e160", "1e300,1",
                                       f"{HARMONICS_MAX_ABS_SUM!r},1e140"])
def test_sweep_rejects_harmonics_beyond_the_energy_range(harmonics, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["sweep", f"--harmonics={harmonics}", "--n", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --harmonics")
    assert not os.listdir(tmp_path)


def test_sweep_at_the_harmonics_bound(capsys):
    """The largest accepted coefficient sum, at the largest n, keeps every
    energy finite."""
    assert main(["sweep", f"--harmonics={HARMONICS_MAX_ABS_SUM!r}", "--n", str(SAMPLE_MAX_N),
                 "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in row.values())


@pytest.mark.parametrize("harmonics", ["1e8", "0,1e8"])
def test_fourier_quadrature_fails_at_large_amplitude(harmonics, capsys):
    """The quadrature's tolerance is an absolute 1e-10.  An integrand of size
    1e8 rounds by about 1e-8, so the error estimate misses the tolerance at
    every depth and the open intervals double until the evaluation budget
    ends the refinement: a numerical failure, not a traceback."""
    assert main(["fourier", f"--harmonics={harmonics}", "--n", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")


def test_fourier_quadrature_fails_fast_at_the_rounding_level(capsys):
    """At amplitude 1e6 the tolerance 1e-10 sits at the integrands' rounding
    level, where the error test passes about as often as it fails.  The
    evaluation budget stops the widening frontier within a second or so."""
    start = time.perf_counter()
    assert main(["fourier", "--harmonics=0,1e6", "--n", "16"]) == 1
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")


@pytest.mark.parametrize("harmonics, tail", [("0,0,1", 1.0), ("1,0,0.5,0", 0.25)])
def test_sweep_tail_at_four(harmonics, tail, capsys):
    """At n = 4 the alternating line k = 2 is the tail: cos 2t gives 1 and
    cos t + 0.5 cos 2t gives 0.25."""
    assert main(["sweep", f"--harmonics={harmonics}", "--n", "4", "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["n"] == 4
    assert row["tail_energy"] == pytest.approx(tail, abs=1e-15)


def test_sweep_jsonl_format(capsys):
    assert main(["sweep", "--fn", "sin1", "--n", "8,16", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert set(row) == set(SWEEP_HEADER.split(","))


def test_fourier_schema_and_determinism(tmp_path):
    p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(["fourier", "--fn", "mix13", "--n", "257", "--jmax", "4",
                 "--out", str(p1)]) == 0
    assert main(["fourier", "--fn", "mix13", "--n", "257", "--jmax", "4",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == FOURIER_HEADER
    assert len(lines) == 5
    row3 = lines[3].split(",")
    assert float(row3[1]) == pytest.approx(0.5, abs=1e-3)  # a_3 discrete
    assert float(row3[3]) == pytest.approx(0.5, abs=1e-9)  # a_3 quadrature


def test_fourier_single_harmonic(capsys):
    assert main(["fourier", "--fn", "sin1", "--n", "129", "--jmax", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("command", [["sweep"], ["fourier", "--jmax", "8"]])
def test_sample_cap(command):
    """2^20 is accepted and 2^20 + 1 refused, checked on the config alone."""
    def config(n):
        return _make_config(_build_parser().parse_args([*command, "--fn", "sin1", "--n", str(n)]))

    assert SAMPLE_MAX_N == 2**20
    assert config(2**20).ns == (2**20,)
    with pytest.raises(ConfigError, match="capped"):
        config(2**20 + 1)


@pytest.mark.parametrize("within, over", [
    ("1048576,1048575,1048574,1048573,6", "1048576,1048575,1048574,1048573,7"),
    ("1048576,1048576,1048575,1048574,1048573,6", "1048576,1048576,1048575,1048574,1048573,7"),
    ("4..2895", "4..2896"),
])
def test_sweep_sample_cap(within, over):
    """A sweep's sizes may sum to SWEEP_MAX_SAMPLES, a repeated size counted
    once, and no more, checked on the config alone."""
    def config(n):
        return _make_config(_build_parser().parse_args(["sweep", "--fn", "sin1", "--n", n]))

    assert SWEEP_MAX_SAMPLES == 4 * 2**20
    config(within)
    with pytest.raises(ConfigError, match=f"capped at {SWEEP_MAX_SAMPLES} samples"):
        config(over)


def test_fourier_runs_a_repeated_size_once(capsys):
    argv = ["fourier", "--fn", "sin1", "--jmax", "2", "--n"]
    assert main([*argv, "16"]) == 0
    once = capsys.readouterr()
    assert main([*argv, "16,16"]) == 0
    assert capsys.readouterr() == once


def test_bounds_counts_a_repeated_size_once():
    """BOUNDS_MAX_SIZES distinct sizes pass with one of them repeated, and one
    more distinct size is refused, checked on the config alone."""
    def config(ns):
        return _make_config(_build_parser().parse_args(["bounds", "--n", ",".join(map(str, ns))]))

    sizes = range(4, 4 + BOUNDS_MAX_SIZES)
    assert config([*sizes, 4, sizes[-1]]).ns == tuple(sizes)
    with pytest.raises(ConfigError, match=f"capped at {BOUNDS_MAX_SIZES} sizes"):
        config([*sizes, sizes[-1] + 1])


def test_maximize_small(capsys):
    assert main(["maximize", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "0.3090169943749" in out


def test_maximize_above_cap():
    assert main(["maximize", "--n", "1000"]) == 2


def test_maximize_range(capsys):
    assert main(["maximize", "--n", "4..12"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 10
    assert all(float(line.split(",")[3]) <= 1e-10 for line in lines[1:])


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "--n", "banana"]) == 2
    # each refused by its own check, named in its message
    for argv, message in [
        (["bounds", "--n", "8..4"], "empty range '8..4'"),
        (["bounds", "--n", ","], "--n parsed to an empty set"),
        (["sweep", "--harmonics=abc", "--n", "8"], "cannot parse --harmonics 'abc'"),
        (["sweep", "--harmonics=,", "--n", "8"], "--harmonics needs at least one coefficient"),
        (["fourier", "--fn", "sin1", "--n", "16,32"], "fourier needs a single --n value"),
        # verify prints a text table; --format encodes only its --out file
        (["verify", "--n", "4..8", "--format", "jsonl"],
         "verify --format needs --out, the file it encodes"),
    ]:
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["sweep", "--n", "8,16"]) == 2  # needs a function
    assert main(["sweep", "--fn", "sin1", "--harmonics", "1,0", "--n", "8"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--n", "4..8", "--tol", "-1"]) == 2
    # --tol must be finite and positive, --seed non-negative
    assert main(["verify", "--n", "4..8", "--tol", "nan"]) == 2
    assert main(["fourier", "--fn", "sin1", "--tol", "nan"]) == 2
    assert main(["verify", "--n", "4..8", "--tol", "inf"]) == 2
    assert main(["verify", "--n", "4..8", "--seed", "-1"]) == 2
    # --tol is read only by verify and fourier, --seed only by verify
    assert main(["bounds", "--tol", "1e-3"]) == 2
    assert main(["sweep", "--fn", "sin1", "--seed", "1"]) == 2
    assert main(["maximize", "--tol", "1e-3"]) == 2
    assert main(["fourier", "--fn", "sin1", "--seed", "1"]) == 2


def test_fourier_honours_tol():
    assert main(["fourier", "--fn", "sin1", "--n", "257", "--tol", "1e-300"]) == 1


# Runs every subcommand through cli.main in a fresh interpreter and prints, per
# command, its stdout and the bytes it wrote to --out, as one JSON object.
_ALL_COMMANDS_CHILD = """
import contextlib, io, json, os, sys, tempfile
from wirtinger.cli import main
commands = [
    ["verify", "--n", "145..160", "--format", "jsonl"],
    ["maximize", "--n", "145..160"],
    ["bounds", "--n", "4..64"],
    ["sweep", "--fn", "mix13", "--n", "8,64,4096"],
    ["fourier", "--fn", "mix13", "--n", "257"],
]
result = {}
with tempfile.TemporaryDirectory() as tmp:
    for argv in commands:
        out = os.path.join(tmp, argv[0])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([*argv, "--out", out])
        with open(out, newline="") as fh:
            result[argv[0]] = {"rc": rc, "stdout": stdout.getvalue(), "out": fh.read()}
json.dump(result, sys.stdout)
"""


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@pytest.mark.skipif(_cpus_available() < 2, reason="OpenBLAS caps its threads at the CPU "
                    "count, so with fewer than 2 CPUs both runs would use one thread")
def test_outputs_do_not_depend_on_the_blas_thread_count():
    """Every subcommand prints and writes the same bytes under 1 and 2 OpenBLAS
    threads; only sweep's elapsed_ms column, a wall-clock time, is left out."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _ALL_COMMANDS_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        sweep = result["sweep"]["out"].splitlines()
        assert sweep[0].endswith(",elapsed_ms")
        result["sweep"]["out"] = [line.rsplit(",", 1)[0] for line in sweep]
        runs.append(result)
    assert all(r["rc"] == 0 for r in runs[0].values())
    assert [c for c in runs[0] if runs[0][c] != runs[1][c]] == []


def test_import_leaves_numpy_random_unloaded():
    """Importing the package and its CLI loads no numpy.random (about 10 ms):
    only `verify` draws random vectors, so no other command pays for it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, wirtinger, wirtinger.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
