import json
import math
import os

import pytest
from oracles import verify_residuals_per_vector

from wirtinger.cli import (
    SAMPLE_MAX_N,
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
    assert parse_n_spec("4..7") == (4, 5, 6, 7)
    assert parse_n_spec("8,16,32") == (8, 16, 32)


def test_verify_passes_small_range(capsys):
    assert main(["verify", "--n", "4..10"]) == 0
    out = capsys.readouterr().out
    for check in ("gram", "action", "canonical", "slack", "oracle"):
        assert check in out
    assert "FAIL" not in out


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


def test_verify_rejects_small_n():
    assert main(["verify", "--n", "3"]) == 2


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


def test_bounds_rejects_bad_range():
    assert main(["bounds", "--n", "2..3"]) == 2


def test_bounds_file_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--n", "4..64", "--out", str(p1)]) == 0
    assert main(["bounds", "--n", "4..64", "--out", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1 and b1.endswith(b"\n")
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".wirtinger-")]


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


def test_fourier_aliasing_guard(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fourier", "--fn", "sin1", "--n", "4", "--jmax", "4",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep"], ["fourier", "--jmax", "8"]])
def test_sample_cap(command):
    """2^20 is accepted and 2^20 + 1 refused, checked on the config alone."""
    def config(n):
        return _make_config(_build_parser().parse_args([*command, "--fn", "sin1", "--n", str(n)]))

    assert SAMPLE_MAX_N == 2**20
    assert config(2**20).ns == (2**20,)
    with pytest.raises(ConfigError, match="capped"):
        config(2**20 + 1)


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


def test_usage_errors_exit_2():
    assert main(["verify", "--n", "banana"]) == 2
    assert main(["sweep", "--n", "8,16"]) == 2  # needs a function
    assert main(["sweep", "--fn", "sin1", "--harmonics", "1,0", "--n", "8"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--n", "4..8", "--tol", "-1"]) == 2
    # --tol is read only by verify and fourier, --seed only by verify
    assert main(["bounds", "--tol", "1e-3"]) == 2
    assert main(["sweep", "--fn", "sin1", "--seed", "1"]) == 2
    assert main(["maximize", "--tol", "1e-3"]) == 2
    assert main(["fourier", "--fn", "sin1", "--seed", "1"]) == 2


def test_fourier_honours_tol():
    assert main(["fourier", "--fn", "sin1", "--n", "257", "--tol", "1e-300"]) == 1
