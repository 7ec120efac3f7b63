"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q bench/test_bench.py

The run tests start real one-second runs of every workload, so the file
takes a few minutes.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402
from workloads import Crosscheck, Limit, Verify  # noqa: E402

WORKLOADS = ("verify", "limit", "crosscheck")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (last_json(bench_run(w, 1)), last_json(bench_run(w, 1))) for w in WORKLOADS}


@pytest.fixture(scope="module")
def plain_runs():
    return {w: last_json(bench_run(w, 0)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(traced_pairs, workload):
    first, second = traced_pairs[workload]
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_has_its_unit(plain_runs, traced_pairs, workload):
    for result, kind in ((plain_runs[workload], "end_to_end"),
                         (traced_pairs[workload][0], "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench_run("verify", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _edit_csv(text: str, row: int, column: str, delta: float) -> str:
    lines = text.splitlines()
    k = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[k] = repr(float(cells[k]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def limit_case(tmp_path_factory):
    workload = Limit(3, str(tmp_path_factory.mktemp("limit")))
    return workload, workload.run()


def test_limit_outputs_pass_unperturbed(limit_case):
    workload, outputs = limit_case
    assert workload.check(outputs) == {"sweep": [], "fourier": []}


def test_perturbed_outputs_count_as_failed(limit_case, monkeypatch):
    workload, outputs = limit_case
    rc, text = outputs["fourier"]
    perturbed = dict(outputs, fourier=(rc, _edit_csv(text, 1, "a_discrete", 1e-6)))
    monkeypatch.setattr(workload, "run", lambda: perturbed)
    tally = worker.Tally()
    worker.untraced_run(workload, tally, seconds=0)
    assert tally.attempted == 2 * worker.MIN_PASSES
    assert tally.failed == worker.MIN_PASSES  # the Fourier table of every pass
    assert all(p.startswith("fourier: a_discrete[1]") for p in tally.problems)


@pytest.mark.parametrize("column", ["energy_l2", "energy_h1", "tail_energy"])
def test_sweep_energy_off_by_a_millionth_fails(limit_case, column):
    workload, outputs = limit_case
    rc, text = outputs["sweep"]
    lines = text.splitlines()
    value = float(lines[4].split(",")[lines[0].split(",").index(column)])
    assert workload.check_sweep(rc, _edit_csv(text, 4, column, 1e-6 * value))
    assert workload.check_sweep(1, text) == ["exit code 1"]


def test_sweep_timing_column_is_ignored(limit_case):
    workload, outputs = limit_case
    rc, text = outputs["sweep"]
    retimed = dict(outputs, sweep=(rc, _edit_csv(text, 1, "elapsed_ms", 123.0)))
    assert workload.check(retimed) == {"sweep": [], "fourier": []}
    assert workload.digest(retimed) == workload.digest(outputs)
    changed = dict(outputs, sweep=(rc, _edit_csv(text, 1, "mean", 1e-3)))
    assert workload.digest(changed) != workload.digest(outputs)


def test_verify_nonzero_exit_or_residual_fails(tmp_path):
    workload = Verify(1, str(tmp_path))
    rows = [{"check": name, "max_residual": 0.0, "threshold": limit, "status": "pass"}
            for name, limit in Verify.THRESHOLDS.items()]
    text = "\n".join(map(json.dumps, rows)) + "\n"
    assert workload.check({"verify": (0, text)}) == {"verify": []}
    assert workload.check({"verify": (1, text)}) == {"verify": ["exit code 1"]}
    rows[0]["max_residual"] = 1.0
    bad = "\n".join(map(json.dumps, rows)) + "\n"
    assert workload.check({"verify": (0, bad)})["verify"]


def test_crosscheck_perturbed_quadrature_fails(tmp_path):
    workload = Crosscheck(2, str(tmp_path))
    outputs = {f"interpolant{i}": (ref, ref) for i, ref in enumerate(workload.reference)}
    assert not any(workload.check(outputs).values())
    quad, energy = outputs["interpolant7"]
    outputs["interpolant7"] = (quad + 1e-6, energy)
    problems = workload.check(outputs)
    assert [op for op, p in problems.items() if p] == ["interpolant7"]


def test_speedometer_samples_a_pass_and_then_stops():
    with worker.Speedometer(interval=0.01) as meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(meter.slices) >= 5
    assert all(seconds > 0 for _, seconds in meter.slices)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_tracer_patches_every_binding_and_restores_it():
    import wirtinger
    import wirtinger.cli
    from wirtinger import analysis, cli, inequality, spectral

    originals = (cli.check_inequality, analysis.build_basis, wirtinger.check_inequality)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.check_inequality is inequality.check_inequality
        assert analysis.build_basis is spectral.build_basis is wirtinger.build_basis
        assert cli.check_inequality.span_name == "inequality.check_inequality"
        assert analysis.build_basis.span_name == "spectral.build_basis"
        spectral.build_basis(8)
    finally:
        tracer.uninstall()
    assert (cli.check_inequality, analysis.build_basis, wirtinger.check_inequality) == originals
    rollup = tracer.rollup()
    assert rollup["spectral.build_basis"]["calls"] == 1
    assert rollup["spectral.build_basis"]["count"] == 8 * 8 * 8
