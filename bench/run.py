"""Benchmark entry point: one run of one workload, from the checkout's root.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics.  One fresh process
(worker.py) times passes of the workload's job (a closed loop with one
client) while a fixed reference slice is timed every few milliseconds of
each pass; `wall_ref` is the median over the passes of the pass's program
time over the mean slice time.  Between passes the worker times imports of
`wirtinger` and `wirtinger.cli` in fresh interpreters; `setup_s` is their
median.  `peak_rss_mb` is the worker's peak RSS.

With --trace 1 the process measures the per-layer metrics from spans
instead (see worker.py and tracer.py).  Every pass's outputs are checked;
wrong outputs are counted as failed operations.

Prints one JSON line of details (machine facts, spreads, problems), then, as
the last line, {"correct", "attempted", "failed", "metrics"} with exactly the
metrics BENCHMARK.json names for the mode.  The details are also kept in
.bench_out/.  Exits 2 if the program's sources are not in the checkout and
1 if a child process fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify", "limit", "crosscheck")

# BLAS threads in every child: one, so that the timings do not depend on
# how busy the other cores are.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        facts["cpu_model"] = models[0] if models else facts["cpu_model"]
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree; read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    return {**cpu_facts(), "python": platform.python_version(),
            "platform": platform.platform(), "blas_threads": BLAS_THREADS,
            "commit": commit()}


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values), "values": values}


def run_worker(args, env: dict) -> dict:
    """Run the measuring process and return its result."""
    spans = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-spans.npz"
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as scratch:
        out = Path(scratch) / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out), "--spans", str(spans)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            log, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out.exists():
            sys.stderr.write(log)
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(out.read_text())
    for key in ("wall_s", "traced_wall_s", "wall_ref", "reference_s"):
        if key in result:
            result[key] = spread(result[key])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wirtinger" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = metric_specs()
    OUT.mkdir(exist_ok=True)
    env = child_env()
    try:
        result = run_worker(args, env)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
        wanted = specs["per_layer"]
    else:
        values = {"wall_ref": result["wall_ref"]["median"],
                  "setup_s": statistics.median(result["setup_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        wanted = specs["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_facts(), **result.pop("program")},
        "ops_failed_frac": failed / attempted, **result,
    }
    text = json.dumps(details)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
