"""Hash every output of the program, to show that two checkouts print the same bytes.

Usage: python tests/byte_identity.py ROOT

ROOT is a checkout of this repository.  Every output is made in a
subprocess with PYTHONPATH=ROOT/src, and one `name sha256` line is printed
per output.  Run it on two checkouts and diff the lines: an empty diff means
that every output below is byte for byte the same.

- `verify --n 4..160` on seeds 0..79, and `verify --n 4..512` on seeds 1 and 42;
- `sweep` and `fourier` for each `--fn` function, `bounds` and `maximize`,
  all at their default `--n`;
- `bounds --n 4..100003 --format jsonl`, the largest table `bounds` accepts;
- `fourier --fn cubicodd --n 1024 --jmax 20`, whose harmonics span three
  quadrature groups, and the three `fourier --harmonics=... --n 16` calls
  whose quadrature fails at the rounding level (exit code and stderr);
- the two CLI calls of the benchmark's `limit` workload on seeds 1..10;
- the benchmark's `crosscheck` job on seeds 1..10: 40 pairs of adaptive
  Simpson of L_X^2 at tol 1e-10 and `energy_l2`, on the seeded knots that
  `bench/workloads.py::Crosscheck` draws (rebuilt here, not imported);
- each `ACCEPTANCE` line of tests/test_acceptance.py;
- the stdout of each script under demos/.

That is 144 lines.  A CLI output is its exit code, stdout, stderr and
`--out` file; a crosscheck job's is its exit code, stdout and stderr.  Wall
times differ between identical runs, so they are left out: the sweep's
`elapsed_ms` column and the elapsed seconds at the end of ACCEPTANCE 01.
Kept out of pytest's collection by its name.  Takes about a minute on two
cores.
"""

import concurrent.futures
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FUNCTIONS = ("cos1", "cubicodd", "mix13", "sin1", "sin2")
TIMING_COLUMN = "elapsed_ms"
ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE (\d\d) .*")
ACCEPTANCE_ELAPSED = re.compile(r" in \d+\.\ds$")
WORKERS = 2
CROSSCHECK_SEEDS = range(1, 11)
# bench/workloads.py::Crosscheck's job on the seed given as argv[1]
CROSSCHECK = """
import math, sys
import numpy as np
from wirtinger import pwl, quadrature
rng = np.random.default_rng(int(sys.argv[1]))
for n in np.rint(np.linspace(4, 64, 40)).astype(int).tolist():
    x = rng.standard_normal(n) * 2.0
    interp = pwl.PiecewiseLinear(x)
    quad = quadrature.adaptive_simpson(lambda t: interp(t) ** 2, 0.0, 2.0 * math.pi, tol=1e-10)
    print(repr(quad), repr(pwl.energy_l2(x)))
"""


def _run(root: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=1800)


def _drop_timing(text: str) -> str:
    """CSV text without the timing column."""
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or TIMING_COLUMN not in rows[0]:
        return text
    col = rows[0].index(TIMING_COLUMN)
    return "".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows)


def _sha(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


def _cli(root: Path, argv: list) -> str:
    """The hash of one `wirtinger` call, with its --out file in a temp directory
    if argv names none."""
    with tempfile.TemporaryDirectory() as tmp:
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
        else:
            out = os.path.join(tmp, "out.csv")
            argv = [*argv, "--out", out]
        done = _run(root, ["-m", "wirtinger", *argv])
        text = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else ""
    return _sha(str(done.returncode), done.stdout, done.stderr, _drop_timing(text))


def _limit_argvs(root: Path, workdir: str) -> list:
    """(name, argv) of the benchmark's `limit` calls on seeds 1..10."""
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = []
    for seed in range(1, 11):
        seed_dir = os.path.join(workdir, f"limit-{seed}")  # --out must name an existing directory
        os.mkdir(seed_dir)
        limit = workloads.Limit(seed, seed_dir)
        argvs.append((f"limit-sweep-seed{seed}", limit.sweep_argv))
        argvs.append((f"limit-fourier-seed{seed}", limit.fourier_argv))
    return argvs


def cli_outputs(root: Path, workdir: str) -> list:
    """(name, argv) of every CLI call that is hashed."""
    calls = [(f"verify-4..160-seed{s}", ["verify", "--n", "4..160", "--seed", str(s)])
             for s in range(80)]
    calls += [(f"verify-4..512-seed{s}", ["verify", "--n", "4..512", "--seed", str(s)])
              for s in (1, 42)]
    for fn in FUNCTIONS:
        calls.append((f"sweep-{fn}", ["sweep", "--fn", fn]))
        calls.append((f"fourier-{fn}", ["fourier", "--fn", fn]))
    calls += [("bounds", ["bounds"]), ("maximize", ["maximize"])]
    calls.append(("bounds-4..100003-jsonl", ["bounds", "--n", "4..100003", "--format", "jsonl"]))
    calls.append(("fourier-cubicodd-jmax20", ["fourier", "--fn", "cubicodd", "--n", "1024",
                                              "--jmax", "20"]))
    calls += [(f"fourier-fails-{h}", ["fourier", f"--harmonics={h}", "--n", "16"])
              for h in ("1e8", "0,1e8", "0,1e6")]
    return calls + _limit_argvs(root, workdir)


def acceptance_lines(root: Path) -> list:
    """(name, hash) of each ACCEPTANCE line."""
    done = _run(root, ["-m", "pytest", "-q", "-rP", "-p", "no:cacheprovider",
                       "tests/test_acceptance.py"])
    lines = [m for m in map(ACCEPTANCE_LINE.search, done.stdout.splitlines()) if m]
    if done.returncode != 0 or len(lines) != 10:
        sys.exit(f"tests/test_acceptance.py: exit {done.returncode}, "
                 f"{len(lines)} ACCEPTANCE lines\n{done.stdout[-2000:]}")
    return [(f"acceptance-{m.group(1)}", _sha(ACCEPTANCE_ELAPSED.sub("", m.group(0))))
            for m in lines]


def crosscheck_output(root: Path, seed: int) -> str:
    done = _run(root, ["-c", CROSSCHECK, str(seed)])
    return _sha(str(done.returncode), done.stdout, done.stderr)


def demo_output(root: Path, script: Path) -> str:
    done = _run(root, [str(script)])
    return _sha(str(done.returncode), done.stdout)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    demos = sorted((root / "demos").glob("*.py"))
    with tempfile.TemporaryDirectory() as workdir, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        calls = cli_outputs(root, workdir)
        cli = pool.map(lambda call: _cli(root, call[1]), calls)
        crosscheck = pool.map(lambda seed: crosscheck_output(root, seed), CROSSCHECK_SEEDS)
        demo = pool.map(lambda script: demo_output(root, script), demos)
        results = list(zip((name for name, _ in calls), cli))
        results += [(f"crosscheck-seed{s}", h) for s, h in zip(CROSSCHECK_SEEDS, crosscheck)]
        results += acceptance_lines(root)
        results += [(f"demo-{script.stem}", h) for script, h in zip(demos, demo)]
    for name, digest in results:
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
