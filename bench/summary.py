"""Run every workload once, untraced, and print its end-to-end metrics.

    python3 bench/summary.py --seed 7 [--seconds 30]

Each row has wall_ref (median, quartiles and pass count), the raw pass
time wall_s, setup_s, peak_rss_mb and ops_failed_frac with the failed and
attempted operation counts, each with its unit.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("verify", "limit", "crosscheck")


def run(workload: str, seed: int, seconds: int) -> tuple:
    """(details, result) printed by one run.py run; exits if the run fails."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload}: run.py exited with code {done.returncode}\n{done.stderr}")
    details, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    runs = {w: run(w, args.seed, args.seconds) for w in WORKLOADS}
    print(f"{'workload':<12}{'wall_ref median [q1, q3] (passes)':<36}{'wall_s':>10}"
          f"{'setup_s':>12}{'peak_rss_mb':>13}  ops_failed_frac (failed/attempted)")
    for w, (details, result) in runs.items():
        m, ratio = result["metrics"], details["wall_ref"]
        cell = (f"{ratio['median']:.2f} {m['wall_ref']['unit']} "
                f"[{ratio['q1']:.2f}, {ratio['q3']:.2f}] ({ratio['samples']})")
        print(f"{w:<12}{cell:<36}{details['wall_s']['median']:>8.4f} s"
              f"{m['setup_s']['value']:>10.4f} {m['setup_s']['unit']}"
              f"{m['peak_rss_mb']['value']:>9.1f} {m['peak_rss_mb']['unit']}"
              f"  {details['ops_failed_frac']:.3g} ({result['failed']}/{result['attempted']} ops)")
    machine = next(iter(runs.values()))[0]["machine"]
    print("machine:", json.dumps(machine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
