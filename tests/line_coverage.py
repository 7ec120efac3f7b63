"""List every line of src/wirtinger that the Tier-1 suite does not run.

Usage: python tests/line_coverage.py

Runs the suite in this process, from tests/, with a line tracer set by
sys.settrace and, for the threads the suite starts (fourier's discrete table
runs on a helper thread), by threading.settrace.  A line is one that a module
of src/wirtinger compiles to: co_lines() over all of the module's code objects.
Each such line that never ran is printed as `path:line: source`.  Exits 1 if a
line is listed or the suite fails, else 0.  The tracer is the standard
library's, so no coverage package is needed.

Kept out of pytest's collection by its name.  Takes about a minute on two
cores, twice the suite's untraced time.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wirtinger"
# __main__.py runs only as `python -m wirtinger`, in a subprocess of
# tests/test_cli.py, which the tracer of this process does not see
SUBPROCESS_ONLY = {"__main__.py"}
# a fixed seed, so that each run draws the same Hypothesis examples
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--continue-on-collection-errors", str(ROOT / "tests")]


def compiled_lines(path: Path) -> set:
    """The line numbers that the module's code objects map an instruction to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 for RESUME
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_suite_traced(executed: dict) -> int:
    """Run the suite, adding each line run in a file named in `executed` to its set."""

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in executed else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest

        return pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in SUBPROCESS_ONLY]
    executed = {str(p): set() for p in modules}
    suite_code = run_suite_traced(executed)
    listed = 0
    for path in modules:
        source = path.read_text().splitlines()
        for line in sorted(compiled_lines(path) - executed[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            listed += 1
    print(f"{listed} lines of src/wirtinger not run; pytest exit code {int(suite_code)}")
    return 1 if listed or suite_code else 0


if __name__ == "__main__":
    sys.exit(main())
