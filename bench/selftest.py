"""Self-test of the benchmark.

    python3 bench/selftest.py

For each workload:
  * two traced runs with the same seed report identical work counts
    (tracing.EXACT_METRICS);
  * an untraced run with a second seed is correct with no failed op.
Then a copy of the benchmark without the slabdiff sources must exit
non-zero without printing a result. Takes about a minute per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402
from tracing import EXACT_METRICS  # noqa: E402


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    seed = 1
    failures = 0
    for workload in WORKLOADS:
        first, second = (result(bench(ROOT, workload, seed, 1)) for _ in range(2))
        differ = [m for m in EXACT_METRICS if first["metrics"][m] != second["metrics"][m]]
        other = result(bench(ROOT, workload, seed + 1, 0))
        ok = not differ and other["correct"] and other["failed"] == 0
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload}: counts differ {differ}; "
              f"seed {seed + 1}: correct={other['correct']} failed={other['failed']}")

    bare = BENCH / "results" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, WORKLOADS[0], seed, 0)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} without sources: exit code {proc.returncode}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
