"""slabdiff benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a slabdiff checkout; the package is imported from
./src. One closed-loop client runs one op at a time in a single worker
process (bench/worker.py), pinned to one BLAS/OpenMP thread. Workloads and
ops are described in bench/workloads.py and bench/README.md.

--trace 0 reports the end-to-end metrics: set-up time (median of
SETUP_SAMPLES fresh interpreters), op latency median and tail, ops per
second and peak RSS. --trace 1 reports the per-module metrics from a
traced run. All processes are pinned to one CPU, and every time is
normalized to a reference host speed by a reference task measured next to
it (bench/calibration.py). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The inputs, the
environment record, the raw and normalized times, the errors and the
spans go to bench/results/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("presets", "eps_sweep", "fd_oracle", "cli_cold")

#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 3

#: The whole run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn_worker(args, out: Path, env: dict, deadline: float, setup_only: bool) -> tuple[float, float]:
    """Run one worker to completion; return its set-up time, raw and normalized."""
    slowdown_before = calibration.process_slowdown()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # A session of its own lets a kill reach the worker's children as well.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up (got {line!r})")
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    after = json.loads((out / "setup.json").read_text(encoding="utf-8"))["slowdown_after"]
    return setup_s, setup_s / ((slowdown_before + after) / 2)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than 21 samples
    no sample at or above the median has ten beyond it; the upper median
    sample is returned then, with the count beyond it.
    """
    xs = sorted(latencies)
    index = max(len(xs) - 11, len(xs) // 2)
    return xs[index], 100.0 * (index + 1) / len(xs), len(xs) - 1 - index


def normalized(records: list[dict]) -> list[float]:
    return [r["latency"] / r["slowdown"] for r in records]


def ops_per_s(records: list[dict]) -> float:
    return sum(r["error"] is None for r in records) / sum(normalized(records))


def end_to_end(records: list[dict], setups: list[tuple[float, float]], peak_rss_kb: int):
    latencies = normalized(records)
    value, percentile, beyond = tail(latencies)
    raw = [r["latency"] for r in records]
    metrics = {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {"tail_percentile": percentile, "tail_beyond": beyond, "samples": len(records),
             "raw": {"setup_s": [r for r, _ in setups], "op_s.p50": statistics.median(raw),
                     "op_s.tail": tail(raw)[0], "ops_per_s": len(raw) / sum(raw)}}
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "slabdiff" / "__init__.py").is_file():
        print(f"error: no slabdiff package under {SRC}; run from a slabdiff checkout",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    results = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(results, ignore_errors=True)
    tmp = results / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(tmp)

    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn_worker(args, results / f"probe{k}", env, deadline, True))
        setups.append(spawn_worker(args, results, env, deadline, False))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    worker = json.loads((results / "worker.json").read_text(encoding="utf-8"))

    records = worker["traced"] if args.trace else worker["untraced"]
    if args.trace:
        layers = {k: tuple(v) for k, v in worker["layers"].items()}
        untraced = worker["untraced"]
        plain, traced = ops_per_s(untraced), ops_per_s(records)
        layers["trace.untraced_ops_per_s"] = (plain, "1/s")
        layers["trace.ops_per_s"] = (traced, "1/s")
        layers["trace.overhead_ratio"] = (plain / traced - 1.0, "ratio")
        metrics, extra = layers, {}
        records = untraced + records
    else:
        metrics, extra = end_to_end(records, setups, worker["peak_rss_kb"])

    failed = sum(r["error"] is not None for r in records)
    errors = [r["error"] for r in records if r["error"] is not None][:5]
    if worker["warm_up_error"]:
        errors.insert(0, "warm-up: " + worker["warm_up_error"])
    out = {
        "correct": failed == 0 and not worker["warm_up_error"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / "result.json").write_text(json.dumps(
        {**out, **extra, "fail_ratio": failed / len(records), "errors": errors,
         "records": records, "env": worker["env"]}, indent=1),
        encoding="utf-8")
    for error in errors:
        print(error, file=sys.stderr)
    if extra:
        print(f"{args.workload}: {extra['samples']} ops, fail_ratio {failed / len(records)}, "
              f"tail at p{extra['tail_percentile']:.1f} with {extra['tail_beyond']} beyond")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
