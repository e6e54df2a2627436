"""Run one workload in a fresh interpreter, started by run.py.

The worker imports slabdiff, builds the seeded inputs, does the workload's
set-up and one untimed warm-up op, then prints READY: run.py times set-up
up to that line. The worker then measures the host slowdown and records it
in OUT/setup.json, so run.py can normalize the set-up time. Ops then run one after another, in whole passes through
the deck, until --seconds have passed. With --trace 1 untraced and traced
passes alternate, so the tracing overhead is measured in the same run.
Everything the run measured goes to OUT/worker.json, the seeded inputs to
OUT/inputs.json and the spans to OUT/spans.json.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibration
import tracing
import workloads
from run import THREAD_VARS


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_op(wl: workloads.Workload, op: dict, work: Path, rec: tracing.Recorder | None) -> dict:
    """Time one op, then check it; a failing op is recorded, not raised."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    error = None
    start = tracing.now()
    try:
        with rec.span("op") if rec is not None else nullcontext():
            result = wl.run(op, work)
    except Exception:  # a failed op is counted and the run goes on
        latency = tracing.now() - start
        error = traceback.format_exc(limit=3)
    else:
        latency = tracing.now() - start
        try:
            wl.check(op, result)
        except Exception:  # checks raise CheckFailed; anything else is a failure too
            error = traceback.format_exc(limit=3)
    shutil.rmtree(work, ignore_errors=True)
    return {"latency": latency, "error": error}


class Loop:
    """Runs ops with a host-speed measurement between them.

    Each record gets the mean host slowdown measured just before and just
    after its op (see calibration.py).
    """

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl, self.work = wl, work
        self.slowdown = wl.slowdown()

    def run_pass(self, records: list[dict], rec: tracing.Recorder | None = None):
        """One pass through the deck; traced ops get ids in order of `records`."""
        for op in self.wl.deck:
            if rec is not None:
                rec.op = len(records)
            record = run_op(self.wl, op, self.work, rec)
            after = self.wl.slowdown()
            record["slowdown"] = (self.slowdown + after) / 2
            self.slowdown = after
            records.append(record)

    def untraced(self, seconds: float) -> list[dict]:
        """Whole passes through the deck, at least one, until `seconds` have passed."""
        records = []
        start = tracing.now()
        while not records or tracing.now() - start < seconds:
            self.run_pass(records)
        return records

    def traced(self, seconds: float, spans_file: Path) -> dict:
        """Untraced and traced passes in turn, at least one each, for `seconds`.

        Alternating the passes exposes both halves to the same machine
        state, so their ratio measures the tracing overhead.
        """
        plain, traced = [], []
        rec = tracing.Recorder()
        start = tracing.now()
        while not traced or tracing.now() - start < seconds:
            self.run_pass(plain)
            tracing.install(rec)
            self.wl.recorder = rec
            try:
                self.run_pass(traced, rec)
            finally:
                self.wl.recorder = None
                rec.uninstall()
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": rec.spans,
             "counts": {str(k): v for k, v in rec.counts.items()}}), encoding="utf-8")
        scale = [1.0 / r["slowdown"] for r in traced]
        layers = tracing.layer_metrics(
            rec.spans, rec.counts, set(range(len(self.wl.deck))), scale)
        return {"untraced": plain, "traced": traced, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    work = args.out / "work"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.setup()
    warm_up = run_op(wl, wl.deck[0], work, None) if wl.warm_up else None
    print("READY", flush=True)
    (args.out / "setup.json").write_text(
        json.dumps({"slowdown_after": calibration.process_slowdown()}), encoding="utf-8")
    if args.setup_only:
        return 0

    result = {"deck_len": len(wl.deck), "warm_up_error": warm_up and warm_up["error"]}
    loop = Loop(wl, work)
    if args.trace:
        result.update(loop.traced(args.seconds, args.out / "spans.json"))
    else:
        result["untraced"] = loop.untraced(args.seconds)

    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["env"] = environment()
    (args.out / "inputs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "deck": wl.deck}, indent=1), encoding="utf-8")
    (args.out / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
