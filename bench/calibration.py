"""Host-speed calibration.

On a shared virtual machine the speed of a core can swing by a factor of
two over tens of seconds, which no statistic taken within one run removes.
The benchmark therefore measures a fixed reference task, independent of
slabdiff, next to every op and every set-up, and divides each measured
time by the slowdown of that task against its reference time:

    normalized = measured / (reference task time / REFERENCE)

Two reference tasks match the two kinds of work. The in-process kernel
mixes numpy transcendental ufuncs on trace-sized arrays with Python float
formatting, like the series, analysis and runner code. The process task
starts a fresh interpreter that imports numpy, like set-up and cli_cold,
whose time goes to exec, imports and page faults, which slow down less
than arithmetic does. All processes of a run are pinned to one CPU, so the
reference task and the op see the same core.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Reference times on an idle core of the reference host (2-vCPU Xeon VM).
#: They only set the scale of the normalized times.
KERNEL_REFERENCE_S = 0.003
PROCESS_REFERENCE_S = 0.12

_GRID = np.linspace(0.0, 1.0, 1201)


def kernel_s() -> float:
    start = time.perf_counter()
    total = 0.0
    for k in range(1, 60):
        x = np.exp(-0.01 * k * _GRID) * np.cos(6.283 * k * _GRID)
        total += float(x.sum())
        total += len(",".join(repr(float(v)) for v in x[:40]))
    return time.perf_counter() - start


def process_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - start


def kernel_slowdown(repeats: int) -> float:
    """Median in-process kernel time over `repeats` runs, over its reference."""
    return statistics.median(kernel_s() for _ in range(repeats)) / KERNEL_REFERENCE_S


def process_slowdown() -> float:
    """Fresh-interpreter start-up time over its reference."""
    return process_s() / PROCESS_REFERENCE_S
