"""Spans and work counts recorded around slabdiff's public functions.

`install` rebinds each function in TARGETS, in every loaded slabdiff module
that holds a reference to it, with a wrapper that records a span and the
work counts of the call. slabdiff's own files are not changed. Spans stay
in memory until the run ends; `layer_metrics` turns them into the
per-module metrics.

Timestamps come from time.perf_counter, which is CLOCK_MONOTONIC on Linux,
so spans written by a child process (cli_shim.py) line up with the
parent's.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

now = time.perf_counter

# Span fields, stored as lists so a child process can ship them as JSON.
NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """Spans (name, start, end, parent index, op id) and per-op counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int | None, dict[str, float]] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = self.add(name, now(), None)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = now()
            self._stack.pop()

    def add(self, name: str, start: float, end: float | None, parent: int | None = None):
        """Append a span; its parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = [name, start, end, parent, self.op]
        self.spans.append(record)
        return record

    def count(self, key: str, amount: float):
        bucket = self.counts.setdefault(self.op, {})
        bucket[key] = bucket.get(key, 0) + amount

    def maximum(self, key: str, value: float):
        bucket = self.counts.setdefault(self.op, {})
        bucket[key] = max(bucket.get(key, value), value)

    def merge_child(self, spans: list[list], counts: dict[str, float]):
        """Adopt a child process's spans and counts under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            self.add(name, start, end, parent if child_parent is None else child_parent + offset)
        for key, value in counts.items():
            self.count(key, value)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_run(rec, args, kwargs, written):
    rec.count("runner.files_written", len(written))
    rec.count("runner.bytes_written", sum(os.path.getsize(p) for p in written))


def _count_coeffs(rec, args, kwargs, coeffs):
    rec.count("profiles.coeffs.modes", coeffs.truncation)


def _count_series(rec, args, kwargs, result):
    coeffs = _arg(args, kwargs, 1, "coefficients")
    rec.count("spectral.mode_points", coeffs.truncation * len(result.values))


def _fd_counter(bytes_per_cell: int):
    # Steps are computed from the config with the solver's own snapping
    # rule; bytes are computed from array sizes (float64 arrays read and
    # written per cell update), not measured.
    def count(rec, args, kwargs, slices):
        cfg = _arg(args, kwargs, 1, "cfg")
        steps = max(int(round(t / cfg.dv)) for t in cfg.snapshot_times.points)
        rec.count("fd.steps", steps)
        rec.count("fd.cell_updates", steps * cfg.nu)
        rec.count("fd.bytes_computed", steps * cfg.nu * bytes_per_cell)

    return count


def _count_events(rec, args, kwargs, events):
    rec.count("analysis.events", len(events))


def _count_error(rec, args, kwargs, norms):
    rec.maximum("fd.linf", norms.l_inf)


# (module, function, span name, counter). A function missing from a later
# version of slabdiff is skipped; its time then shows in its caller's span.
TARGETS = (
    ("slabdiff.runner", "run_scenario", "runner.run", _count_run),
    ("slabdiff.svgplot", "line_chart", "runner.svg", None),
    ("slabdiff.profiles", "compute_coefficients", "profiles.coeffs", _count_coeffs),
    ("slabdiff.spectral", "field_slice", "spectral.slice", _count_series),
    ("slabdiff.spectral", "time_trace", "spectral.trace", _count_series),
    ("slabdiff.spectral", "parabolic_density", "spectral.parabolic", None),
    ("slabdiff.spectral", "hyperbolic_density", "spectral.hyperbolic", None),
    ("slabdiff.spectral", "wkb_density", "spectral.wkb", None),
    ("slabdiff.fd", "fd_solve_heat", "fd.heat", _fd_counter(2 * 8)),
    ("slabdiff.fd", "fd_solve_telegraph", "fd.telegraph", _fd_counter(3 * 8)),
    ("slabdiff.analysis", "detect_extrema", "analysis.extrema", _count_events),
    ("slabdiff.analysis", "classify_monotone", "analysis.monotone", None),
    ("slabdiff.analysis", "error_norms", "analysis.error_norms", _count_error),
    ("slabdiff.scenario", "parse_scenario", "scenario.parse", None),
    ("slabdiff.scenario", "scenario_hash", "scenario.hash", None),
    ("slabdiff.cli", "main", "cli.main", None),
)


def _traced(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder):
    """Rebind every TARGETS function in all loaded slabdiff modules."""
    for module_name, attr, span_name, counter in TARGETS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        wrapper = _traced(rec, span_name, original, counter)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "slabdiff" or name.startswith("slabdiff.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    rec._undo.append((module, key, original))


# Per-module metrics: (metric, span name, inclusive?). Time metrics are
# normalized seconds per op, averaged over every traced op; self time is a
# span's duration minus its child spans.
TIME_METRICS = (
    ("profiles.coeffs.s", "profiles.coeffs", False),
    ("spectral.slice.s", "spectral.slice", False),
    ("spectral.trace.s", "spectral.trace", False),
    ("spectral.parabolic.s", "spectral.parabolic", False),
    ("spectral.hyperbolic.s", "spectral.hyperbolic", False),
    ("spectral.wkb.s", "spectral.wkb", False),
    ("fd.heat.s", "fd.heat", False),
    ("fd.telegraph.s", "fd.telegraph", False),
    ("analysis.extrema.s", "analysis.extrema", False),
    ("analysis.monotone.s", "analysis.monotone", False),
    ("analysis.error_norms.s", "analysis.error_norms", False),
    ("runner.run.s", "runner.run", True),
    ("runner.self_s", "runner.run", False),
    ("runner.svg.s", "runner.svg", False),
    ("scenario.parse.s", "scenario.parse", False),
    ("scenario.hash.s", "scenario.hash", False),
    ("cli.startup_s", "cli.startup", False),
    ("cli.import_s", "cli.import", True),
    ("cli.main.s", "cli.main", False),
    ("cli.exit_s", "cli.exit", False),
)

# Calls per op, counted over the first pass through the op deck.
CALL_METRICS = (
    ("profiles.coeffs.calls", "profiles.coeffs"),
    ("spectral.slice.calls", "spectral.slice"),
    ("spectral.trace.calls", "spectral.trace"),
    ("analysis.extrema.calls", "analysis.extrema"),
)

# Work counts per op over the first pass; these repeat exactly for a seed.
COUNT_METRICS = (
    ("profiles.coeffs.modes", "count/op"),
    ("spectral.mode_points", "count/op"),
    ("fd.steps", "count/op"),
    ("fd.cell_updates", "count/op"),
    ("fd.bytes_computed", "B/op"),
    ("analysis.events", "count/op"),
    ("runner.files_written", "count/op"),
    ("runner.bytes_written", "B/op"),
)

EXACT_METRICS = tuple(name for name, _ in CALL_METRICS) + tuple(name for name, _ in COUNT_METRICS)


def layer_metrics(spans, counts, first_pass: set[int], scale: list[float]) -> dict[str, tuple[float, str]]:
    """Per-module metrics from the spans and counts of the traced ops.

    Op root spans are named "op"; every other span belongs to a module.
    A span's duration is multiplied by scale[op], the host-speed factor of
    its op, 1 / slowdown (calibration.py). Returns {metric: (value, unit)}.
    """
    ops = len(scale)

    def duration(span) -> float:
        return (span[END] - span[START]) * scale[span[OP]]

    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += duration(span)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    first_calls: dict[str, int] = {}
    op_total = 0.0
    module_self = 0.0
    for index, span in enumerate(spans):
        length = duration(span)
        if span[NAME] == "op":
            op_total += length
            continue
        own = length - child[index]
        module_self += own
        self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + own
        incl_s[span[NAME]] = incl_s.get(span[NAME], 0.0) + length
        if span[OP] in first_pass:
            first_calls[span[NAME]] = first_calls.get(span[NAME], 0) + 1

    def total(key: str, which: set[int] | None = None) -> float:
        return sum(c.get(key, 0) for op, c in counts.items() if which is None or op in which)

    out: dict[str, tuple[float, str]] = {}
    for metric, name, inclusive in TIME_METRICS:
        out[metric] = ((incl_s if inclusive else self_s).get(name, 0.0) / ops, "s/op")
    signal_s = sum(c.get("cli.import.scipy_signal_s", 0.0) * scale[op]
                   for op, c in counts.items() if op is not None)
    out["cli.import.scipy_signal_s"] = (signal_s / ops, "s/op")
    for metric, name in CALL_METRICS:
        out[metric] = (first_calls.get(name, 0) / len(first_pass), "count/op")
    for metric, unit in COUNT_METRICS:
        out[metric] = (total(metric, first_pass) / len(first_pass), unit)
    series_s = incl_s.get("spectral.slice", 0.0) + incl_s.get("spectral.trace", 0.0)
    fd_s = incl_s.get("fd.heat", 0.0) + incl_s.get("fd.telegraph", 0.0)
    out["spectral.mode_points_per_s"] = (
        total("spectral.mode_points") / series_s if series_s else 0.0, "points/s")
    out["fd.steps_per_s"] = (total("fd.steps") / fd_s if fd_s else 0.0, "steps/s")
    out["fd.linf"] = (max((c.get("fd.linf", 0.0) for c in counts.values()), default=0.0), "density")
    out["trace.op_s"] = (op_total / ops, "s/op")
    out["trace.accounted_share"] = (module_self / op_total if op_total else 0.0, "ratio")
    return out
