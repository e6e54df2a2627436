"""The four benchmark workloads.

Each workload builds a deck of ops from the seed alone, does its set-up,
runs one op at a time and checks the op's output. The worker replays the
deck in whole passes, so every run holds the same mix of ops.

    presets    run_scenario(preset("figureN")), N = 1..4 in a seeded order:
               the paper-reproduction path through profiles, spectral,
               analysis and runner; no FD work.
    eps_sweep  parabolic, hyperbolic and wkb traces plus extrema and
               monotonicity at a seeded eps in [1e-4, 1]: spectral and
               analysis only, coefficients are computed in set-up.
    fd_oracle  heat and telegraph FD solves at nu = 400 compared with the
               series: the FD kernels dominate.
    cli_cold   one fresh `python -m slabdiff validate|coeffs` process per
               op: interpreter start-up and import on every op.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from slabdiff import analysis, fd, profiles, runner, scenario, spectral
from slabdiff.core import TimeGrid

import calibration
import tracing

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference" / "presets.json"
SHIM = BENCH / "cli_shim.py"

#: eps draws closer than this to a two-timescale resonance 1/(2*pi*m)^2
#: (m <= terms) are drawn again.
RESONANCE_GAP = 1e-6

#: Extremum prominence as a fraction of the slab mass, as in the runner.
PROMINENCE_FRACTION = 1e-3

TERMS = 500


class CheckFailed(Exception):
    """An op's output does not match what the benchmark expects."""


def resonant(eps: float, terms: int) -> bool:
    return any(abs(eps - 1.0 / (2.0 * math.pi * m) ** 2) < RESONANCE_GAP for m in range(1, terms + 1))


def stratified(rng: random.Random, count: int, lo: float, hi: float, log: bool = False,
               terms: int | None = None) -> list[float]:
    """One uniform draw in each of `count` equal strata of [lo, hi].

    With log=True the strata are equal in log space. With `terms`, draws
    near a two-timescale resonance of mode m <= terms are rejected.
    """
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    out = []
    for k in range(count):
        while True:
            x = a + (b - a) * (k + rng.random()) / count
            value = 10.0 ** x if log else x
            if terms is None or not resonant(value, terms):
                break
        out.append(value)
    return out


class Workload:
    name = ""
    #: Run one untimed op during set-up so caches and lazy imports are warm.
    warm_up = True
    #: Peak RSS is that of the op's child processes, not of the worker.
    rss_of_children = False
    #: In-process calibration kernel runs after each op, 5-20% of the
    #: op's time.
    calibration_repeats = 1

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.recorder: tracing.Recorder | None = None
        self.deck: list[dict] = self.make_deck(random.Random(seed))

    def make_deck(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def setup(self):
        """Work done once before the first timed op."""

    def run(self, op: dict, work: Path):
        raise NotImplementedError

    def check(self, op: dict, result):
        raise NotImplementedError

    def slowdown(self) -> float:
        """Host slowdown measured with the reference task that fits the op."""
        return calibration.kernel_slowdown(self.calibration_repeats)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def read_curves(path: Path) -> dict[str, list[float]]:
    """Density column of a runner CSV, grouped by model tag."""
    curves: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("u,"):
                continue
            _, _, model, n = line.rstrip("\n").split(",")
            curves.setdefault(model, []).append(float(n))
    return curves


REL_TOL = 1e-13


def compare_curve(values: list[float], ref: dict, where: str):
    """Strided samples within REL_TOL of the curve's scale, and the sum.

    The scale is the curve's largest |n|, so values at the series' noise
    floor are compared on the curve's scale, not their own. The sum may
    move by at most the sum of the per-value tolerances.
    """
    if len(values) != ref["n"]:
        raise CheckFailed(f"{where}: {len(values)} rows, expected {ref['n']}")
    scale = ref["scale"]
    for k, expected in enumerate(ref["samples"]):
        got = values[k * ref["stride"]]
        if abs(got - expected) > REL_TOL * scale:
            raise CheckFailed(f"{where}: row {k * ref['stride']} is {got!r}, expected {expected!r}")
    if abs(math.fsum(values) - ref["sum"]) > REL_TOL * scale * ref["n"]:
        raise CheckFailed(f"{where}: sum {math.fsum(values)!r}, expected {ref['sum']!r}")


class Presets(Workload):
    name = "presets"
    calibration_repeats = 3
    FIGURES = ("figure1", "figure2", "figure3", "figure4")

    def make_deck(self, rng):
        order = list(self.FIGURES)
        rng.shuffle(order)
        return [{"figure": f} for f in order]

    def setup(self):
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def run(self, op, work):
        return runner.run_scenario(scenario.preset(op["figure"]), work)

    def check(self, op, written):
        ref = self.reference[op["figure"]]
        names = sorted(Path(p).name for p in written)
        if names != ref["files"]:
            raise CheckFailed(f"{op['figure']}: wrote {names}, expected {ref['files']}")
        directory = Path(written[0]).parent
        for file_name, models in ref["curves"].items():
            curves = read_curves(directory / file_name)
            if sorted(curves) != sorted(models):
                raise CheckFailed(f"{file_name}: models {sorted(curves)}")
            for model, curve_ref in models.items():
                compare_curve(curves[model], curve_ref, f"{file_name}/{model}")


# ---------------------------------------------------------------------------
# eps_sweep
# ---------------------------------------------------------------------------

class EpsSweep(Workload):
    name = "eps_sweep"
    calibration_repeats = 2
    DECK = 16
    FAMILIES = ("parabolic", "hyperbolic", "wkb")

    def make_deck(self, rng):
        eps = stratified(rng, self.DECK, 1e-4, 1.0, log=True, terms=TERMS)
        rng.shuffle(eps)
        places = [(p, u) for p in ("gaussian", "surface_cosh") for u in (0.0, 0.5)]
        places = places * (self.DECK // len(places))
        rng.shuffle(places)
        return [{"eps": e, "profile": p, "u": u} for e, (p, u) in zip(eps, places)]

    def setup(self):
        self.coeffs = {
            "gaussian": profiles.compute_coefficients(
                profiles.GaussianProfile(sharpness=100.0, amplitude=1.0), TERMS),
            "surface_cosh": profiles.compute_coefficients(
                profiles.SurfaceCoshProfile(sharpness=10.0, amplitude=1.0), TERMS),
        }
        self.times = TimeGrid.linspace(0.0, 1.2, 1201)

    def run(self, op, work):
        coeffs = self.coeffs[op["profile"]]
        out = []
        for family in self.FAMILIES:
            trace = spectral.time_trace(family, coeffs, op["eps"], op["u"], self.times)
            events = analysis.detect_extrema(
                trace, prominence_threshold=PROMINENCE_FRACTION * coeffs.mean)
            out.append((family, trace, events, analysis.classify_monotone(trace)))
        return out

    def check(self, op, out):
        mean = self.coeffs[op["profile"]].mean
        start = [trace.values[0] for _, trace, _, _ in out]
        spread = max(start) - min(start)
        if spread > 1e-12 * max(abs(start[0]), mean):
            raise CheckFailed(f"families differ by {spread!r} at v = 0 (eps {op['eps']!r})")
        if out[0][3] == analysis.NON_MONOTONE:
            raise CheckFailed(f"parabolic trace at u = {op['u']} is not monotone")


# ---------------------------------------------------------------------------
# fd_oracle
# ---------------------------------------------------------------------------

class FdOracle(Workload):
    name = "fd_oracle"
    calibration_repeats = 3
    DECK = 8
    NU = 400
    GATE = {"heat": 1e-3, "telegraph": 2e-3}
    MASS_DRIFT = 1e-9

    def make_deck(self, rng):
        # The later snapshot time sets the op's step count, so it takes each
        # stratum centre of [0.01, 0.05] once per deck: every seed steps the
        # same amount. The seed sets eps, the earlier time and the order.
        late = [0.01 + 0.04 * (k + 0.5) / self.DECK for k in range(self.DECK)]
        eps = stratified(rng, self.DECK, 0.05, 0.2, terms=TERMS)
        rng.shuffle(late)
        rng.shuffle(eps)
        return [{"eps": e, "v": [0.01 + (v - 0.01) * rng.random(), v]} for e, v in zip(eps, late)]

    def setup(self):
        self.profile = profiles.GaussianProfile(sharpness=100.0, amplitude=1.0)
        self.coeffs = profiles.compute_coefficients(self.profile, TERMS)
        cells = profiles.evaluate_profile(self.profile, fd.cell_centers(self.NU))
        self.mass0 = float(np.sum(cells))

    def run(self, op, work):
        times = TimeGrid.from_values(op["v"])
        out = []
        for kind, eps, solve, family in (
            ("heat", 0.0, fd.fd_solve_heat, "parabolic"),
            ("telegraph", op["eps"], fd.fd_solve_telegraph, "hyperbolic"),
        ):
            cfg = fd.FdConfig.auto(self.NU, eps, times)
            for sl in solve(self.profile, cfg):
                series = spectral.field_slice(family, self.coeffs, eps, sl.grid, sl.v)
                out.append((kind, sl, analysis.error_norms(sl, series)))
        return out

    def check(self, op, out):
        for kind, sl, norms in out:
            if not norms.l_inf <= self.GATE[kind]:
                raise CheckFailed(f"{kind} L_inf {norms.l_inf!r} at v = {sl.v!r}")
            drift = abs(float(np.sum(sl.values)) - self.mass0) / self.mass0
            if not drift <= self.MASS_DRIFT:
                raise CheckFailed(f"{kind} mass drift {drift!r} at v = {sl.v!r}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CONFIG = """\
[scenario]
name = {name}
eps = {eps!r}
terms = {terms}
v_range = 0, 1.2, 1201
trace_u = 0.5, 0
models = parabolic, hyperbolic, wkb

[profile]
kind = {kind}
sharpness = {sharpness}
amplitude = 1

[output]
formats = csv, events
"""


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per package from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out


class CliCold(Workload):
    name = "cli_cold"
    warm_up = False  # every op is a cold start by design
    rss_of_children = True

    def make_deck(self, rng):
        # One validate and one coeffs op per profile kind; the coeffs terms
        # are drawn in two strata of [100, 500].
        terms = stratified(rng, 2, 100, 500)
        rng.shuffle(terms)
        deck = []
        for k, kind in enumerate(("gaussian", "surface_cosh")):
            for command in ("validate", "coeffs"):
                t = int(terms[k]) if command == "coeffs" else rng.randint(100, 500)
                eps = stratified(rng, 1, 1e-4, 1.0, log=True, terms=t)[0]
                deck.append({"command": command, "kind": kind, "eps": eps, "terms": t,
                             "config": f"cli_{len(deck)}.cfg"})
        rng.shuffle(deck)
        return deck

    def setup(self):
        inputs = self.out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.expected = []
        for op in self.deck:
            text = CONFIG.format(
                name=op["config"][:-4], eps=op["eps"], terms=op["terms"], kind=op["kind"],
                sharpness=100 if op["kind"] == "gaussian" else 10)
            path = inputs / op["config"]
            path.write_text(text, encoding="utf-8")
            op["path"] = str(path)
            s = scenario.parse_scenario(text)
            if op["command"] == "validate":
                header = [f"OK: scenario {s.name!r} (hash {scenario.scenario_hash(s)})"]
            else:
                header = [f"# profile: {s.profile.tag()}", f"# truncation: {s.truncation}"]
            op["header"] = header

    def slowdown(self):
        return calibration.process_slowdown()

    def run(self, op, work):
        rec = self.recorder
        if rec is None:
            cmd = [sys.executable, "-m", "slabdiff", op["command"], op["path"]]
        else:
            spans_file = work / "spans.json"
            cmd = [sys.executable, "-X", "importtime", str(SHIM), str(spans_file),
                   op["command"], op["path"]]
        spawned = tracing.now()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        exited = tracing.now()
        if rec is not None and proc.returncode == 0:
            child = json.loads(spans_file.read_text(encoding="utf-8"))
            rec.add("cli.startup", spawned, child["start"])
            rec.merge_child(child["spans"], child["counts"])
            rec.add("cli.exit", child["end"], exited)
            rec.count("cli.import.scipy_signal_s", import_times(proc.stderr).get("scipy.signal", 0.0))
        return proc

    def check(self, op, proc):
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
        lines = proc.stdout.splitlines()
        header = op["header"]
        if lines[: len(header)] != header:
            raise CheckFailed(f"stdout starts {lines[:len(header)]}, expected {header}")
        if op["command"] == "coeffs":
            if lines[3] != "m,k" or len(lines) != op["terms"] + 5:
                raise CheckFailed(f"coeffs table has {len(lines) - 4} rows, header {lines[3]!r}")


WORKLOADS = {cls.name: cls for cls in (Presets, EpsSweep, FdOracle, CliCold)}
