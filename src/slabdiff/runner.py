"""Scenario execution and artifact writing.

Outputs are bit-exact: floats are written as repr writes them (the
shortest round-trip decimal), lines end with LF, and every file embeds the
scenario hash plus the truncation and grids actually used, so identical
scenarios produce byte-identical CSVs.

A run has three phases. Every model, the FD oracle included, is evaluated
once into a (time x position) table, and every table is checked finite
before the first file is written. A plan then lists one (stem, comments,
title, x axis, curves) entry per field or trace file, each curve (model, u,
v, n): a field file reads row i of each model's fields table, a trace file
column j of each model's traces table. One writer walks the plan, then
writes the events file, whose extrema come from each trace's column, and
run.json.

Curve files are written as bytes, column by column. The texts of every
float array the plan's CSVs read, the axes (the grid, the time grid, the FD
grid and its recorded times) and each density column, are rendered by
numtext.cells, which forms repr's text for whole arrays in numpy: a matrix
of text cells, a row per value, of which each array's rows are a view.
Consecutive arrays render together, in batches of at most TEXT_BATCH values
read in plan order, and each batch is dropped when the next is rendered, so
the cells held at once stay bounded. A curve's rows are its columns' cells
side by side: the axis, the broadcast bytes of its constant u or v
(formatted once per curve by repr) and of its model, and its densities. In
that fresh matrix the axis's separator cells are set to ",", and its text
is the cells with the 0 cells deleted, by one bytes.translate.

run.json is `json.dumps` of its values. It records the time request as the
scenario states it (v_list, or the v_range triple), not the time axis, which
the trace files hold. A trace file states its time points, and in a run with
FD its FD curve's rows, fewer where requested times snap to one step. Every
file is written as bytes by one writer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import __version__, numtext
from .analysis import DEFAULT_V_CUTOFF, detect_extrema, nearest_arrival, wavefront_position
from .core import SPECTRAL_MODELS, TimeGrid, TimeTrace
from .errors import InvalidParameterError
from .fd import fd_solve
from .profiles import compute_coefficients
from .scenario import Scenario, format_float, scenario_hash
from .spectral import family_density
from .svgplot import line_chart

#: Fraction of the slab mass used as the default extremum prominence.
PROMINENCE_FRACTION = 1e-3

#: Values whose texts are rendered in one pass: numtext.WIDTH (25) bytes of
#: text cells each.
TEXT_BATCH = 1 << 18


def resolve_out_dir(explicit: str | os.PathLike | None, s: Scenario) -> Path:
    """Precedence: explicit argument, scenario [output] dir, env, ./out."""
    if explicit is not None:
        return Path(explicit)
    if s.out_dir is not None:
        return Path(s.out_dir)
    env = os.environ.get("DIFFUSION_OUT_DIR")
    if env:
        return Path(env)
    return Path("out")


def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _csv_head(comments: list[tuple[str, str]], header: str) -> str:
    return "".join(f"# {key}: {value}\n" for key, value in comments) + header + "\n"


def _constant(text: str, size: int) -> np.ndarray:
    """size rows of the ASCII cells of text, as a broadcast view."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (size, len(text)))


def _text(cells: np.ndarray) -> bytes:
    """The text of rows of text cells: each row's, ended by its separator."""
    return cells.tobytes().translate(None, b"\0")


def _cells(arrays: list[np.ndarray]):
    """Yield numtext.cells of each of `arrays`, in order, as a view of its
    batch's matrix.

    Consecutive arrays are rendered by one numtext.cells call, in batches of
    at most TEXT_BATCH values (or one larger array); an array read again
    within its batch is rendered once. Each batch's matrix is dropped when
    the next is rendered.
    """
    batch, reads, size = {}, [], 0
    for x in arrays:
        if id(x) not in batch:
            if size and size + x.size > TEXT_BATCH:
                yield from _views(batch, reads)
                batch, reads, size = {}, [], 0
            batch[id(x)], size = (size, x), size + x.size
        reads.append(x)
    yield from _views(batch, reads)


def _views(batch: dict[int, tuple[int, np.ndarray]], reads: list[np.ndarray]) -> list[np.ndarray]:
    """numtext.cells of each of reads, as views of one matrix: the cells of
    the arrays of batch, which maps each array's id to its first row, rendered
    by one call."""
    matrix = numtext.cells(np.concatenate([x for _, x in batch.values()]))
    return [matrix[batch[id(x)][0]:][:x.size] for x in reads]


def run_scenario(s: Scenario, out_dir: str | os.PathLike | None = None) -> list[Path]:
    """Execute a scenario and write its artifact set.

    Writes one field file per time in v_list and one trace file per
    position in trace_u, as CSV and as an SVG chart for each of csv and svg
    in the outputs, an events CSV when requested, and a run metadata JSON.
    Returns the written paths.
    """
    directory = resolve_out_dir(out_dir, s)
    run_hash = scenario_hash(s)
    coeffs = compute_coefficients(s.profile, s.truncation)
    grid = s.spatial_grid()
    times = s.time_grid()
    base_comments = [
        ("scenario", s.name),
        ("hash", run_hash),
        ("version", __version__),
        ("truncation", str(s.truncation)),
    ]

    # Each model's density as one (time x position) table, in entries
    # (model, positions, times, table): a field file reads row i of every
    # fields entry, a trace file column j of every traces entry.
    fields, traces = [], []
    v_list, u_trace = np.array(s.v_list or (), dtype=float), np.array(s.trace_u, dtype=float)
    for m in (m for m in s.models if m in SPECTRAL_MODELS):
        if s.v_list is not None:
            table = family_density(m, coeffs, s.eps, grid.points[None, :], v_list[:, None])
            fields.append((m, grid.points, v_list, table))
        if s.trace_u:
            table = family_density(m, coeffs, s.eps, u_trace[None, :], times.points[:, None])
            traces.append((m, u_trace, times, table))
    if "fd" in s.models:
        # The FD oracle is solved once for all requested times. Its fields
        # keep every recorded step; its traces take the cell nearest to each
        # position, at each distinct recorded time.
        cfg = s.fd_config()
        recorded, fd_cells, table = fd_solve(s.profile, cfg)
        fields.append(("fd", fd_cells, recorded, table))
        keep = np.concatenate(([True], np.diff(recorded) > 0))
        nearest = np.abs(fd_cells[None, :] - u_trace[:, None]).argmin(axis=1)
        traces.append(("fd", fd_cells[nearest], TimeGrid(points=recorded[keep]),
                       table[:, nearest][keep]))
    for m, _, _, table in fields + traces:
        if not np.isfinite(table).all():
            raise InvalidParameterError(f"the {m} densities are not all finite; no file written")

    # Position of the wavefront launched from the profile's echo source, per
    # snapshot time; none for a profile with no single source.
    source = s.profile.echo_source if s.eps > 0 else None
    wavefront = {}
    if source is not None and s.v_list is not None:
        wavefront = {v: wavefront_position(source, s.eps, v) for v in s.v_list}

    # The plan: one (stem, comments, title, x axis, curves) entry per field
    # file, then per trace file, each curve (model, u, v, n). A trace file
    # states its curves' row counts: the time points, and the FD curve's,
    # which holds each recorded step once.
    plan = []
    counts = [("time_points", str(len(times)))]
    counts += [("fd_time_points", str(len(t))) for m, _, t, _ in traces if m == "fd"]
    for i, v in enumerate(s.v_list or ()):
        comments = base_comments + [("u_points", str(s.u_points)), ("v_requested", format_float(v))]
        if wavefront:
            comments.append(("wavefront_u1", format_float(wavefront[v])))
        plan.append((f"{s.name}_field_{i}", comments, f"{s.name}: density at v = {format_float(v)}",
                     "u", [(m, u, t[i], table[i]) for m, u, t, table in fields]))
    for j, u in enumerate(s.trace_u):
        comments = base_comments + [("u", format_float(u))] + counts
        plan.append((f"{s.name}_trace_{j}", comments, f"{s.name}: density at u = {format_float(u)}",
                     "v", [(m, at[j], t.points, table[:, j]) for m, at, t, table in traces]))

    # One writer. The CSVs read their curves' axes and densities, in plan
    # order; with no CSV, no text is rendered.
    texts = _cells([x for *_, curves in plan for _, *xs in curves for x in xs if np.ndim(x)])
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for stem, comments, title, x_name, curves in plan:
        if "csv" in s.outputs:
            data = [_csv_head(comments, "u,v,model,n").encode("utf-8")]
            for model, u, v, n in curves:
                uv = [next(texts) if np.ndim(x) else _constant(f"{format_float(x)},", n.size)
                      for x in (u, v)]
                rows = np.concatenate(uv + [_constant(f"{model},", n.size), next(texts)], axis=1)
                # The axis's rows end in "\n". In a trace file the axis is v,
                # after u's constant cells.
                rows[:, uv[0].shape[1] * (x_name == "v") + numtext.WIDTH - 1] = ord(",")
                data.append(_text(rows))
            written.append(_write(directory / f"{stem}.csv", b"".join(data)))
        if "svg" in s.outputs:
            series = [(model, u if x_name == "u" else v, n) for model, u, v, n in curves]
            chart = line_chart(title, x_name, "n", series, metadata=dict(base_comments))
            written.append(_write(directory / f"{stem}.svg", chart.encode("utf-8")))

    # Each trace's extrema events.
    threshold = PROMINENCE_FRACTION * coeffs.mean
    if "events" in s.outputs:
        events = []
        for j, u in enumerate(s.trace_u):
            for m, at, t, table in traces:
                tr = TimeTrace(u=float(at[j]), times=t, values=table[:, j])
                for event in detect_extrema(tr, DEFAULT_V_CUTOFF, prominence_threshold=threshold):
                    row = [m, format_float(u), event.kind, format_float(event.v),
                           format_float(event.value), format_float(event.prominence), "", ""]
                    if source is not None and event.kind == "maximum":
                        p = nearest_arrival(source, u, s.eps, event.v)
                        row[-2:] = format_float(p), format_float(abs(event.v - p) / p)
                    events.append(row)
        comments = base_comments + [
            ("v_min_cutoff", format_float(DEFAULT_V_CUTOFF)),
            ("prominence_threshold", format_float(threshold)),
        ]
        header = "model,u,kind,v,value,prominence,predicted_v,rel_error"
        text = _csv_head(comments, header) + "".join(",".join(row) + "\n" for row in events)
        written.append(_write(directory / f"{s.name}_events.csv", text.encode("utf-8")))

    # Run metadata.
    meta = {
        "name": s.name,
        "hash": run_hash,
        "version": __version__,
        "eps": s.eps,
        "profile": coeffs.profile_tag,
        "truncation": s.truncation,
        "coefficient_tail": coeffs.tail,
        "equilibrium_density": coeffs.mean,
        "u_points": s.u_points,
        "models": list(s.models),
        "outputs": list(s.outputs),
        ("v_list" if s.v_list else "v_range"): list(s.v_list or s.v_range),
        "trace_u": list(s.trace_u),
        "files": sorted(p.name for p in written),
    }
    if wavefront:
        meta["wavefront_u1"] = {format_float(v): u1 for v, u1 in wavefront.items()}
    if "fd" in s.models:
        meta["fd"] = {"nu": s.fd_nu, "dv": cfg.dv, "recorded_times": recorded.tolist()}
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    written.append(_write(directory / f"{s.name}_run.json", text.encode("utf-8")))
    return written
