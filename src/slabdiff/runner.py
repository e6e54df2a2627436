"""Scenario execution and artifact writing.

Outputs are bit-exact: floats are written as repr writes them (the
shortest round-trip decimal), lines end with LF, and every file embeds the
scenario hash plus the truncation and grids actually used, so identical
scenarios produce byte-identical CSVs.

Every model, the FD oracle included, is evaluated once into a (time x
position) table: a field file is row i of each model's fields table, and a
trace file column j of each model's traces table. A trace's extrema events
are found in the same pass that writes its file.

Curve files are written as bytes, column by column. The texts of every
float array the files write, the axes (the grid, the time grid, the FD grid
and its recorded times) and each density column, are rendered together by
numtext.cells, which forms repr's text for whole arrays in numpy, before
any file is written: one matrix of text cells, a row per value, of which
each array's rows are a view. Runs of more than TEXT_BATCH values render
in batches of that size, in the order the files read them, so the cells
held at once stay bounded. An axis that several files share is copied once
per run, with "," as its rows' separator. A curve's rows are its columns'
cells side by side: the axis, the broadcast bytes of its constant u or v
(formatted once per curve by repr) and of its model, and its densities;
its text is those cells with the 0 cells deleted, by one bytes.translate.

run.json's time lists (requested_times, and the FD's recorded_times) are
laid out from the time axes' cells, decoded once per run, not by json's
indented encoder, which is pure Python: json writes a float as repr does,
so the bytes are json's own. Every file is written as bytes by one writer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import __version__, numtext
from .analysis import DEFAULT_V_CUTOFF, detect_extrema, nearest_arrival, wavefront_position
from .core import SPECTRAL_MODELS, TimeGrid, TimeTrace
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
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _csv_head(comments: list[tuple[str, str]], header: str) -> str:
    return "".join(f"# {key}: {value}\n" for key, value in comments) + header + "\n"


def _constant(text: str, size: int) -> np.ndarray:
    """size rows of the ASCII cells of text, as a broadcast view."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (size, len(text)))


def _text(cells: np.ndarray) -> bytes:
    """The text of rows of text cells: each row's, ended by its separator."""
    return cells.tobytes().translate(None, b"\0")


def _rows(arrays: list[np.ndarray]):
    """rows(x): numtext.cells of x, one of `arrays`, as a view of its batch's
    matrix.

    The arrays, listed in the order the run reads them, are rendered by
    numtext.cells in batches of consecutive arrays of at most TEXT_BATCH
    values (or one larger array), each batch when one of its arrays is first
    read. A batch's matrix replaces the one before.
    """
    batches, size = [], 0
    for x in {id(x): x for x in arrays}.values():
        if not batches or size and size + x.size > TEXT_BATCH:
            batches.append([])
            size = 0
        batches[-1].append(x)
        size += x.size
    batch_of = {id(x): batch for batch in batches for x in batch}
    current, views = None, {}

    def rows(x: np.ndarray) -> np.ndarray:
        nonlocal current, views
        if batch_of[id(x)] is not current:
            current = batch_of[id(x)]
            matrix = numtext.cells(np.concatenate(current))
            views = dict(zip(map(id, current),
                             np.split(matrix, np.cumsum([y.size for y in current[:-1]]))))
        return views[id(x)]

    return rows


def _json_text(meta: dict, float_lists: dict[str, tuple[str, int]]) -> str:
    """json.dumps(meta, sort_keys=True, indent=2) plus a newline, where the
    string "\0<name>" stands for the list of floats whose texts (repr, as json
    writes a float), each ended by ",", and nesting depth are float_lists[name].

    json's indented encoder is pure Python, so a long list is laid out here
    as it would lay it out, from texts the run has already made.
    """
    text = json.dumps(meta, sort_keys=True, indent=2)
    for name, (texts, depth) in float_lists.items():
        pad = "\n" + "  " * depth
        items = texts[:-1].replace(",", f",{pad}  ")
        items = f"[{pad}  {items}{pad}]" if texts else "[]"
        text = text.replace(json.dumps("\0" + name), items, 1)
    return text + "\n"


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
    series_models = [m for m in s.models if m in SPECTRAL_MODELS]
    written: list[Path] = []

    base_comments = [
        ("scenario", s.name),
        ("hash", run_hash),
        ("version", __version__),
        ("truncation", str(s.truncation)),
    ]

    def write_curves(stem: str, comments, title: str, x_name: str, curves):
        """Write (model, u, v, n) curves as <stem>.csv and <stem>.svg, per the outputs.

        u and v are each a scalar or an axis array as long as n; the chart
        plots n over x_name ("u" or "v").
        """
        if "csv" in s.outputs:
            data = [_csv_head(comments, "u,v,model,n").encode("utf-8")]
            for model, u, v, n in curves:
                columns = [axis(x) if np.ndim(x) else _constant(f"{format_float(x)},", n.size)
                           for x in (u, v)]
                columns += [_constant(f"{model},", n.size), rows(n)]
                data.append(_text(np.concatenate(columns, axis=1)))
            written.append(_write(directory / f"{stem}.csv", b"".join(data)))
        if "svg" in s.outputs:
            series = [(model, u if x_name == "u" else v, n) for model, u, v, n in curves]
            chart = line_chart(title, x_name, "n", series, metadata=dict(base_comments))
            written.append(_write(directory / f"{stem}.svg", chart.encode("utf-8")))

    # Each model's density as one (time x position) table, in entries
    # (model, positions, times, table): a field file reads row i of every
    # fields entry, a trace file column j of every traces entry.
    fields, traces = [], []
    v_list, u_trace = np.array(s.v_list or (), dtype=float), np.array(s.trace_u, dtype=float)
    for m in series_models:
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
    directory.mkdir(parents=True, exist_ok=True)

    # Every file's curves (model, u, v, n), built before any is written, so
    # that the texts of all their arrays are rendered together.
    field_curves = [[(m, u, t[i], table[i]) for m, u, t, table in fields]
                    for i in range(len(s.v_list or ()))]
    trace_curves = [[(m, TimeTrace(u=float(at[j]), times=t, values=table[:, j]))
                     for m, at, t, table in traces] for j in range(len(s.trace_u))]
    arrays = []
    if "csv" in s.outputs:
        arrays += [x for curves in field_curves for _, u, _, n in curves for x in (u, n)]
        arrays += [x for curves in trace_curves for _, tr in curves
                   for x in (tr.times.points, tr.values)]
    arrays += [times.points] + ([recorded] if "fd" in s.models else [])
    rows = _rows(arrays)
    axes: dict[int, np.ndarray] = {}

    def axis(x: np.ndarray) -> np.ndarray:
        """x's rows, each ended by ",": an axis array, which several files
        share, is copied from its cells once per run."""
        if id(x) not in axes:
            axes[id(x)] = rows(x).copy()
            axes[id(x)][:, -1] = ord(",")
        return axes[id(x)]

    # Position of the wavefront launched from the profile's echo source, per
    # snapshot time; none for a profile with no single source.
    source = s.profile.echo_source if s.eps > 0 else None
    wavefront = {}
    if source is not None and s.v_list is not None:
        wavefront = {v: wavefront_position(source, s.eps, v) for v in s.v_list}

    # Field files, one per requested snapshot time.
    for i, v in enumerate(s.v_list or ()):
        comments = base_comments + [
            ("u_points", str(s.u_points)),
            ("v_requested", format_float(v)),
        ]
        if wavefront:
            comments.append(("wavefront_u1", format_float(wavefront[v])))
        write_curves(
            f"{s.name}_field_{i}", comments, f"{s.name}: density at v = {format_float(v)}",
            "u", field_curves[i],
        )

    # Trace files, one per requested position, and their extrema events.
    threshold = PROMINENCE_FRACTION * coeffs.mean
    events = []
    for j, (u, curves) in enumerate(zip(s.trace_u, trace_curves)):
        comments = base_comments + [
            ("u", format_float(u)),
            ("time_points", str(len(times))),
        ]
        write_curves(
            f"{s.name}_trace_{j}", comments, f"{s.name}: density at u = {format_float(u)}",
            "v", [(m, tr.u, tr.times.points, tr.values) for m, tr in curves],
        )
        if "events" not in s.outputs:
            continue
        for m, tr in curves:
            for event in detect_extrema(tr, DEFAULT_V_CUTOFF, prominence_threshold=threshold):
                predicted = rel_error = ""
                if source is not None and event.kind == "maximum":
                    p = nearest_arrival(source, u, s.eps, event.v)
                    predicted = format_float(p)
                    rel_error = format_float(abs(event.v - p) / p)
                events.append([
                    m, format_float(u), event.kind, format_float(event.v),
                    format_float(event.value), format_float(event.prominence),
                    predicted, rel_error,
                ])
    if "events" in s.outputs:
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
        "requested_times": "\0requested_times",
        "trace_u": list(s.trace_u),
        "files": sorted(p.name for p in written),
    }
    if wavefront:
        meta["wavefront_u1"] = {format_float(v): u1 for v, u1 in wavefront.items()}
    # The time lists are the text of the time axes, as the CSV files write them.
    float_lists = {"requested_times": (_text(axis(times.points)).decode("ascii"), 1)}
    if "fd" in s.models:
        meta["fd"] = {
            "nu": s.fd_nu,
            "dv": cfg.dv,
            "recorded_times": "\0recorded_times",
        }
        float_lists["recorded_times"] = (_text(axis(recorded)).decode("ascii"), 2)
    path = directory / f"{s.name}_run.json"
    written.append(_write(path, _json_text(meta, float_lists).encode("utf-8")))
    return written

