"""Scenario execution and artifact writing.

Outputs are bit-exact: floats are rendered with repr (shortest round-trip
decimal), lines end with LF, and every file embeds the scenario hash plus
the truncation and grids actually used, so identical scenarios produce
byte-identical CSVs.

Every model, the FD oracle included, is evaluated once into a (time x
position) table: a field file is row i of each model's fields table, and a
trace file column j of each model's traces table. A trace's extrema events
are found in the same pass that writes its file.

Curve files are written column by column: an axis that several files share
(the grid, the time grid, the FD grid and its recorded times) is rendered
once per run, a file's constant u or v once per file, and each density
column once.

run.json's time lists (requested_times, and the FD's recorded_times) are
laid out from those same texts, not by json's indented encoder, which is
pure Python: json writes a float as repr does, so the bytes are json's own.
"""

from __future__ import annotations

import json
import os
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import DEFAULT_V_CUTOFF, detect_extrema, nearest_arrival, wavefront_position
from .core import SPECTRAL_MODELS, TimeGrid, TimeTrace
from .fd import fd_solve
from .profiles import compute_coefficients
from .scenario import Scenario, format_float, scenario_hash
from .spectral import family_density
from .svgplot import line_chart

#: Fraction of the slab mass used as the default extremum prominence.
PROMINENCE_FRACTION = 1e-3


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


def _write_text(path: Path, text: str) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _csv_text(comments: list[tuple[str, str]], header: str, rows) -> str:
    lines = [f"# {key}: {value}" for key, value in comments]
    lines.append(header)
    lines.extend(map(",".join, rows))
    return "\n".join(lines) + "\n"


def _texts(values: np.ndarray) -> list[str]:
    """format_float of every element, from one tolist()."""
    return list(map(repr, values.tolist()))


def _json_text(meta: dict, float_lists: dict[str, tuple[list[str], int]]) -> str:
    """json.dumps(meta, sort_keys=True, indent=2) plus a newline, where the
    string "\0<name>" stands for the list of floats whose texts (repr, as json
    writes a float) and nesting depth are float_lists[name].

    json's indented encoder is pure Python, so a long list is laid out here
    as it would lay it out, from texts the run has already made.
    """
    text = json.dumps(meta, sort_keys=True, indent=2)
    for name, (texts, depth) in float_lists.items():
        pad = "\n" + "  " * depth
        items = f"[{pad}  " + f",{pad}  ".join(texts) + f"{pad}]" if texts else "[]"
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

    axes: dict[int, tuple[np.ndarray, list[str]]] = {}

    def cells(x):
        """A column's text: a scalar repeated, or each element of an axis
        array, which several files share and so is rendered once per run."""
        if np.ndim(x) == 0:
            return repeat(format_float(x))
        if id(x) not in axes:
            axes[id(x)] = (x, _texts(x))  # holding x keeps its id unique
        return axes[id(x)][1]

    def write_curves(stem: str, comments, title: str, x_name: str, curves):
        """Write (model, u, v, n) curves as <stem>.csv and <stem>.svg, per the outputs.

        u and v are each a scalar or an axis array as long as n; the chart
        plots n over x_name ("u" or "v").
        """
        if "csv" in s.outputs:
            rows = chain.from_iterable(
                zip(cells(u), cells(v), repeat(model), _texts(n)) for model, u, v, n in curves
            )
            text = _csv_text(comments, "u,v,model,n", rows)
            written.append(_write_text(directory / f"{stem}.csv", text))
        if "svg" in s.outputs:
            series = [(model, u if x_name == "u" else v, n) for model, u, v, n in curves]
            chart = line_chart(title, x_name, "n", series, metadata=dict(base_comments))
            written.append(_write_text(directory / f"{stem}.svg", chart))

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
            "u", [(m, u, t[i], table[i]) for m, u, t, table in fields],
        )

    # Trace files, one per requested position, and their extrema events.
    threshold = PROMINENCE_FRACTION * coeffs.mean
    rows = []
    for j, u in enumerate(s.trace_u):
        curves = [
            (m, TimeTrace(u=float(at[j]), times=t, values=table[:, j]))
            for m, at, t, table in traces
        ]
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
                rows.append([
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
        path = directory / f"{s.name}_events.csv"
        written.append(_write_text(path, _csv_text(comments, header, rows)))

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
    # The time lists reuse the texts of the CSV time columns.
    float_lists = {"requested_times": (cells(times.points), 1)}
    if "fd" in s.models:
        meta["fd"] = {
            "nu": s.fd_nu,
            "dv": cfg.dv,
            "recorded_times": "\0recorded_times",
        }
        float_lists["recorded_times"] = (cells(recorded), 2)
    path = directory / f"{s.name}_run.json"
    written.append(_write_text(path, _json_text(meta, float_lists)))
    return written

