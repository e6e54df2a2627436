"""Scenario execution and artifact writing.

Outputs are bit-exact: floats are rendered with repr (shortest round-trip
decimal), lines end with LF, and every file embeds the scenario hash plus
the truncation and grids actually used, so identical scenarios produce
byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import DEFAULT_V_CUTOFF, EchoLadder, detect_extrema, predict_echo_ladder
from .core import TimeGrid
from .fd import fd_solve_heat, fd_solve_telegraph
from .profiles import compute_coefficients
from .scenario import MODEL_ORDER, Scenario, scenario_hash
from .spectral import SPECTRAL_MODELS, FieldSlice, TimeTrace, family_density
from .svgplot import line_chart

#: Fraction of the slab mass used as the default extremum prominence.
PROMINENCE_FRACTION = 1e-3


def _fmt(x: float) -> str:
    return repr(float(x))


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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _csv_text(comments: list[tuple[str, str]], header: str, rows) -> str:
    lines = [f"# {key}: {value}" for key, value in comments]
    lines.append(header)
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _ordered_models(s: Scenario) -> list[str]:
    return [m for m in MODEL_ORDER if m in s.models]


def _ladder_for(s: Scenario, u: float) -> EchoLadder | None:
    source = s.profile.echo_source
    # Both walls (u = +-0.5) see the same ladder: the echo sources are even.
    u = abs(u)
    if source is None or not (s.eps > 0) or u not in (0.0, 0.5):
        return None
    v_max = float(s.time_grid().points[-1])
    v1 = 0.5 * math.sqrt(s.eps)
    count = max(1, int(v_max / v1) + 2)
    return predict_echo_ladder(source, u, s.eps, count)


def run_scenario(s: Scenario, out_dir: str | os.PathLike | None = None) -> list[Path]:
    """Execute a scenario and write its artifact set.

    Writes one field CSV per time in v_list, one trace CSV per position in
    trace_u, an events CSV when requested, optional SVG charts, and a run
    metadata JSON. Returns the written paths.
    """
    directory = resolve_out_dir(out_dir, s)
    run_hash = scenario_hash(s)
    coeffs = compute_coefficients(s.profile, s.truncation)
    grid = s.spatial_grid()
    times = s.time_grid()
    models = _ordered_models(s)
    series_models = [m for m in models if m in SPECTRAL_MODELS]
    written: list[Path] = []

    base_comments = [
        ("scenario", s.name),
        ("hash", run_hash),
        ("version", __version__),
        ("truncation", str(s.truncation)),
    ]

    # Finite-difference results are computed once for all requested times.
    fd_slices: list[FieldSlice] = []
    if "fd" in models:
        cfg = s.fd_config()
        solver = fd_solve_heat if s.eps == 0.0 else fd_solve_telegraph
        fd_slices = solver(s.profile, cfg)

    # Field CSVs, one per requested snapshot time. Each family is evaluated
    # once, as a (time x grid) table.
    if s.v_list is not None:
        v_column = np.array(s.v_list, dtype=float)[:, None]
        field_tables = [
            family_density(m, coeffs, s.eps, grid.points[None, :], v_column)
            for m in series_models
        ]
        for index, v in enumerate(s.v_list):
            slices = [
                FieldSlice(grid=grid, v=float(v), values=table[index], model_tag=m)
                for m, table in zip(series_models, field_tables)
            ]
            if "fd" in models:
                slices.append(fd_slices[index])
            comments = base_comments + [
                ("u_points", str(s.u_points)),
                ("v_requested", _fmt(v)),
            ]
            if s.eps > 0:
                u1 = 0.5 - v / math.sqrt(s.eps)
                comments.append(("wavefront_u1", _fmt(u1)))
            rows = (
                [_fmt(u), _fmt(sl.v), sl.model_tag, _fmt(n)]
                for sl in slices
                for u, n in zip(sl.grid.points, sl.values)
            )
            path = directory / f"{s.name}_field_{index}.csv"
            written.append(
                _write_text(path, _csv_text(comments, "u,v,model,n", rows))
            )
            if "svg" in s.outputs:
                chart = line_chart(
                    f"{s.name}: density at v = {_fmt(v)}",
                    "u",
                    "n",
                    [(sl.model_tag, sl.grid.points, sl.values) for sl in slices],
                    metadata=dict(base_comments),
                )
                written.append(_write_text(directory / f"{s.name}_field_{index}.svg", chart))

    # Traces, one CSV per requested position. Each family is evaluated once,
    # as a (time x position) table.
    traces_by_u: dict[float, list[TimeTrace]] = {}
    u_row = np.array(s.trace_u, dtype=float)[None, :]
    trace_tables = [
        family_density(m, coeffs, s.eps, u_row, times.points[:, None])
        for m in series_models
    ] if s.trace_u else []
    for j, u in enumerate(s.trace_u):
        traces = [
            TimeTrace(u=float(u), times=times, values=table[:, j], model_tag=m)
            for m, table in zip(series_models, trace_tables)
        ]
        if "fd" in models:
            traces.append(_fd_trace(fd_slices, u))
        traces_by_u[u] = traces
        comments = base_comments + [
            ("u", _fmt(u)),
            ("time_points", str(len(times))),
        ]
        rows = (
            [_fmt(tr.u), _fmt(v), tr.model_tag, _fmt(n)]
            for tr in traces
            for v, n in zip(tr.times.points, tr.values)
        )
        path = directory / f"{s.name}_trace_{j}.csv"
        written.append(_write_text(path, _csv_text(comments, "u,v,model,n", rows)))
        if "svg" in s.outputs:
            chart = line_chart(
                f"{s.name}: density at u = {_fmt(u)}",
                "v",
                "n",
                [(tr.model_tag, tr.times.points, tr.values) for tr in traces],
                metadata=dict(base_comments),
            )
            written.append(_write_text(directory / f"{s.name}_trace_{j}.svg", chart))

    # Extrema events over all traces.
    if "events" in s.outputs:
        rows = []
        threshold = PROMINENCE_FRACTION * coeffs.mean
        for u in s.trace_u:
            ladder = _ladder_for(s, u)
            for tr in traces_by_u[u]:
                for event in detect_extrema(
                    tr, DEFAULT_V_CUTOFF, prominence_threshold=threshold
                ):
                    predicted = ""
                    rel_error = ""
                    if ladder is not None and event.kind == "maximum":
                        p = ladder.nearest(event.v)
                        predicted = _fmt(p)
                        rel_error = _fmt(abs(event.v - p) / p)
                    rows.append(
                        [
                            tr.model_tag,
                            _fmt(u),
                            event.kind,
                            _fmt(event.v),
                            _fmt(event.value),
                            _fmt(event.prominence),
                            predicted,
                            rel_error,
                        ]
                    )
        comments = base_comments + [
            ("v_min_cutoff", _fmt(DEFAULT_V_CUTOFF)),
            ("prominence_threshold", _fmt(PROMINENCE_FRACTION * coeffs.mean)),
        ]
        path = directory / f"{s.name}_events.csv"
        written.append(
            _write_text(
                path,
                _csv_text(
                    comments,
                    "model,u,kind,v,value,prominence,predicted_v,rel_error",
                    rows,
                ),
            )
        )

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
        "models": list(models),
        "outputs": list(s.outputs),
        "requested_times": [float(v) for v in times.points],
        "trace_u": list(s.trace_u),
        "files": sorted(p.name for p in written),
    }
    if s.eps > 0 and s.v_list is not None:
        meta["wavefront_u1"] = {
            _fmt(v): 0.5 - v / math.sqrt(s.eps) for v in s.v_list
        }
    if "fd" in models:
        meta["fd"] = {
            "nu": s.fd_nu,
            "dv": cfg.dv,
            "recorded_times": [sl.v for sl in fd_slices],
        }
    path = directory / f"{s.name}_run.json"
    written.append(_write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n"))
    return written


def _fd_trace(fd_slices: list[FieldSlice], u: float) -> TimeTrace:
    """Trace at the cell nearest to u, assembled from recorded slices."""
    cells = fd_slices[0].grid.points
    idx = int(np.argmin(np.abs(cells - u)))
    recorded = np.array([sl.v for sl in fd_slices])
    values = np.array([sl.values[idx] for sl in fd_slices])
    keep = np.concatenate(([True], np.diff(recorded) > 0))
    return TimeTrace(
        u=float(cells[idx]),
        times=TimeGrid(points=recorded[keep]),
        values=values[keep],
        model_tag="fd",
    )
