import json
import math
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

import oracles
from slabdiff import (
    InvalidParameterError,
    Scenario,
    ScenarioValidationError,
    UniformProfile,
    GaussianProfile,
    SurfaceCoshProfile,
    compute_coefficients,
    preset,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)
from slabdiff import numtext, runner
from slabdiff.cli import main
from slabdiff.fd import fd_solve
from slabdiff.scenario import MODEL_ORDER, override
from slabdiff.svgplot import line_chart

#: Figure values recorded by bench/record_reference.py.
FIGURE_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "presets.json"

CONFIG_SMALL = """
[scenario]
name = demo
eps = 0.13
terms = 50
u_points = 51
v = 0.01, 0.1
models = parabolic, hyperbolic

[profile]
kind = gaussian
sharpness = 100
amplitude = 1
"""


def read_csv(path: Path):
    comments = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_uniform_scenario_outputs_equilibrium(tmp_path):
    s = Scenario(
        name="flat", eps=0.0, profile=UniformProfile(level=2.0),
        truncation=8, u_points=21, v_list=(0.05,),
        models=("parabolic", "wkb", "fd"), fd_nu=32,
    )
    paths = run_scenario(s, tmp_path)
    field = tmp_path / "flat_field_0.csv"
    assert field in paths
    comments, header, rows = read_csv(field)
    assert header == ["u", "v", "model", "n"]
    assert comments["hash"] == scenario_hash(s)
    models = {r[2] for r in rows}
    assert models == {"parabolic", "wkb", "fd"}
    for r in rows:
        assert float(r[3]) == pytest.approx(2.0, abs=1e-12)


def test_csv_format_is_strict(tmp_path):
    s = Scenario(
        name="fmt", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=50, u_points=11, v_list=(0.01,), models=("parabolic",),
    )
    run_scenario(s, tmp_path)
    raw = (tmp_path / "fmt_field_0.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    assert not text.endswith("\n\n")
    for line in text.splitlines():
        assert line == line.rstrip()
    # floats parse back to the exact binary value (shortest round-trip repr)
    _, _, rows = read_csv(tmp_path / "fmt_field_0.csv")
    for r in rows:
        assert repr(float(r[3])) == r[3]
        assert repr(float(r[0])) == r[0]


def test_wavefront_metadata_for_snapshot_files(tmp_path):
    s = Scenario(
        name="front", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=50, u_points=11, v_list=(0.01, 0.1), models=("parabolic",),
    )
    run_scenario(s, tmp_path)
    comments, _, _ = read_csv(tmp_path / "front_field_1.csv")
    # the Gaussian's front leaves the center
    expected = 0.1 / math.sqrt(0.13)
    assert float(comments["wavefront_u1"]) == pytest.approx(expected, rel=1e-12)
    meta = json.loads((tmp_path / "front_run.json").read_text())
    assert float(meta["wavefront_u1"]["0.1"]) == pytest.approx(expected, rel=1e-12)
    assert meta["hash"] == scenario_hash(s)
    # a profile with no single source has no front
    run_scenario(replace(s, name="flat", profile=UniformProfile(level=2.0)), tmp_path)
    comments, _, _ = read_csv(tmp_path / "flat_field_1.csv")
    assert "wavefront_u1" not in comments
    assert "wavefront_u1" not in json.loads((tmp_path / "flat_run.json").read_text())


def test_traces_and_events_outputs(tmp_path):
    s = Scenario(
        name="echo", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=64, v_range=(0.0, 1.0, 501), trace_u=(0.5, 0.0),
        models=("parabolic", "hyperbolic"), outputs=("csv", "events"),
    )
    paths = run_scenario(s, tmp_path)
    names = {p.name for p in paths}
    assert {"echo_trace_0.csv", "echo_trace_1.csv", "echo_events.csv", "echo_run.json"} <= names
    comments, header, rows = read_csv(tmp_path / "echo_events.csv")
    assert header == ["model", "u", "kind", "v", "value", "prominence",
                      "predicted_v", "rel_error"]
    hyp_maxima = [r for r in rows if r[0] == "hyperbolic" and r[2] == "maximum"]
    assert hyp_maxima, "expected detected echoes"
    first = hyp_maxima[0]
    assert float(first[6]) == pytest.approx(0.5 * math.sqrt(0.13), rel=1e-12)
    assert float(first[7]) < 0.2
    # parabolic traces are monotone: no parabolic events
    assert not [r for r in rows if r[0] == "parabolic"]


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
def test_figure_values_match_recorded_reference(tmp_path, name):
    # Every 10th density of every curve, and each curve's sum, within 1e-13
    # of the curve's peak, as the benchmark checks them.
    ref = json.loads(FIGURE_REFERENCE.read_text(encoding="utf-8"))[name]
    written = run_scenario(preset(name), tmp_path)
    assert sorted(p.name for p in written) == ref["files"]
    for file_name, models in ref["curves"].items():
        _, _, rows = read_csv(tmp_path / file_name)
        curves = {}
        for _, _, model, n in rows:
            curves.setdefault(model, []).append(float(n))
        assert sorted(curves) == sorted(models)
        for model, r in models.items():
            values = curves[model]
            tol = 1e-13 * r["scale"]
            assert len(values) == r["n"]
            np.testing.assert_allclose(values[:: r["stride"]], r["samples"], rtol=0, atol=tol)
            assert abs(math.fsum(values) - r["sum"]) <= tol * r["n"]


def test_both_walls_get_the_echo_ladder(tmp_path):
    s = Scenario(
        name="walls", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=64, v_range=(0.0, 1.0, 501), trace_u=(0.5, -0.5),
        models=("hyperbolic",), outputs=("csv", "events"),
    )
    run_scenario(s, tmp_path)
    _, _, rows = read_csv(tmp_path / "walls_events.csv")
    by_wall = {u: [r[:1] + r[2:] for r in rows if r[1] == u] for u in ("0.5", "-0.5")}
    assert by_wall["0.5"], "expected detected echoes"
    assert all(r[5] for r in by_wall["0.5"] if r[1] == "maximum")
    assert by_wall["-0.5"] == by_wall["0.5"]


def test_every_trace_position_gets_predicted_arrivals(tmp_path):
    s = Scenario(
        name="offaxis", eps=0.13, profile=SurfaceCoshProfile(10.0, 1.0),
        truncation=64, v_range=(0.0, 1.2, 601), trace_u=(0.5, -0.5, 0.25),
        models=("hyperbolic",), outputs=("events",),
    )
    run_scenario(s, tmp_path)
    _, _, rows = read_csv(tmp_path / "offaxis_events.csv")
    off_axis = [r for r in rows if r[1] == "0.25" and r[2] == "maximum"]
    assert len(off_axis) == 7 and all(r[6] and r[7] for r in off_axis)
    # the near wall's echo arrives after sqrt(eps)/4, the far wall's after 3*sqrt(eps)/4
    assert [r[6] for r in off_axis[:2]] == ["0.09013878188659974", "0.2704163456597992"]
    # both walls see the arrivals k * sqrt(eps): kind, v, predicted_v, rel_error
    wall = [
        ("minimum", "0.20600000000000002", "", ""),
        ("maximum", "0.36", "0.36055512754639896", "0.0015396467945876938"),
        ("minimum", "0.594", "", ""),
        ("maximum", "0.722", "0.7211102550927979", "0.0012338541865384541"),
        ("minimum", "0.972", "", ""),
        ("maximum", "1.082", "1.0816653826391969", "0.0003093538594965075"),
    ]
    for u in ("0.5", "-0.5"):
        assert [(r[2], r[3], r[6], r[7]) for r in rows if r[1] == u] == wall


def test_fd_rows_use_recorded_times(tmp_path):
    s = Scenario(
        name="fdrun", eps=0.0, profile=GaussianProfile(100.0, 1.0),
        truncation=16, u_points=11, v_list=(0.0101,), models=("fd",), fd_nu=50,
    )
    run_scenario(s, tmp_path)
    _, _, rows = read_csv(tmp_path / "fdrun_field_0.csv")
    meta = json.loads((tmp_path / "fdrun_run.json").read_text())
    recorded = meta["fd"]["recorded_times"][0]
    assert all(float(r[1]) == recorded for r in rows)
    dv = meta["fd"]["dv"]
    assert recorded == round(0.0101 / dv) * dv


def test_svg_written_when_requested(tmp_path):
    s = Scenario(
        name="pic", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=16, u_points=21, v_list=(0.01,),
        models=("parabolic",), outputs=("csv", "svg"),
    )
    paths = run_scenario(s, tmp_path)
    svg = tmp_path / "pic_field_0.svg"
    assert svg in paths
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert f"hash: {scenario_hash(s)}" in text


def test_svg_only_writes_no_field_or_trace_csv(tmp_path):
    s = Scenario(
        name="pic", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=16, u_points=21, v_list=(0.01, 0.1), trace_u=(0.5,),
        models=("parabolic",), outputs=("svg",),
    )
    names = sorted(p.name for p in run_scenario(s, tmp_path))
    assert names == ["pic_field_0.svg", "pic_field_1.svg", "pic_run.json", "pic_trace_0.svg"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.parametrize("name", ["a-b", "-a", "a-", "a.-_b", "-", "a--b", "--a", "a---"])
def test_every_svg_a_run_writes_is_well_formed_xml(tmp_path, name):
    # An XML comment may not hold "--", and each chart embeds the name in
    # one: such a name is refused, and every other chart parses.
    try:
        s = Scenario(
            name=name, eps=0.13, profile=GaussianProfile(100.0, 1.0),
            truncation=16, u_points=21, v_list=(0.01, 0.1), trace_u=(0.0, 0.5),
            models=("parabolic", "hyperbolic"), outputs=("svg",),
        )
    except ScenarioValidationError as refused:
        assert "--" in name and str(refused).startswith("name must not hold '--'")
        return
    charts = [p for p in run_scenario(s, tmp_path) if p.suffix == ".svg"]
    assert len(charts) == 4
    for chart in charts:
        root = ET.parse(chart).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


def run_json_cases():
    gaussian = GaussianProfile(100.0, 1.0)
    yield from (pytest.param(preset(f"figure{n}"), id=f"figure{n}") for n in range(1, 5))
    yield pytest.param(Scenario(
        name="fd", eps=0.13, profile=gaussian, truncation=16, u_points=21,
        v_list=(0.0, 1e-6, 0.05), trace_u=(0.5, -0.0), models=("hyperbolic", "fd"), fd_nu=64,
        outputs=("csv", "svg"),
    ), id="fd")
    yield pytest.param(Scenario(
        name="no_trace", eps=0.0, profile=gaussian, truncation=16, u_points=21,
        v_list=(0.01, 0.1), models=("parabolic",),
    ), id="no_trace")
    yield pytest.param(Scenario(
        name="no_csv", eps=0.13, profile=gaussian, truncation=16, v_range=(0.0, 0.3, 301),
        trace_u=(0.5,), models=("hyperbolic",), outputs=("svg", "events"),
    ), id="no_csv")


@pytest.mark.parametrize("s", run_json_cases())
def test_run_json_is_the_indented_json_of_its_values(tmp_path, s):
    # The bytes are json's own. run.json records the time request under its
    # scenario field, and the trace files hold the time axis: each series
    # curve's v column is every point of the time grid.
    run_scenario(s, tmp_path)
    text = (tmp_path / f"{s.name}_run.json").read_text()
    meta = json.loads(text)
    assert text == json.dumps(meta, sort_keys=True, indent=2) + "\n"
    field = "v_list" if s.v_list is not None else "v_range"
    assert {"v_list", "v_range"} & meta.keys() == {field}
    assert meta[field] == list(getattr(s, field))
    traces = sorted(tmp_path.glob(f"{s.name}_trace_*.csv"))
    assert len(traces) == len(s.trace_u) * ("csv" in s.outputs)
    for path in traces:
        _, _, rows = read_csv(path)
        for m in (m for m in s.models if m != "fd"):
            assert [float(r[1]) for r in rows if r[2] == m] == s.time_grid().points.tolist()
    if "fd" in s.models:
        recorded = fd_solve(s.profile, s.fd_config())[0]
        assert meta["fd"]["recorded_times"] == recorded.tolist()


def test_a_trace_file_states_the_rows_of_its_fd_curve(tmp_path):
    # 0 and 1e-6 snap to one FD step, which an FD trace holds once: 3 FD rows
    # against 4 time points. A run without FD writes no fd_time_points line.
    s = Scenario(
        name="fdfield", eps=0.13, profile=GaussianProfile(100.0, 1.0), truncation=50,
        u_points=51, v_list=(0.0, 1e-6, 0.05, 0.1), trace_u=(0.5, 0.0),
        models=("parabolic", "hyperbolic", "fd"), fd_nu=64,
    )
    run_scenario(s, tmp_path / "fd")
    run_scenario(replace(s, models=("parabolic", "hyperbolic")), tmp_path / "series")
    for j in range(2):
        comments, _, rows = read_csv(tmp_path / "fd" / f"fdfield_trace_{j}.csv")
        assert list(comments)[-2:] == ["time_points", "fd_time_points"]
        assert comments["time_points"] == "4"
        assert comments["fd_time_points"] == "3"
        assert sum(r[2] == "fd" for r in rows) == 3
        assert sum(r[2] == "hyperbolic" for r in rows) == 4
        comments, _, _ = read_csv(tmp_path / "series" / f"fdfield_trace_{j}.csv")
        assert list(comments)[-1] == "time_points"
        assert "fd_time_points" not in comments


def test_an_fd_run_holds_its_table_once(tmp_path):
    # 2,001 recorded times of 400 cells: a 6.1 MiB table. The runner reads
    # fd_solve's table as it is; stacking a list of slices into a second
    # copy peaked at 13.25 MiB. A warm-up run fills every cache first.
    s = Scenario(
        name="fdonly", eps=0.13, profile=GaussianProfile(100.0, 1.0), truncation=50,
        v_range=(0.0, 0.2, 2001), trace_u=(0.5, 0.0), models=("fd",), fd_nu=400,
        outputs=("csv",),
    )
    run_scenario(s, tmp_path)
    tracemalloc.start()
    try:
        run_scenario(s, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (2001 * 400 * 8)


@pytest.mark.parametrize("model", ["hyperbolic", "fd"])
@pytest.mark.parametrize("files", [
    dict(v_list=(0.01, 0.05, 0.1)),
    dict(v_range=(0.0, 0.1, 101), trace_u=(0.5, 0.0)),
], ids=["fields", "traces"])
def test_a_density_table_with_nan_stops_the_run_before_any_file(tmp_path, monkeypatch,
                                                                 model, files):
    # One finiteness rule for every table. A NaN in a field table was written
    # to its CSV, and one in a trace table stopped the run after its
    # directory was made.
    def with_nan(table):
        table = np.array(table)
        table[len(table) // 2] = np.nan
        return table

    density, solve = runner.family_density, runner.fd_solve

    def density_with_nan(m, *args):
        table = density(m, *args)
        return with_nan(table) if m == model else table

    def solve_with_nan(profile, cfg):
        recorded, cells, table = solve(profile, cfg)
        return recorded, cells, with_nan(table) if model == "fd" else table

    monkeypatch.setattr(runner, "family_density", density_with_nan)
    monkeypatch.setattr(runner, "fd_solve", solve_with_nan)
    s = Scenario(
        name="nan", eps=0.13, profile=GaussianProfile(100.0, 1.0), truncation=16, u_points=21,
        models=("parabolic", "hyperbolic", "fd"), fd_nu=32, outputs=("csv", "svg"), **files,
    )
    with pytest.raises(InvalidParameterError, match=f"the {model} densities are not all finite"):
        run_scenario(s, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_one_sample_trace_charts(tmp_path):
    s = Scenario(
        name="dot", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=16, u_points=21, v_list=(0.1,), trace_u=(0.5,),
        models=("parabolic", "hyperbolic"), outputs=("csv", "svg"),
    )
    run_scenario(s, tmp_path)
    _, _, rows = read_csv(tmp_path / "dot_trace_0.csv")
    assert [r[1] for r in rows] == ["0.1", "0.1"]
    assert "polyline" in (tmp_path / "dot_trace_0.svg").read_text()


@pytest.mark.parametrize("batch", [1, 100, 1201])
def test_texts_rendered_in_batches_write_the_same_bytes(tmp_path, monkeypatch, batch):
    # A run of more than TEXT_BATCH values renders its texts in batches, in
    # the order the files read them: every file is as one pass writes it.
    # Only an array larger than a batch is rendered alone in a larger
    # numtext.cells call. Each array here is as long as the time axis or the
    # FD run's distinct recorded times.
    s = replace(preset("figure2"), truncation=16, models=("parabolic", "hyperbolic", "fd"),
                fd_nu=64)
    run_scenario(s, tmp_path / "one")
    recorded = fd_solve(s.profile, s.fd_config())[0]
    lengths = {len(s.time_grid()), len(np.unique(recorded))}
    calls, cells = [], numtext.cells

    def spy(values):
        calls.append(len(values))
        return cells(values)

    monkeypatch.setattr(runner, "TEXT_BATCH", batch)
    monkeypatch.setattr(runner.numtext, "cells", spy)
    run_scenario(s, tmp_path / "batched")
    assert len(calls) > 1
    assert all(size <= batch or size in lengths for size in calls), (calls, lengths)
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "batched").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "batched" / name).read_bytes()


def test_run_twice_is_byte_identical(tmp_path):
    s = Scenario(
        name="det", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=64, u_points=101, v_list=(0.01, 0.1),
        models=("parabolic", "hyperbolic", "wkb"),
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(s, a)
    run_scenario(s, b)
    for path in sorted(a.glob("*.csv")):
        assert path.read_bytes() == (b / path.name).read_bytes()


#: A run with every model and every output kind; models and formats listed
#: in MODEL_ORDER and OUTPUT_KINDS order.
CONFIG_ALL = """
[scenario]
name = every
eps = 0.13
terms = 50
v_range = 0, 0.2, 201
trace_u = 0.5, 0
models = parabolic, hyperbolic, wkb, fd

[profile]
kind = gaussian
sharpness = 100
amplitude = 1

[fd]
nu = 400

[output]
formats = csv, svg, events
"""


def test_models_and_formats_in_any_order_write_the_same_files(tmp_path, capsys):
    # the runner wrote the canonical order, but the hash and run.json's
    # outputs kept the config's spelling
    reordered = CONFIG_ALL.replace(
        "models = parabolic, hyperbolic, wkb, fd", "models = fd, wkb, parabolic, hyperbolic"
    ).replace("formats = csv, svg, events", "formats = events, csv, svg")
    trees = []
    for name, text in (("canonical", CONFIG_ALL), ("reordered", reordered)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        trees.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert len(trees[0]) == 6 and trees[0] == trees[1]
    meta = json.loads(trees[0]["every_run.json"])
    assert meta["models"] == list(MODEL_ORDER) and meta["outputs"] == ["csv", "svg", "events"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_and_run(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "demo" in out

    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "demo_field_0.csv").exists()
    assert (tmp_path / "out" / "demo_run.json").exists()


def test_cli_overrides(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--terms", "20", "--eps", "0.2"]) == 0
    meta = json.loads((out / "demo_run.json").read_text())
    assert meta["truncation"] == 20
    assert meta["eps"] == 0.2


def test_cli_coeffs_output(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    assert main(["coeffs", str(cfg), "--terms", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "m,k" in lines
    data = [ln for ln in lines if not ln.startswith("#") and ln != "m,k"]
    assert len(data) == 6  # k0 plus five modes
    assert data[0].startswith("0,")
    assert float(data[0].split(",")[1]) == pytest.approx(1.0, abs=1e-11)
    assert float(data[1].split(",")[1]) == pytest.approx(1.8120361115809098, rel=1e-10)


@pytest.mark.parametrize("name", ["figure1", "figure3"])
def test_cli_coeffs_match_the_per_line_oracle(tmp_path, capsys, name):
    # both preset profiles at their 500 terms, written in one write
    s = preset(name)
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(serialize_scenario(s))
    assert main(["coeffs", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert s.truncation == 500 and len(out.splitlines()) == 505
    assert out == oracles.coeffs_table(compute_coefficients(s.profile, s.truncation))


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\neps = nope\n")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("command", ["validate", "coeffs", "run"])
def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # it raised an uncaught UnicodeDecodeError: a traceback and exit 1
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[scenario]\nname = x\xff\n")
    out = tmp_path / "out"
    argv = [command, str(bad)] + (["--out-dir", str(out)] if command == "run" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")
    assert not out.exists()


#: Config errors that once passed validate or exited 1, each as edits of
#: CONFIG_SMALL.
CONFIG_ERRORS = {
    "v_nan": [("v = 0.01, 0.1", "v = nan")],
    "sharpness_delta_like": [("sharpness = 100", "sharpness = 1e7")],
    "sharpness_negative": [("sharpness = 100", "sharpness = -5")],
    "eps_inf_hyperbolic": [("eps = 0.13", "eps = inf")],
    "eps_inf_parabolic": [("eps = 0.13", "eps = inf"), (", hyperbolic", "")],
    "name_escapes_out_dir": [("name = demo", "name = ../escaped")],
    "fd_step_unstable": [("hyperbolic", "fd"),
                         ("amplitude = 1", "amplitude = 1\n[fd]\nnu = 64\ndv = 0.01")],
    "fd_at_time_zero": [("v = 0.01, 0.1", "v = 0"), ("hyperbolic", "fd")],
    "eps_subnormal_hyperbolic": [("eps = 0.13", "eps = 1e-310")],
    "peak_density_too_large": [("amplitude = 1", "amplitude = 1e299")],
    # nu = 3 gives dv = 0.05, so the 200 times snap to 21 distinct FD steps
    "fd_events_coarse_steps": [("eps = 0.13", "eps = 0"),
                               ("v = 0.01, 0.1", "v_range = 0, 1, 200\ntrace_u = 0"),
                               ("parabolic, hyperbolic", "fd"),
                               ("amplitude = 1", "amplitude = 1\n[fd]\nnu = 3\n"
                                                 "[output]\nformats = csv, events")],
    # grids of more samples than numpy builds into one array, and grids
    # numpy could not allocate (8e17 bytes): all above the sample cap
    "v_range_count_too_large": [("v = 0.01, 0.1",
                                 "v_range = 0, 1, 100000000000000000000\ntrace_u = 0.5"),
                                ("parabolic, hyperbolic", "parabolic")],
    "u_points_too_large": [("u_points = 51", "u_points = 100000000000000000000"),
                           ("parabolic, hyperbolic", "parabolic")],
    "v_range_count_beyond_memory": [("v = 0.01, 0.1",
                                     "v_range = 0, 1, 100000000000000000\ntrace_u = 0.5"),
                                    ("parabolic, hyperbolic", "parabolic")],
    "u_points_beyond_memory": [("u_points = 51", "u_points = 100000000000000000"),
                               ("parabolic, hyperbolic", "parabolic")],
    # the range refusal printed its ends as np.float64(...)
    "v_negative": [("v = 0.01, 0.1", "v = -0.1, 0.05")],
    "tabulated_grid_outside_slab": [("kind = gaussian\nsharpness = 100\namplitude = 1",
                                     "kind = tabulated\ngrid = -0.6, 0\nvalues = 1, 1")],
    "formats_repeated": [("amplitude = 1", "amplitude = 1\n[output]\nformats = csv, csv, svg")],
    # more modes, or a finer mode, than the coefficient quadrature reaches
    "terms_out_of_reach": [("terms = 50", "terms = 65537")],
    "cosine_mode_out_of_reach": [("kind = gaussian\nsharpness = 100\namplitude = 1",
                                  "kind = cosine_mode\nmode = 43691\noffset = 1\namplitude = 1"),
                                 ("terms = 50", "terms = 43691")],
    # a mode above terms validated, and run wrote the flat profile k0 in its place
    "cosine_mode_above_terms": [("kind = gaussian\nsharpness = 100\namplitude = 1",
                                 "kind = cosine_mode\nmode = 60\noffset = 1\namplitude = 1"),
                                ("v = 0.01, 0.1", "v = 0, 0.01")],
    # the last mode's rate overflowed, and run wrote NaN for the family
    "eps_overflows_hyperbolic": [("eps = 0.13", "eps = 1e305")],
    "eps_overflows_wkb": [("eps = 0.13", "eps = 1e305"), ("parabolic, hyperbolic", "wkb")],
    # each event row of a repeated position was written twice
    "trace_u_repeated": [("v = 0.01, 0.1", "v_range = 0, 1, 200\ntrace_u = 0.5, 0.5")],
    # an XML comment may not hold "--": every SVG chart of the run was malformed
    "name_holds_double_hyphen": [("name = demo", "name = a--b")],
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_cli_config_errors_exit_2(tmp_path, capsys, case, command):
    text = CONFIG_SMALL
    for old, new in CONFIG_ERRORS[case]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out" / "sub"
    argv = [command, str(cfg)] + (["--out-dir", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg"]


#: The error line of a few CONFIG_ERRORS cases, as their rules' owners word it.
ERROR_LINES = {
    "fd_step_unstable": "error: [fd] telegraph mode requires dv <= sqrt(eps)*du = "
                        "0.005633673867912484, got dv=0.01",
    "fd_events_coarse_steps": "error: [fd] events output requires >= 200 distinct FD steps, "
                              "but the times snap to 21 at dv = 0.05; set a smaller [fd] dv "
                              "or raise nu",
    "cosine_mode_above_terms": "error: [profile] cosine mode 60 lies above terms = 50: the "
                               "series would drop it and run a flat profile; raise terms to "
                               "at least 60",
    "v_negative": "error: time points must lie in [0, inf), got range [-0.1, 0.05]",
    "tabulated_grid_outside_slab": "error: [profile] grid points must lie in [-1/2, 1/2], got "
                                   "range [-0.6, 0.0]",
    "u_points_beyond_memory": "error: 100000000000000000 u points exceed the cap of 134217728 "
                              "samples per axis",
    "name_holds_double_hyphen": "error: name must not hold '--', which the XML comment of an "
                                "SVG chart cannot hold, got 'a--b'",
}


@pytest.mark.parametrize("case", sorted(ERROR_LINES))
def test_cli_config_error_lines(tmp_path, capsys, case):
    # StabilityError and the other owners' refusals reach the CLI as their lines,
    # under the prefix of the part they check
    text = CONFIG_SMALL
    for old, new in CONFIG_ERRORS[case]:
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == ERROR_LINES[case] + "\n"


#: eps*(2*m*pi)^2 = 1 for m = 1. Validate and run exited 2 there, since the
#: fast/slow split is singular; the mode is not.
RESONANT_EPS = 1.0 / (2.0 * math.pi) ** 2


def _resonant_config(tmp_path):
    cfg = tmp_path / "resonant.cfg"
    cfg.write_text(CONFIG_SMALL.replace("eps = 0.13", f"eps = {RESONANT_EPS!r}")
                   .replace("parabolic, hyperbolic", "wkb"))
    return cfg


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_runs_a_resonant_two_timescale_eps(tmp_path, capsys, command):
    cfg = _resonant_config(tmp_path)
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out-dir", str(out)] if command == "run" else [])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    if command == "run":
        for i in range(2):
            _, header, rows = read_csv(out / f"demo_field_{i}.csv")
            assert header == ["u", "v", "model", "n"] and {row[2] for row in rows} == {"wkb"}
            values = np.array([(row[0], row[1], row[3]) for row in rows], dtype=float)
            assert np.all(np.isfinite(values))


def test_cli_resonant_two_timescale_eps_matches_the_reference(tmp_path):
    # run writes the per-mode mpmath reference at the resonant eps
    assert main(["run", str(_resonant_config(tmp_path)), "--out-dir", str(tmp_path / "out")]) == 0
    coeffs = compute_coefficients(GaussianProfile(100.0, 1.0), 50)
    tol = 1e-14 * (coeffs.mean + np.sum(np.abs(coeffs.modes)))
    for i, v in enumerate((0.01, 0.1)):
        _, _, rows = read_csv(tmp_path / "out" / f"demo_field_{i}.csv")
        u, n = np.array([(row[0], row[3]) for row in rows], dtype=float).T
        expected = oracles.reference_density("wkb", coeffs, RESONANT_EPS, u, v)
        np.testing.assert_allclose(n, expected, rtol=0, atol=tol)


def test_cli_validate_accepts_terms_up_to_the_quadrature_cap(tmp_path, capsys):
    # 65536 terms are the most the coefficient quadrature reaches; validate
    # decides it without computing a coefficient.
    cfg = tmp_path / "terms.cfg"
    cfg.write_text(CONFIG_SMALL.replace("terms = 50", "terms = 65536"))
    assert main(["validate", str(cfg)]) == 0
    for argv in (["validate", str(tmp_path / "over.cfg")],
                 ["coeffs", str(cfg), "--terms", "65537"]):
        (tmp_path / "over.cfg").write_text(CONFIG_SMALL.replace("terms = 50", "terms = 65537"))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: terms=65537 needs")
        assert captured.err.count("\n") == 1
        assert "best=" not in captured.err
    assert main(["coeffs", str(cfg), "--terms", "0"]) == 2
    assert capsys.readouterr().err == "error: terms must be >= 1, got 0\n"


def test_cli_runs_a_validated_huge_time(tmp_path, capsys):
    # Every mode's decay is 0 at v = 1e308, where the density is k0; its
    # exponents and phases overflowed in run after validate passed.
    text = CONFIG_SMALL.replace("v = 0.01, 0.1", "v = 0.1, 1e308").replace(
        "models = parabolic, hyperbolic", "models = parabolic, hyperbolic, wkb")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


_TABLE_U = np.linspace(-0.5, 0.5, 21)

#: Profiles that once passed validate and then failed in run, each as the
#: [profile] section replacing CONFIG_SMALL's: scaled far above the presets,
#: and 21-node tables that adaptive quadrature could not integrate.
SCALED_PROFILES = {
    "uniform_level_1e4": "kind = uniform\nlevel = 10000",
    "gaussian_amplitude_1e5": "kind = gaussian\nsharpness = 100\namplitude = 1e5",
    "surface_amplitude_1e4": "kind = surface_cosh\nsharpness = 10\namplitude = 1e4",
    "table_gaussian": "kind = tabulated\ngrid = {}\nvalues = {}".format(
        ", ".join(map(repr, _TABLE_U.tolist())),
        ", ".join(map(repr, np.exp(-100.0 * _TABLE_U**2).tolist()))),
    "table_tent": "kind = tabulated\ngrid = {}\nvalues = {}".format(
        ", ".join(map(repr, _TABLE_U.tolist())),
        ", ".join(map(repr, (1.0 + np.maximum(0.0, 1.0 - 3.0 * np.abs(_TABLE_U))).tolist()))),
}


@pytest.mark.parametrize("case", sorted(SCALED_PROFILES))
def test_cli_runs_scaled_and_tabulated_profiles(tmp_path, capsys, case):
    text = CONFIG_SMALL.replace("terms = 50", "terms = 500")
    text = text.replace("kind = gaussian\nsharpness = 100\namplitude = 1", SCALED_PROFILES[case])
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("kind", ["gaussian", "surface_cosh"])
@pytest.mark.parametrize("sharpness", [5e-324, 1e-310, 1e-300, 1e-20])
def test_tiny_sharpness_keeps_the_mass(tmp_path, capsys, kind, sharpness):
    # 0.5*amplitude*sharpness and sharpness/pi underflowed below 2.2e-308,
    # which lost the mass of the profile.
    text = CONFIG_SMALL.replace(
        "kind = gaussian\nsharpness = 100", f"kind = {kind}\nsharpness = {sharpness!r}")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    if main(["validate", str(cfg)]) == 2:
        return
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["coeffs", str(cfg)]) == 0
    k0 = float(next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("0,"))[2:])
    # The slab holds all of the surface profile's mass, and the erf share
    # of the Gaussian's.
    expected = 1.0 if kind == "surface_cosh" else math.erf(math.sqrt(sharpness) / 2)
    assert k0 == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_cli_eps_override_must_be_finite(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    assert main(["run", str(cfg), "--eps", "inf", "--out-dir", str(tmp_path / "out")]) == 2
    assert "eps must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_json_records_the_validated_fd_step(tmp_path):
    s = Scenario(
        name="fdstep", eps=0.13, profile=GaussianProfile(100.0, 1.0),
        truncation=16, u_points=11, v_list=(0.01,), models=("fd",), fd_nu=40,
    )
    run_scenario(s, tmp_path)
    meta = json.loads((tmp_path / "fdstep_run.json").read_text())
    assert meta["fd"]["dv"] == s.fd_config().dv


def test_cli_env_var_out_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIFFUSION_OUT_DIR", str(tmp_path / "envout"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "envout" / "demo_field_0.csv").exists()


def test_cli_figure_preset_as_subprocess(tmp_path):
    # exercise the installed entry point end to end, at reduced truncation
    result = subprocess.run(
        [sys.executable, "-m", "slabdiff", "figure", "1",
         "--out-dir", str(tmp_path), "--terms", "64"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "figure1_field_4.csv").exists()


def test_figure3_after_an_eps_sweep_matches_a_fresh_process(tmp_path):
    # The coefficients of an earlier run on the same profile come from the
    # per-process cache: the files must not show it.
    run_scenario(override(preset("figure3"), eps=0.05), tmp_path / "other")
    warm = run_scenario(preset("figure3"), tmp_path / "warm")
    result = subprocess.run(
        [sys.executable, "-m", "slabdiff", "figure", "3", "--out-dir", str(tmp_path / "cold")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    cold = sorted((tmp_path / "cold").iterdir())
    assert [path.name for path in cold] == sorted(path.name for path in warm)
    for path in cold:
        assert path.read_bytes() == (tmp_path / "warm" / path.name).read_bytes(), path.name


#: Run in a fresh interpreter. Before slabdiff is imported, a meta-path
#: finder makes any import of scipy, or of a module in BLOCKED, raise. Each
#: of COMMANDS then runs as `python -m slabdiff` runs it, and the last line
#: printed is their exit codes.
GUARDED_CLI = """
import runpy
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy.") or name in BLOCKED:
            raise ImportError(f"slabdiff imported {name}")

sys.meta_path.insert(0, Blocker())

def run(args):
    sys.argv = ["slabdiff", *args]
    try:
        runpy.run_module("slabdiff", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

codes = [run(args) for args in COMMANDS]
loaded = [name for name in sys.modules if name.startswith("scipy") or name in BLOCKED]
assert not loaded, loaded
print(codes)
"""


def guarded_exit_codes(commands, blocked=()) -> str:
    code = f"COMMANDS = {commands!r}\nBLOCKED = {tuple(blocked)!r}\n" + GUARDED_CLI
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_no_cli_command_imports_scipy(tmp_path):
    # the package runs on numpy alone: validate, coeffs, a figure with
    # events and a telegraph FD run with events never import scipy
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    fd_events = tmp_path / "fd_events.cfg"
    fd_events.write_text(
        CONFIG_SMALL.replace("v = 0.01, 0.1", "v_range = 0, 1, 200\ntrace_u = 0, 0.5")
        .replace("parabolic, hyperbolic", "parabolic, fd")
        .replace("amplitude = 1", "amplitude = 1\n[fd]\nnu = 100\n[output]\nformats = csv, events")
    )
    out = str(tmp_path / "out")
    commands = [
        ["validate", str(cfg)],
        ["coeffs", str(cfg)],
        ["figure", "2", "--terms", "64", "--out-dir", out],
        ["run", str(fd_events), "--out-dir", out],
    ]
    assert guarded_exit_codes(commands) == "[0, 0, 0, 0]"
    assert (tmp_path / "out" / "figure2_events.csv").exists()
    events = (tmp_path / "out" / "demo_events.csv").read_text()
    assert "\nfd,0.5,maximum," in events


#: The modules that only run and figure need: the solvers, the extrema
#: detection and the writers.
RUN_ONLY_MODULES = (
    "slabdiff.spectral", "slabdiff.fd", "slabdiff.analysis", "slabdiff.runner", "slabdiff.svgplot",
    "slabdiff.numtext",
)


#: The [profile] section of each kind that holds no array.
PROFILE_SECTIONS = {
    "gaussian": "kind = gaussian\nsharpness = 100\namplitude = 1",
    "surface_cosh": "kind = surface_cosh\nsharpness = 10\namplitude = 1",
    "uniform": "kind = uniform\nlevel = 1",
    "cosine_mode": "kind = cosine_mode\nmode = 3\noffset = 1\namplitude = 1",
}


@pytest.mark.parametrize("command", ["validate", "coeffs"])
def test_validate_and_coeffs_load_no_solver_module(tmp_path, command):
    # Configs of the cli_cold benchmark's shape: all three series models,
    # traces and events, so validation runs every model's checks, on a v
    # list and on a v_range, for each profile kind that holds no array.
    # validate checks the grids without building them, so it loads no
    # numpy. A tabulated profile holds a numpy grid, and FD step validation
    # loads fd, which needs numpy but no series code: both still validate.
    def config(name, profile, times, models="parabolic, hyperbolic, wkb", formats="csv, events"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            CONFIG_SMALL.replace("v = 0.01, 0.1", f"{times}\ntrace_u = 0.5, 0")
            .replace("parabolic, hyperbolic", models)
            .replace("kind = gaussian\nsharpness = 100\namplitude = 1",
                     f"{profile}\n[fd]\nnu = 64\n[output]\nformats = {formats}")
        )
        return [command, str(cfg)]

    trace = "v_range = 0, 1.2, 1201"
    no_arrays = [config(f"{kind}_range", section, trace)
                 for kind, section in PROFILE_SECTIONS.items()]
    # events need 200 times, so the v list configs write csv only
    no_arrays += [config(f"{kind}_list", section, "v = 0.01, 0.1", formats="csv")
                  for kind, section in PROFILE_SECTIONS.items()]
    tabulated = config("tabulated", "kind = tabulated\ngrid = -0.5, 0, 0.5\nvalues = 2, 1, 2",
                       trace)
    fd = config("fd", PROFILE_SECTIONS["gaussian"], trace, models="parabolic, hyperbolic, fd")
    # validate makes no log record, so it does not load logging either
    quiet = ("logging",) if command == "validate" else ()
    no_numpy = ("logging", "numpy") if command == "validate" else ()
    assert guarded_exit_codes(no_arrays, RUN_ONLY_MODULES + no_numpy) == str([0] * 8)
    assert guarded_exit_codes([tabulated], RUN_ONLY_MODULES + quiet) == "[0]"
    no_series = tuple(m for m in RUN_ONLY_MODULES if m != "slabdiff.fd")
    assert guarded_exit_codes([fd], no_series + quiet) == "[0]"


def test_fd_and_analysis_load_no_series_code():
    # the FD oracle shares no code with the series it checks, and the
    # analysis reads sampled results, which live in core
    code = ("import sys\nimport slabdiff.fd, slabdiff.analysis\n"
            "print(*sorted(name for name in sys.modules if name.startswith('slabdiff.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "slabdiff.analysis", "slabdiff.core", "slabdiff.errors", "slabdiff.fd", "slabdiff.profiles",
    ]


# ---------------------------------------------------------------------------
# Column-wise output against the per-element oracle
# ---------------------------------------------------------------------------

#: Values whose repr or fixed-point text is easy to get wrong: signed zero,
#: subnormals, both sides of repr's switches to exponent form, non-finite.
EDGE_VALUES = np.array([
    -0.0, 0.0, 5e-324, 1e-310, 9999999999999998.0, 1e16, 1e-5, 0.0001,
    1.0 / 3.0, -2.5, 0.1, 2.0,
])
NON_FINITE = np.array([math.nan, math.inf, -math.inf])


def polylines(svg: str) -> list[str]:
    return re.findall(r'points="([^"]*)"', svg)


@pytest.mark.parametrize("values", [EDGE_VALUES, np.concatenate((EDGE_VALUES, NON_FINITE))],
                         ids=["finite", "non_finite"])
def test_line_chart_polylines_match_the_per_point_oracle(values):
    shared = np.linspace(-0.5, 0.5, values.size)
    own = np.linspace(-0.45, 0.45, values.size)  # an FD curve on its own grid
    series = [
        ("parabolic", shared, values),
        ("hyperbolic", shared, values[::-1]),
        ("fd", own, np.roll(values, 3)),
    ]
    svg = line_chart("t", "u", "n", series)
    assert polylines(svg) == oracles.polyline_points(series)
    # Tiny and huge abscissae too: the x row is formatted from its own range.
    series = [("a", EDGE_VALUES[2:4], values[:2]), ("b", EDGE_VALUES[4:6], values[2:4])]
    assert polylines(line_chart("t", "v", "n", series)) == oracles.polyline_points(series)


def test_line_chart_pixels_keep_the_per_point_rounding():
    # Abscissae next to the ties of "{:.2f}" on a 0..560 axis, whose pixel
    # is 64 + x/560*560: a pixel formula that rounds differently from the
    # per-point one (say 64 + x*(560/560)) flips the last digit of hundreds.
    ties = np.arange(0, 56000, 7) / 100 + 0.005
    x = np.concatenate(([0.0], ties, [560.0]))
    for xs in (x, x / 3):
        series = [("a", xs, np.sin(xs)), ("b", xs, np.cos(xs))]
        assert polylines(line_chart("t", "u", "n", series)) == oracles.polyline_points(series)


def crafted_density(model, coefficients, eps, u, v):
    """A (time x position) table of edge values in place of a series.

    Finite only: a run refuses a table that holds NaN or inf before any file
    is written, so only the chart sees them (the test above).
    """
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    return np.resize(np.roll(EDGE_VALUES, MODEL_ORDER.index(model)), shape)


@pytest.mark.parametrize("times, models", [
    ((0.0, 1e-5, 0.1), ("parabolic", "hyperbolic", "fd")),
    # three times that snap to FD step 0: fields keep each, traces one
    ((0.0, 1e-9, 2e-9, 0.01), ("hyperbolic", "fd")),
    ((5e-324, 1e-5, 1e16), ("parabolic", "wkb")),
], ids=["with_fd", "fd_snapped_steps", "extreme_times"])
def test_run_scenario_curves_match_the_per_element_oracle(tmp_path, monkeypatch, times, models):
    monkeypatch.setattr(runner, "family_density", crafted_density)
    s = Scenario(
        name="edge", eps=0.13, profile=GaussianProfile(100.0, 1.0), truncation=8,
        u_points=11, v_list=times, trace_u=(-0.0, 5e-324, 0.5), models=models,
        fd_nu=20, outputs=("csv", "svg"),
    )
    run_scenario(s, tmp_path)
    grid, v = s.spatial_grid().points, np.array(times)
    series = [m for m in models if m != "fd"]
    fields = {m: crafted_density(m, None, s.eps, grid[None, :], v[:, None]) for m in series}
    traces = {m: crafted_density(m, None, s.eps, np.array(s.trace_u)[None, :], v[:, None])
              for m in series}
    if "fd" in models:
        recorded, cells, table = fd_solve(s.profile, s.fd_config())

    def check(stem, x_name, curves):
        csv = (tmp_path / f"{stem}.csv").read_text()
        assert csv.split("u,v,model,n\n", 1)[1] == oracles.csv_curve_rows(curves)
        chart = [(m, u if x_name == "u" else t, n) for m, u, t, n in curves]
        svg = (tmp_path / f"{stem}.svg").read_text()
        assert polylines(svg) == oracles.polyline_points(chart)

    for i, t in enumerate(times):
        curves = [(m, grid, t, fields[m][i]) for m in series]
        if "fd" in models:
            curves.append(("fd", cells, recorded[i], table[i]))
        check(f"edge_field_{i}", "u", curves)
    for j, u in enumerate(s.trace_u):
        curves = [(m, u, v, traces[m][:, j]) for m in series]
        if "fd" in models:
            # The cell nearest to u, at each distinct recorded time.
            idx = int(np.argmin(np.abs(cells - u)))
            keep = [k for k in range(len(recorded)) if k == 0 or recorded[k] > recorded[k - 1]]
            curves.append(("fd", cells[idx], recorded[keep], table[keep, idx]))
        check(f"edge_trace_{j}", "v", curves)
