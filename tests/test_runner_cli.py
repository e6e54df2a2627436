import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from slabdiff import (
    Scenario,
    UniformProfile,
    GaussianProfile,
    preset,
    run_scenario,
    scenario_hash,
)
from slabdiff.cli import main

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
    expected = 0.5 - 0.1 / math.sqrt(0.13)
    assert float(comments["wavefront_u1"]) == pytest.approx(expected, rel=1e-12)
    meta = json.loads((tmp_path / "front_run.json").read_text())
    assert float(meta["wavefront_u1"]["0.1"]) == pytest.approx(expected, rel=1e-12)
    assert meta["hash"] == scenario_hash(s)


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


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\neps = nope\n")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 2


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
    # eps*(2 pi m)^2 = 1 for m = 1: the fast/slow split is singular
    "wkb_resonant": [("eps = 0.13", f"eps = {1.0 / (2.0 * math.pi) ** 2!r}"),
                     ("parabolic, hyperbolic", "wkb")],
    "eps_subnormal_hyperbolic": [("eps = 0.13", "eps = 1e-310")],
    "peak_density_too_large": [("amplitude = 1", "amplitude = 1e299")],
    # nu = 3 gives dv = 0.05, so the 200 times snap to 21 distinct FD steps
    "fd_events_coarse_steps": [("eps = 0.13", "eps = 0"),
                               ("v = 0.01, 0.1", "v_range = 0, 1, 200\ntrace_u = 0"),
                               ("parabolic, hyperbolic", "fd"),
                               ("amplitude = 1", "amplitude = 1\n[fd]\nnu = 3\n"
                                                 "[output]\nformats = csv, events")],
    # grids of more samples than numpy builds into one array
    "v_range_count_too_large": [("v = 0.01, 0.1", "v_range = 0, 1, 1e20\ntrace_u = 0.5"),
                                ("parabolic, hyperbolic", "parabolic")],
    "u_points_too_large": [("u_points = 51", "u_points = 100000000000000000000"),
                           ("parabolic, hyperbolic", "parabolic")],
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
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg"]


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


#: Installed before slabdiff is imported: any import of scipy raises.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"slabdiff imported {name}")

sys.meta_path.insert(0, NoScipy())
from slabdiff.cli import main

codes = [main(args) for args in COMMANDS]
assert not any(name.startswith("scipy") for name in sys.modules)
print(codes)
"""


def test_no_cli_command_imports_scipy(tmp_path):
    # the package runs on numpy alone: validate, coeffs, a figure with
    # events and a telegraph FD run with events never import scipy
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(CONFIG_SMALL)
    fd_events = tmp_path / "fd_events.cfg"
    fd_events.write_text(
        CONFIG_SMALL.replace("v = 0.01, 0.1", "v_range = 0, 1, 200\ntrace_u = 0, 0.5")
        .replace("parabolic, hyperbolic", "parabolic, fd")
        .replace("amplitude = 1", "amplitude = 1\n[fd]\nnu = 16\n[output]\nformats = csv, events")
    )
    out = str(tmp_path / "out")
    commands = [
        ["validate", str(cfg)],
        ["coeffs", str(cfg)],
        ["figure", "2", "--terms", "64", "--out-dir", out],
        ["run", str(fd_events), "--out-dir", out],
    ]
    code = f"COMMANDS = {commands!r}\n" + NO_SCIPY
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0]"
    assert (tmp_path / "out" / "figure2_events.csv").exists()
    events = (tmp_path / "out" / "demo_events.csv").read_text()
    assert "\nfd,0.5,maximum," in events
