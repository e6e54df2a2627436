"""End-to-end acceptance checks.

Each test exercises one gate criterion at its pinned tolerance and prints a
PASS line on success (run with -s to see them alongside the pytest dots).
The finite-difference cross-validations (nu=2000, the exact result of
~9e6 explicit heat steps and ~5.5e3 telegraph steps, evaluated in DCT mode
space) are computed once via module-scoped fixtures.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from oracles import free_space_reference, surface_cosh_mode_closed_form, wkb_coefficients

from slabdiff import (
    CosineModeProfile,
    FdConfig,
    Grid1D,
    TimeGrid,
    classify_monotone,
    compute_coefficients,
    detect_extrema,
    fd_solve,
    fd_solve_heat,
    fd_solve_telegraph,
    field_slice,
    hyperbolic_density,
    parabolic_density,
    time_trace,
    wkb_density,
)

EPS_REF = 0.13
V1 = 0.5 * math.sqrt(EPS_REF)  # wall arrival time of the first wavefront
V2 = 2.0 * V1
SNAPSHOT_TIMES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
FD_TIMES = TimeGrid.from_values([0.01, 0.1, 1.0])
TRACE_TIMES = TimeGrid.linspace(0.0, 1.2, 1201)


def report(number: int, text: str):
    print(f"[criterion {number:2d}] PASS {text}")


@pytest.fixture(scope="module")
def heat_slices(gaussian_profile):
    cfg = FdConfig.auto(2000, 0.0, FD_TIMES)
    return fd_solve_heat(gaussian_profile, cfg)


@pytest.fixture(scope="module")
def telegraph_slices(gaussian_profile):
    cfg = FdConfig.auto(2000, EPS_REF, FD_TIMES)
    return fd_solve_telegraph(gaussian_profile, cfg)


def test_criterion_01_surface_coefficients_match_closed_form(
    surface_profile, surface_coeffs
):
    assert abs(surface_coeffs.mean - 1.0) <= 1e-12
    worst = max(
        abs(surface_coeffs.modes[m - 1] - surface_cosh_mode_closed_form(surface_profile, m))
        for m in range(1, 101)
    )
    assert worst <= 1e-10
    report(1, f"surface-profile quadrature vs closed form, m<=100 (max dev {worst:.2e})")


def test_criterion_02_single_mode_orthonormality():
    for m in range(1, 11):
        c = compute_coefficients(CosineModeProfile(mode=m, offset=1.0, amplitude=1.0), 12)
        assert abs(c.mean - 1.0) <= 1e-12
        assert abs(c.modes[m - 1] - 1.0) <= 1e-12
        others = np.delete(c.modes, m - 1)
        assert np.max(np.abs(others)) <= 1e-12
    report(2, "single-mode profiles recover exactly one coefficient (m=1..10)")


def test_criterion_03_mass_conservation(gaussian_coeffs, surface_coeffs):
    grid = Grid1D.uniform_grid(4001)
    worst = 0.0
    for coeffs in (gaussian_coeffs, surface_coeffs):
        for model in ("parabolic", "hyperbolic", "wkb"):
            for v in SNAPSHOT_TIMES:
                sl = field_slice(model, coeffs, EPS_REF, grid, v)
                mass = np.trapezoid(sl.values, sl.grid.points)
                worst = max(worst, abs(mass - coeffs.mean))
    assert worst <= 1e-8
    report(3, f"series-family trapezoid mass equals k0 (max dev {worst:.2e})")


def test_criterion_03b_fd_mass_conserved_per_step(gaussian_profile):
    from slabdiff import cell_centers, evaluate_profile

    worst = 0.0
    for eps in (0.0, EPS_REF):
        dv = FdConfig.auto(256, eps, TimeGrid.from_values([1.0])).dv
        snap = TimeGrid.from_values(np.arange(1, 151) * dv)
        cfg = FdConfig(nu=256, dv=dv, eps=eps, snapshot_times=snap)
        masses = np.array(
            [np.sum(evaluate_profile(gaussian_profile, cell_centers(256))) * cfg.du]
            + [np.sum(row) * cfg.du for row in fd_solve(gaussian_profile, cfg)[2]]
        )
        worst = max(worst, float(np.max(np.abs(np.diff(masses)) / masses[0])))
    assert worst <= 1e-10
    report(3, f"fd discrete mass conserved every step (max per-step drift {worst:.2e})")


def test_criterion_04_heat_solver_vs_parabolic_series(gaussian_coeffs, heat_slices):
    worst = 0.0
    for sl in heat_slices:
        ref = parabolic_density(gaussian_coeffs, sl.grid.points, sl.v)
        worst = max(worst, float(np.max(np.abs(sl.values - ref))))
    assert worst <= 1e-3
    report(4, f"parabolic series vs explicit heat solver at nu=2000 (L_inf {worst:.2e})")


def test_criterion_05_telegraph_solver_vs_hyperbolic_series(
    gaussian_coeffs, telegraph_slices
):
    worst = 0.0
    for sl in telegraph_slices:
        ref = hyperbolic_density(gaussian_coeffs, EPS_REF, sl.grid.points, sl.v)
        worst = max(worst, float(np.max(np.abs(sl.values - ref))))
    assert worst <= 2e-3
    report(5, f"hyperbolic series vs explicit telegraph solver at nu=2000 (L_inf {worst:.2e})")


def test_criterion_06_hyperbolic_collapses_onto_parabolic(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 21)
    vv = np.linspace(0.01, 1.0, 100)
    linf = []
    for eps in (1e-2, 1e-4, 1e-6):
        worst = max(
            float(np.max(np.abs(
                hyperbolic_density(gaussian_coeffs, eps, u, v)
                - parabolic_density(gaussian_coeffs, u, v)
            )))
            for v in vv
        )
        linf.append(worst)
    assert linf[0] > linf[1] > linf[2]
    assert linf[2] <= 1e-4
    report(6, f"relaxation->0 collapse is monotone ({linf[0]:.1e} > {linf[1]:.1e} > {linf[2]:.1e})")


def test_criterion_07_center_profile_echoes_at_the_wall(gaussian_coeffs):
    hyp = time_trace("hyperbolic", gaussian_coeffs, EPS_REF, 0.5, TRACE_TIMES)
    events = detect_extrema(hyp, 1e-3, prominence_threshold=1e-3 * gaussian_coeffs.mean)
    maxima = [e for e in events if e.kind == "maximum"]
    assert len(maxima) >= 2
    assert abs(maxima[0].v - V1) / V1 <= 0.2
    assert abs(maxima[1].v - 3 * V1) / (3 * V1) <= 0.2
    par = time_trace("parabolic", gaussian_coeffs, EPS_REF, 0.5, TRACE_TIMES)
    assert classify_monotone(par, 1e-3) == "monotone_increasing"
    report(
        7,
        f"wall echoes at {maxima[0].v:.4f}, {maxima[1].v:.4f} "
        f"(ladder {V1:.4f}, {3 * V1:.4f}); parabolic trace monotone",
    )


def test_criterion_08_surface_profile_echoes(surface_coeffs):
    center = time_trace("hyperbolic", surface_coeffs, EPS_REF, 0.0, TRACE_TIMES)
    ev_center = [
        e for e in detect_extrema(center, 1e-3, prominence_threshold=1e-3 * surface_coeffs.mean)
        if e.kind == "maximum"
    ]
    assert ev_center and abs(ev_center[0].v - V1) / V1 <= 0.2
    wall = time_trace("hyperbolic", surface_coeffs, EPS_REF, 0.5, TRACE_TIMES)
    ev_wall = [
        e for e in detect_extrema(wall, 1e-3, prominence_threshold=1e-3 * surface_coeffs.mean)
        if e.kind == "maximum"
    ]
    assert ev_wall and abs(ev_wall[0].v - V2) / V2 <= 0.2
    report(
        8,
        f"surface-profile echoes: center {ev_center[0].v:.4f} (ladder {V1:.4f}), "
        f"wall {ev_wall[0].v:.4f} (ladder {V2:.4f})",
    )


def test_criterion_09_two_timescale_identities(gaussian_coeffs, surface_coeffs):
    u = np.linspace(-0.5, 0.5, 201)
    for coeffs in (gaussian_coeffs, surface_coeffs):
        w = wkb_coefficients(coeffs, EPS_REF)
        scale = np.maximum(np.abs(coeffs.modes), 1e-300)
        assert np.max(np.abs(w.fast + w.slow - coeffs.modes) / scale) <= 1e-14
        for v in (0.0, 0.05, 0.5):
            np.testing.assert_array_equal(
                wkb_density(coeffs, 0.0, u, v), parabolic_density(coeffs, u, v)
            )
        dev = np.max(np.abs(wkb_density(coeffs, EPS_REF, u, 0.0)
                            - parabolic_density(coeffs, u, 0.0)))
        assert dev <= 1e-12
    report(9, "fast/slow weight identities, eps=0 equivalence, shared v=0 state")


def test_criterion_10_short_time_wall_free_reference(gaussian_profile, gaussian_coeffs):
    ref = free_space_reference(gaussian_profile, 1e-4)
    u = np.linspace(-0.25, 0.25, 1001)
    worst = float(np.max(np.abs(parabolic_density(gaussian_coeffs, u, 1e-4) - ref(u))))
    assert worst <= 1e-6
    report(10, f"parabolic series vs wall-free reference at v=1e-4 (L_inf {worst:.2e})")


def test_criterion_11_zero_initial_rate(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 101)
    drift = np.max(np.abs(
        hyperbolic_density(gaussian_coeffs, EPS_REF, u, 1e-6)
        - hyperbolic_density(gaussian_coeffs, EPS_REF, u, 0.0)
    ))
    assert drift <= 1e-8 * gaussian_coeffs.mean
    report(11, f"|n(u,1e-6) - n(u,0)| = {drift:.2e} <= 1e-8*k0")


def test_criterion_12_figure_run_is_deterministic(tmp_path):
    # Every kind of file each run writes: field or trace CSVs, charts,
    # events and metadata.
    kinds = {
        "1": {"_field_", ".svg", "_run.json"},
        "2": {"_trace_", ".svg", "_events.csv", "_run.json"},
    }
    for figure, expected in kinds.items():
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / figure / sub
            result = subprocess.run(
                [sys.executable, "-m", "slabdiff", "figure", figure, "--out-dir", str(out)],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(sorted(out.iterdir()))
        names = [p.name for p in outputs[0]]
        assert names == [p.name for p in outputs[1]]
        assert all(any(kind in name for name in names) for kind in expected), names
        for pa, pb in zip(*outputs):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
        report(12, f"two figure-{figure} runs produced {len(names)} byte-identical files")
