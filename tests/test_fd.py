import math

import numpy as np
import pytest
from oracles import step_heat, step_telegraph

from slabdiff import (
    CosineModeProfile,
    FdConfig,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    StabilityError,
    TabulatedProfile,
    TimeGrid,
    TimeTrace,
    UniformProfile,
    cell_centers,
    detect_extrema,
    evaluate_profile,
    fd_solve,
    fd_solve_heat,
    fd_solve_telegraph,
    hyperbolic_density,
    parabolic_density,
    time_trace,
)
from slabdiff import fd
from slabdiff.analysis import DEFAULT_V_CUTOFF
from slabdiff.runner import PROMINENCE_FRACTION

EPS_REF = 0.13


def times(*values):
    return TimeGrid.from_values(values)


def discrete_mass(values, du):
    return float(np.sum(values) * du)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_heat_stability_bound_enforced():
    du = 1.0 / 100
    FdConfig(nu=100, dv=0.49 * du * du, eps=0.0, snapshot_times=times(0.1))
    with pytest.raises(StabilityError, match="0.5"):
        FdConfig(nu=100, dv=0.51 * du * du, eps=0.0, snapshot_times=times(0.1))


def test_telegraph_stability_bounds_enforced():
    # the wave bound dv <= sqrt(eps)*du is the only telegraph bound: the
    # step at it is accepted, one just above it is refused
    du = 1.0 / 10
    for eps in (4e-4, 0.5):
        wave = math.sqrt(eps) * du
        assert FdConfig(nu=10, dv=wave, eps=eps, snapshot_times=times(1.0)).dv == wave
        with pytest.raises(StabilityError, match="sqrt"):
            FdConfig(nu=10, dv=wave * (1 + 1e-9), eps=eps, snapshot_times=times(1.0))
    # a step above the heat scheme's 0.45*du^2 is stable for the telegraph
    FdConfig(nu=10, dv=0.46 * du * du, eps=0.5, snapshot_times=times(1.0))


@pytest.mark.parametrize("nu", [3, 16, 400, 100_000])
@pytest.mark.parametrize("eps", [1e-6, 1e-4, 0.01, EPS_REF, 3.0])
def test_every_telegraph_mode_is_stable_at_courant_one(nu, eps):
    # each step maps mode k through [[1 + a, p], [a, p]]; at dv = sqrt(eps)*du
    # both roots of every mode k >= 1 lie strictly inside the unit circle,
    # for p_prev < 0 (dv > 2*eps) too. Mode 0, the mass, keeps the root 1.
    du = 1.0 / nu
    dv = math.sqrt(eps) * du
    lam = 4.0 * np.sin(np.pi * np.arange(1, nu) / (2.0 * nu)) ** 2
    a = -(dv * dv / (du * du)) * lam / (eps + 0.5 * dv)
    p = np.full(nu - 1, (eps - 0.5 * dv) / (eps + 0.5 * dv))
    step = np.stack([np.stack([1.0 + a, p], -1), np.stack([a, p], -1)], -2)
    radius = np.max(np.abs(np.linalg.eigvals(step)), axis=-1)
    assert np.all(radius < 1.0)


def test_config_parameter_validation():
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=2, dv=1e-5, eps=0.0, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=100, dv=-1e-5, eps=0.0, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=100, dv=1e-5, eps=-0.1, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError, match="steps"):
        FdConfig(nu=100, dv=1e-9, eps=0.0, snapshot_times=times(1.0))


def test_slice_shims_are_fd_solve_rows():
    # fd_solve_heat and fd_solve_telegraph give fd_solve's rows as
    # FieldSlices on one shared grid; they are two functions, not aliases.
    assert fd_solve_heat is not fd_solve_telegraph
    prof = GaussianProfile(100.0, 1.0)
    for shim, eps in ((fd_solve_heat, 0.0), (fd_solve_telegraph, EPS_REF)):
        cfg = FdConfig.auto(64, eps, times(0.0, 0.001, 0.01))
        recorded, cells, table = fd_solve(prof, cfg)
        slices = shim(prof, cfg)
        assert [sl.v for sl in slices] == recorded.tolist()
        assert all(type(sl.v) is float for sl in slices)
        for sl, row in zip(slices, table):
            assert sl.grid.points is cells
            np.testing.assert_array_equal(sl.values, row)


def test_heat_and_telegraph_solves_share_one_initial_spectrum(monkeypatch):
    # The profile is evaluated on the cells, and its DCT taken, once per
    # (profile, nu): a heat and a telegraph solve of one profile share them,
    # read-only. A tabulated profile, which is unhashable, is evaluated anew.
    calls = []

    def spy(profile, u):
        calls.append(profile)
        return evaluate_profile(profile, u)

    monkeypatch.setattr(fd, "evaluate_profile", spy)
    prof = GaussianProfile(137.0, 1.0)  # no other test solves this profile
    heat = fd_solve(prof, FdConfig.auto(64, 0.0, times(0.01)))[2]
    telegraph = fd_solve(prof, FdConfig.auto(64, EPS_REF, times(0.01)))[2]
    assert calls == [prof]
    n0, c0 = fd._cached_spectrum(prof, 64)
    assert not n0.flags.writeable and not c0.flags.writeable
    assert fd_solve(prof, FdConfig.auto(32, 0.0, times(0.01)))[2].shape == (1, 32)
    assert calls == [prof, prof]
    # Each solve still writes its own table.
    assert heat.flags.writeable and telegraph.flags.writeable
    table = TabulatedProfile(grid=Grid1D(points=np.array([-0.5, 0.0, 0.5])),
                             values=np.array([2.0, 1.0, 2.0]))
    for eps in (0.0, EPS_REF):
        fd_solve(table, FdConfig.auto(64, eps, times(0.01)))
    assert calls == [prof, prof, table, table]


def test_solver_mode_guards():
    cfg_heat = FdConfig.auto(50, 0.0, times(0.01))
    cfg_tel = FdConfig.auto(50, EPS_REF, times(0.01))
    with pytest.raises(InvalidParameterError):
        fd_solve_heat(UniformProfile(1.0), cfg_tel)
    with pytest.raises(InvalidParameterError):
        fd_solve_telegraph(UniformProfile(1.0), cfg_heat)


def test_cell_centers_symmetric():
    u = cell_centers(400)
    assert u.size == 400
    np.testing.assert_array_equal(u, -u[::-1])
    assert u[0] == pytest.approx(-0.5 + 0.5 / 400, rel=1e-15)


# ---------------------------------------------------------------------------
# exactness and conservation
# ---------------------------------------------------------------------------


def test_uniform_state_is_fixed_point():
    prof = UniformProfile(1.0)
    for solver, eps in ((fd_solve_heat, 0.0), (fd_solve_telegraph, EPS_REF)):
        cfg = FdConfig.auto(64, eps, times(0.001, 0.01))
        for sl in solver(prof, cfg):
            np.testing.assert_array_equal(sl.values, np.ones(64))


def test_snapshot_times_snap_to_step_boundaries():
    cfg = FdConfig.auto(50, 0.0, times(0.0101, 0.02))
    slices = fd_solve_heat(UniformProfile(2.0), cfg)
    for sl, requested in zip(slices, (0.0101, 0.02)):
        k = round(requested / cfg.dv)
        assert sl.v == k * cfg.dv
        assert abs(sl.v - requested) <= cfg.dv / 2


def test_heat_single_mode_decay_nu400():
    prof = CosineModeProfile(mode=1, offset=1.0, amplitude=1.0)
    cfg = FdConfig.auto(400, 0.0, times(0.1))
    sl = fd_solve_heat(prof, cfg)[0]
    i0 = int(np.argmin(np.abs(sl.grid.points)))
    exact = 1.0 + math.exp(-4.0 * math.pi**2 * sl.v) * math.cos(
        2.0 * math.pi * sl.grid.points[i0]
    )
    assert abs(sl.values[i0] - exact) < 2e-3


def test_heat_auto_step_damps_the_grid_scale_mode():
    # cos(2 pi 8 u) on 17 cells is DCT mode 16, the highest. The heat
    # equation has damped it by exp(-197) after 50 auto steps; the scheme's
    # factor 1 - 0.45*lambda_16 = -0.785 leaves 5.6e-6 of it. At the bound
    # itself, r = 0.5, the factor is -0.983 and 0.43 of it would be left.
    prof = CosineModeProfile(mode=8, offset=1.0, amplitude=1.0)
    dv = FdConfig.auto(17, 0.0, times(1.0)).dv
    (sl,) = fd_solve_heat(prof, FdConfig(nu=17, dv=dv, eps=0.0, snapshot_times=times(50 * dv)))
    assert np.max(np.abs(sl.values - 1.0)) < 1e-5


def test_mass_conserved_every_step():
    # snapshots at 100 consecutive step boundaries expose per-step drift
    prof = GaussianProfile(100.0, 1.0)
    for eps in (0.0, EPS_REF):
        dv = FdConfig.auto(128, eps, times(1.0)).dv
        snap = TimeGrid.from_values(np.arange(1, 101) * dv)
        cfg = FdConfig(nu=128, dv=dv, eps=eps, snapshot_times=snap)
        masses = [discrete_mass(row, cfg.du) for row in fd_solve(prof, cfg)[2]]
        m0 = discrete_mass(evaluate_profile(prof, cell_centers(128)), cfg.du)
        steps = np.abs(np.diff([m0] + masses)) / m0
        assert np.max(steps) < 1e-10


def test_mass_drift_over_long_run_stays_small():
    prof = GaussianProfile(100.0, 1.0)
    cfg = FdConfig.auto(400, EPS_REF, times(0.01, 0.1, 1.0))
    m0 = discrete_mass(evaluate_profile(prof, cell_centers(400)), cfg.du)
    for sl in fd_solve_telegraph(prof, cfg):
        assert abs(discrete_mass(sl.values, cfg.du) - m0) / m0 < 1e-9


def test_even_data_stays_even():
    prof = GaussianProfile(100.0, 1.0)
    for eps in (0.0, EPS_REF):
        (row,) = fd_solve(prof, FdConfig.auto(200, eps, times(0.05)))[2]
        asym = np.max(np.abs(row - row[::-1]))
        assert asym < 1e-12 * np.max(row)


# ---------------------------------------------------------------------------
# accuracy against the series solutions
# ---------------------------------------------------------------------------


def test_heat_matches_parabolic_series(gaussian_profile, gaussian_coeffs):
    cfg = FdConfig.auto(400, 0.0, times(0.01, 0.1))
    for sl in fd_solve_heat(gaussian_profile, cfg):
        ref = parabolic_density(gaussian_coeffs, sl.grid.points, sl.v)
        assert np.max(np.abs(sl.values - ref)) < 1e-3


def test_telegraph_matches_hyperbolic_series(gaussian_profile, gaussian_coeffs):
    cfg = FdConfig.auto(400, EPS_REF, times(0.01, 0.1))
    for sl in fd_solve_telegraph(gaussian_profile, cfg):
        ref = hyperbolic_density(gaussian_coeffs, EPS_REF, sl.grid.points, sl.v)
        assert np.max(np.abs(sl.values - ref)) < 1e-3


@pytest.mark.parametrize("nu", [100, 400])
@pytest.mark.parametrize("profile", ["gaussian", "surface"])
def test_telegraph_echoes_match_the_series(request, profile, nu):
    # The wall echoes, as the runner finds them, on the preset times: FD
    # traces at the cells nearest u = 0 and 1/2 give the series' event kinds
    # at times within one FD step. Below Courant number 1 the scheme
    # disperses the front: at 0.9 three of these eight traces fail, and at
    # 0.45*du^2 six do, the surface profile at nu = 100 with 52 and 44 events.
    prof = request.getfixturevalue(f"{profile}_profile")
    coeffs = request.getfixturevalue(f"{profile}_coeffs")
    threshold = PROMINENCE_FRACTION * coeffs.mean
    cfg = FdConfig.auto(nu, EPS_REF, TimeGrid.linspace(0.0, 1.2, 1201))
    slices = fd_solve_telegraph(prof, cfg)
    recorded = np.array([sl.v for sl in slices])
    keep = np.concatenate(([True], np.diff(recorded) > 0))
    fd_times = TimeGrid(points=recorded[keep])
    cells = slices[0].grid.points
    for u in (0.0, 0.5):
        i = int(np.argmin(np.abs(cells - u)))
        fd_trace = TimeTrace(u=float(cells[i]), times=fd_times,
                             values=np.array([sl.values[i] for sl in slices])[keep])
        series = time_trace("hyperbolic", coeffs, EPS_REF, cells[i], fd_times)
        fd_events, series_events = (
            detect_extrema(tr, DEFAULT_V_CUTOFF, prominence_threshold=threshold)
            for tr in (fd_trace, series)
        )
        assert len(series_events) >= 5
        assert [e.kind for e in fd_events] == [e.kind for e in series_events], u
        for fd_event, series_event in zip(fd_events, series_events):
            assert abs(fd_event.v - series_event.v) <= cfg.dv * (1 + 1e-9), (u, fd_event)


def fd_errors(profile, coeffs, eps, nu, snap):
    """FD minus the series, each slice compared at its own recorded time."""
    recorded, cells, table = fd_solve(profile, FdConfig.auto(nu, eps, snap))
    out = []
    for v, row in zip(recorded, table):
        if eps == 0.0:
            ref = parabolic_density(coeffs, cells, v)
        else:
            ref = hyperbolic_density(coeffs, eps, cells, v)
        out.append(row - ref)
    return out


@pytest.mark.parametrize("eps", [0.0, EPS_REF])
def test_observed_order_is_two_on_smooth_data(gaussian_profile, gaussian_coeffs, eps):
    # du shrinks 3x per step (dv with it, through FdConfig.auto); measured
    # orders lie in 1.992 to 2.000
    snap = times(0.01, 0.1)
    errors = [fd_errors(gaussian_profile, gaussian_coeffs, eps, nu, snap) for nu in (400, 1200, 3600)]
    for k in range(len(snap.points)):
        linf = [float(np.max(np.abs(e[k]))) for e in errors]
        for coarse, fine in zip(linf, linf[1:]):
            assert math.log(coarse / fine) / math.log(3.0) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("eps", [0.0, EPS_REF])
def test_richardson_extrapolation_meets_the_series(gaussian_profile, gaussian_coeffs, eps):
    # cell 3i + 1 of 1200 cells is cell i of 400; removing the h^2 term
    # leaves at most 2.2e-9 (telegraph at v = 0.01)
    snap = times(0.01, 0.1)
    e400 = fd_errors(gaussian_profile, gaussian_coeffs, eps, 400, snap)
    e1200 = fd_errors(gaussian_profile, gaussian_coeffs, eps, 1200, snap)
    for coarse, fine in zip(e400, e1200):
        assert np.max(np.abs((9.0 * fine[1::3] - coarse) / 8.0)) < 1e-6


def test_heat_grid_convergence_is_second_order():
    # halve du (dv rescales with du^2 through the stability rule): the
    # error against the exact single-mode decay must drop by >= 3x.
    prof = CosineModeProfile(mode=1, offset=1.0, amplitude=1.0)
    errors = []
    for nu in (50, 100):
        cfg = FdConfig.auto(nu, 0.0, times(0.05))
        sl = fd_solve_heat(prof, cfg)[0]
        exact = 1.0 + math.exp(-4.0 * math.pi**2 * sl.v) * np.cos(
            2.0 * math.pi * sl.grid.points
        )
        errors.append(float(np.max(np.abs(sl.values - exact))))
    assert errors[0] / errors[1] >= 3.0


# ---------------------------------------------------------------------------
# exactness against step-by-step marching
# ---------------------------------------------------------------------------
# The solvers evaluate the schemes in DCT mode space; the oracles march the
# same schemes one step at a time.


def assert_matches_stepping(prof, cfg, atol=1e-10):
    stepper = step_heat if cfg.eps == 0.0 else step_telegraph
    n0 = np.asarray(evaluate_profile(prof, cell_centers(cfg.nu)), dtype=float)
    recorded, _, table = fd_solve(prof, cfg)
    for v, row, requested in zip(recorded, table, cfg.snapshot_times.points):
        steps = round(requested / cfg.dv)
        assert v == steps * cfg.dv
        np.testing.assert_allclose(row, stepper(n0, cfg, steps), rtol=0, atol=atol)


@pytest.mark.parametrize("nu", [16, 40, 128])
@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-4, EPS_REF, 3.0])
def test_mode_space_solution_matches_stepping(nu, eps):
    # eps = 1e-6 and 1e-4 give dv > 2*eps, so p_prev < 0 in the telegraph scheme.
    # Steps 0, 1 and those nearest v = 0.02 and 0.2, kept increasing where a
    # coarse dv snaps them to fewer steps.
    dv = FdConfig.auto(nu, eps, times(0.2)).dv
    steps = (0, 1, max(2, round(0.02 / dv)), max(3, round(0.2 / dv)))
    cfg = FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=times(*(j * dv for j in steps)))
    assert_matches_stepping(GaussianProfile(100.0, 1.0), cfg)


def test_heat_at_the_stability_bound_matches_stepping():
    # at r = 0.5 the per-step factor 1 - r*lambda_k = cos(pi*k/nu) goes
    # down to about -1; log1p is undefined where it is <= 0
    nu = 16
    dv = 0.5 / nu**2
    cfg = FdConfig(nu=nu, dv=dv, eps=0.0, snapshot_times=times(dv, 0.01, 0.1))
    assert_matches_stepping(GaussianProfile(100.0, 1.0), cfg)


SHARED_STEPS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 4095, 4096, 4097)


@pytest.mark.parametrize("nu", [3, 16, 17, 400])
@pytest.mark.parametrize("eps", [0.0, 1e-6, EPS_REF, 3.0])
def test_each_snapshot_equals_its_time_solved_alone(nu, eps):
    # One solve squares the step matrix for the bits of its largest j - 1
    # and every snapshot reads that table; alone, j = 2^k + 1 needs the
    # table's top power. eps = 1e-6 gives p_prev < 0.
    prof = GaussianProfile(100.0, 1.0)
    dv = FdConfig.auto(nu, eps, times(1.0)).dv
    snap = TimeGrid.from_values([j * dv for j in SHARED_STEPS])
    recorded, cells, table = fd_solve(prof, FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=snap))
    assert recorded.tolist() == [j * dv for j in SHARED_STEPS]
    assert table.shape == (len(SHARED_STEPS), nu)
    n0 = np.asarray(evaluate_profile(prof, cell_centers(nu)), dtype=float)
    np.testing.assert_array_equal(table[0], n0)
    for j, v, row in zip(SHARED_STEPS[1:], recorded[1:], table[1:]):
        alone = fd_solve(prof, FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=times(j * dv)))
        assert alone[0].tolist() == [v]
        assert alone[1] is cells
        np.testing.assert_array_equal(row, alone[2][0], err_msg=f"j = {j}")
    np.testing.assert_array_equal(cells, cell_centers(nu))
    with pytest.raises(ValueError, match="read-only"):
        cells[0] = 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_telegraph_long_run_stays_finite_and_conservative(eps):
    # nu = 400 to v = 2 at 0.45*du^2 or the wave bound, whichever is smaller:
    # 7.1e5 steps at eps = 1e-4 and 8.0e5 at eps = 1e-6 (p_prev < 0)
    prof = GaussianProfile(100.0, 1.0)
    du = 1.0 / 400
    cfg = FdConfig(nu=400, dv=min(0.45 * du * du, math.sqrt(eps) * du), eps=eps,
                   snapshot_times=times(2.0))
    assert round(2.0 / cfg.dv) > 700_000
    m0 = discrete_mass(evaluate_profile(prof, cell_centers(400)), cfg.du)
    sl = fd_solve_telegraph(prof, cfg)[0]
    assert np.all(np.isfinite(sl.values))
    assert abs(discrete_mass(sl.values, cfg.du) - m0) / m0 < 1e-9


def test_telegraph_tracks_heat_in_stiff_limit():
    prof = GaussianProfile(100.0, 1.0)
    snap = times(0.01, 0.03)
    heat = fd_solve_heat(prof, FdConfig.auto(400, 0.0, snap))
    tel = fd_solve_telegraph(prof, FdConfig.auto(400, 1e-6, snap))
    for sl_h, sl_t in zip(heat, tel):
        # both runs snap independently; the times differ by <= one step
        assert abs(sl_h.v - sl_t.v) < 2e-5
        assert np.max(np.abs(sl_h.values - sl_t.values)) < 1e-3


# ---------------------------------------------------------------------------
# the numpy cosine transforms against scipy's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [3, 4, 16, 17, 400, 401])
def test_dct_matches_scipy(nu):
    scipy_fft = pytest.importorskip("scipy.fft")
    from slabdiff.fd import _dct, _idct

    rng = np.random.default_rng(nu)
    for x in (
        rng.standard_normal(nu),
        1e-300 * rng.standard_normal(nu),
        np.asarray(evaluate_profile(GaussianProfile(100.0, 1.0), cell_centers(nu))),
    ):
        scale = np.max(np.abs(x))
        np.testing.assert_allclose(
            _dct(x), scipy_fft.dct(x, type=2, norm="ortho"), rtol=0, atol=1e-14 * scale
        )
        np.testing.assert_allclose(
            _idct(x), scipy_fft.idct(x, type=2, norm="ortho"), rtol=0, atol=1e-14 * scale
        )
        np.testing.assert_allclose(_idct(_dct(x)), x, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(_dct(_idct(x)), x, rtol=0, atol=1e-14 * scale)
