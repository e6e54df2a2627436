import math

import numpy as np
import pytest
from oracles import step_heat, step_telegraph

from slabdiff import (
    CosineModeProfile,
    FdConfig,
    GaussianProfile,
    InvalidParameterError,
    StabilityError,
    TimeGrid,
    UniformProfile,
    cell_centers,
    evaluate_profile,
    fd_solve_heat,
    fd_solve_telegraph,
    hyperbolic_density,
    parabolic_density,
)

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
    # wave bound: dv <= sqrt(eps)*du; pick eps large enough that the wave
    # bound is the binding one, then violate it.
    du = 1.0 / 10
    with pytest.raises(StabilityError, match="sqrt"):
        FdConfig(nu=10, dv=1.1 * math.sqrt(4e-4) * du, eps=4e-4, snapshot_times=times(1.0))
    # diffusive-term bound: dv <= 0.45*du^2
    with pytest.raises(StabilityError, match="0.45"):
        FdConfig(nu=10, dv=0.46 * du * du, eps=0.5, snapshot_times=times(1.0))


def test_config_parameter_validation():
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=2, dv=1e-5, eps=0.0, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=100, dv=-1e-5, eps=0.0, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError):
        FdConfig(nu=100, dv=1e-5, eps=-0.1, snapshot_times=times(0.1))
    with pytest.raises(InvalidParameterError, match="steps"):
        FdConfig(nu=100, dv=1e-9, eps=0.0, snapshot_times=times(1.0))


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
    assert slices[0].model_tag == "fd"


def test_heat_single_mode_decay_nu400():
    prof = CosineModeProfile(mode=1, offset=1.0, amplitude=1.0)
    cfg = FdConfig.auto(400, 0.0, times(0.1))
    sl = fd_solve_heat(prof, cfg)[0]
    i0 = int(np.argmin(np.abs(sl.grid.points)))
    exact = 1.0 + math.exp(-4.0 * math.pi**2 * sl.v) * math.cos(
        2.0 * math.pi * sl.grid.points[i0]
    )
    assert abs(sl.values[i0] - exact) < 2e-3


def test_mass_conserved_every_step():
    # snapshots at 100 consecutive step boundaries expose per-step drift
    prof = GaussianProfile(100.0, 1.0)
    for eps in (0.0, EPS_REF):
        dv = FdConfig.auto(128, eps, times(1.0)).dv
        snap = TimeGrid.from_values(np.arange(1, 101) * dv)
        cfg = FdConfig(nu=128, dv=dv, eps=eps, snapshot_times=snap)
        solver = fd_solve_heat if eps == 0.0 else fd_solve_telegraph
        slices = solver(prof, cfg)
        masses = [discrete_mass(sl.values, cfg.du) for sl in slices]
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
        cfg = FdConfig.auto(200, eps, times(0.05))
        solver = fd_solve_heat if eps == 0.0 else fd_solve_telegraph
        sl = solver(prof, cfg)[0]
        asym = np.max(np.abs(sl.values - sl.values[::-1]))
        assert asym < 1e-12 * np.max(sl.values)


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


def fd_errors(profile, coeffs, eps, nu, snap):
    """FD minus the series, each slice compared at its own recorded time."""
    cfg = FdConfig.auto(nu, eps, snap)
    solver = fd_solve_heat if eps == 0.0 else fd_solve_telegraph
    out = []
    for sl in solver(profile, cfg):
        if eps == 0.0:
            ref = parabolic_density(coeffs, sl.grid.points, sl.v)
        else:
            ref = hyperbolic_density(coeffs, eps, sl.grid.points, sl.v)
        out.append(sl.values - ref)
    return out


@pytest.mark.parametrize("eps", [0.0, EPS_REF])
def test_observed_order_is_two_on_smooth_data(gaussian_profile, gaussian_coeffs, eps):
    # du shrinks 3x per step (dv with it, through FdConfig.auto); measured
    # orders lie in 1.999 to 2.000
    snap = times(0.01, 0.1)
    errors = [fd_errors(gaussian_profile, gaussian_coeffs, eps, nu, snap) for nu in (400, 1200, 3600)]
    for k in range(len(snap.points)):
        linf = [float(np.max(np.abs(e[k]))) for e in errors]
        for coarse, fine in zip(linf, linf[1:]):
            assert math.log(coarse / fine) / math.log(3.0) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("eps", [0.0, EPS_REF])
def test_richardson_extrapolation_meets_the_series(gaussian_profile, gaussian_coeffs, eps):
    # cell 3i + 1 of 1200 cells is cell i of 400; removing the h^2 term
    # leaves at most 6.0e-8 (telegraph at v = 0.1)
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
    solver, stepper = (
        (fd_solve_heat, step_heat) if cfg.eps == 0.0 else (fd_solve_telegraph, step_telegraph)
    )
    n0 = np.asarray(evaluate_profile(prof, cell_centers(cfg.nu)), dtype=float)
    for sl, requested in zip(solver(prof, cfg), cfg.snapshot_times.points):
        steps = round(requested / cfg.dv)
        assert sl.v == steps * cfg.dv
        np.testing.assert_allclose(sl.values, stepper(n0, cfg, steps), rtol=0, atol=atol)


@pytest.mark.parametrize("nu", [16, 40, 128])
@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-4, EPS_REF, 3.0])
def test_mode_space_solution_matches_stepping(nu, eps):
    # eps = 1e-6 and 1e-4 give dv > 2*eps, so p_prev < 0 in the telegraph scheme
    dv = FdConfig.auto(nu, eps, times(0.2)).dv
    cfg = FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=times(0.0, dv, 0.02, 0.2))
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
    solver = fd_solve_heat if eps == 0.0 else fd_solve_telegraph
    snap = TimeGrid.from_values([j * dv for j in SHARED_STEPS])
    slices = solver(prof, FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=snap))
    assert [sl.v for sl in slices] == [j * dv for j in SHARED_STEPS]
    n0 = np.asarray(evaluate_profile(prof, cell_centers(nu)), dtype=float)
    np.testing.assert_array_equal(slices[0].values, n0)
    for j, sl in zip(SHARED_STEPS[1:], slices[1:]):
        (alone,) = solver(prof, FdConfig(nu=nu, dv=dv, eps=eps, snapshot_times=times(j * dv)))
        assert alone.v == sl.v
        np.testing.assert_array_equal(sl.values, alone.values, err_msg=f"j = {j}")
    points = slices[0].grid.points
    np.testing.assert_array_equal(points, cell_centers(nu))
    assert all(sl.grid is slices[0].grid for sl in slices)
    with pytest.raises(ValueError, match="read-only"):
        points[0] = 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_telegraph_long_run_stays_finite_and_conservative(eps):
    # nu = 400 to v = 2: 7.1e5 steps at eps = 1e-4 (diffusive bound) and
    # 8.9e5 at eps = 1e-6 (wave bound, p_prev < 0)
    prof = GaussianProfile(100.0, 1.0)
    cfg = FdConfig.auto(400, eps, times(2.0))
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
