import math

import numpy as np
import pytest

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
# The solvers evaluate the schemes in DCT mode space. These plain-numpy
# kernels march the same schemes one step at a time, with the mirror ghost
# cells n[-1] = n[0] and n[nu] = n[nu-1] inlined, and serve as the reference.


def mirror_laplacian(n):
    lap = np.empty_like(n)
    lap[1:-1] = n[2:] - 2.0 * n[1:-1] + n[:-2]
    lap[0] = n[1] - n[0]
    lap[-1] = n[-2] - n[-1]
    return lap


def step_heat(n0, cfg, steps):
    r = cfg.dv / cfg.du**2
    cur = n0.copy()
    for _ in range(steps):
        cur = cur + r * mirror_laplacian(cur)
    return cur


def step_telegraph(n0, cfg, steps):
    eps, dv, du = cfg.eps, cfg.dv, cfg.du
    if steps == 0:
        return n0.copy()
    denom = eps + 0.5 * dv
    p_lap = dv * dv / (du * du) / denom
    p_prev = (eps - 0.5 * dv) / denom
    prev = n0.copy()
    cur = prev + (dv * dv / (2.0 * eps)) / (du * du) * mirror_laplacian(prev)
    for _ in range(steps - 1):
        prev, cur = cur, cur + p_lap * mirror_laplacian(cur) + p_prev * (cur - prev)
    return cur


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
