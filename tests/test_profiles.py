import logging
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import (
    adaptive_coefficients,
    gaussian_mode_closed_form,
    integrate_adaptive,
    mass_closed_form,
    surface_cosh_mode_closed_form,
)

from slabdiff import (
    CosineModeProfile,
    DomainError,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    QuadratureError,
    SurfaceCoshProfile,
    TabulatedProfile,
    UniformProfile,
    compute_coefficients,
    evaluate_profile,
    parabolic_density,
    preset,
    profiles,
    scenario_hash,
)
from slabdiff.cli import main
from slabdiff.profiles import COEFFICIENT_ABS_TOL, PANEL_ORDER, _fft_modes, check_truncation

@pytest.fixture
def fresh_coefficients():
    """An empty coefficient cache before and after the test.

    For a test that patches profiles internals or counts density
    evaluations or log lines: an entry that an earlier test filled would
    answer it without running the quadrature.
    """
    profiles._quadrature.cache_clear()
    yield
    profiles._quadrature.cache_clear()



# ---------------------------------------------------------------------------
# evaluate_profile
# ---------------------------------------------------------------------------


def test_gaussian_peak_value():
    p = GaussianProfile(sharpness=100.0, amplitude=1.0)
    assert evaluate_profile(p, 0.0) == pytest.approx(math.sqrt(100.0 / math.pi), rel=1e-14)
    assert evaluate_profile(p, 0.0) == pytest.approx(5.641895835477563, rel=1e-13)


def test_surface_profile_wall_value():
    p = SurfaceCoshProfile(sharpness=10.0, amplitude=1.0)
    expected = 0.5 * 10.0 * math.cosh(5.0) / math.sinh(5.0)
    assert evaluate_profile(p, 0.5) == pytest.approx(expected, rel=1e-13)
    assert evaluate_profile(p, 0.5) == pytest.approx(5.000454019910097, rel=1e-13)


def test_surface_profile_large_sharpness_does_not_overflow():
    # cosh(s*u) formed directly overflows for s ~ 1400.
    p = SurfaceCoshProfile(sharpness=9000.0, amplitude=1.0)
    wall = evaluate_profile(p, 0.5)
    assert math.isfinite(wall)
    assert wall == pytest.approx(0.5 * 9000.0, rel=1e-10)
    assert evaluate_profile(p, 0.0) >= 0.0


def test_uniform_profile():
    p = UniformProfile(level=1.0)
    rng = np.random.default_rng(3)
    for u in rng.uniform(-0.5, 0.5, size=10):
        assert evaluate_profile(p, float(u)) == 1.0


def test_cosine_mode_profile_values():
    p = CosineModeProfile(mode=2, offset=1.5, amplitude=-0.5)
    assert evaluate_profile(p, 0.0) == pytest.approx(1.0, rel=1e-15)
    u = np.linspace(-0.5, 0.5, 301)
    vals = evaluate_profile(p, u)
    assert np.all(vals >= 0)


def test_profile_domain_error():
    p = UniformProfile(level=1.0)
    with pytest.raises(DomainError):
        evaluate_profile(p, 0.5001)
    with pytest.raises(DomainError):
        evaluate_profile(p, np.array([0.0, -0.6]))


def test_delta_like_parameters_rejected():
    with pytest.raises(InvalidParameterError, match="Tabulated"):
        GaussianProfile(sharpness=2e6, amplitude=1.0)
    with pytest.raises(InvalidParameterError, match="Tabulated"):
        SurfaceCoshProfile(sharpness=2e4, amplitude=1.0)


def test_profile_parameter_validation():
    with pytest.raises(InvalidParameterError):
        GaussianProfile(sharpness=-1.0, amplitude=1.0)
    with pytest.raises(InvalidParameterError):
        GaussianProfile(sharpness=10.0, amplitude=0.0)
    with pytest.raises(InvalidParameterError):
        UniformProfile(level=-0.1)
    with pytest.raises(InvalidParameterError):
        CosineModeProfile(mode=0, offset=1.0, amplitude=0.5)
    with pytest.raises(InvalidParameterError):
        CosineModeProfile(mode=1, offset=0.4, amplitude=0.5)


def test_cosine_mode_accepts_numpy_integers_and_refuses_floats():
    p = CosineModeProfile(np.int64(3), 1.0, 0.5)
    assert p == CosineModeProfile(3, 1.0, 0.5)
    assert type(p.mode) is int
    for mode in (3.0, np.float64(3.0), "3", np.int64(0)):
        with pytest.raises(InvalidParameterError, match="mode"):
            CosineModeProfile(mode, 1.0, 0.5)


def test_tabulated_profile_symmetrized_and_interpolated():
    grid = Grid1D(points=np.array([-0.5, -0.1, 0.2, 0.5]))
    values = np.array([1.0, 0.5, 0.3, 2.0])
    p = TabulatedProfile(grid=grid, values=values)
    u = np.linspace(-0.5, 0.5, 101)
    # evenness is exact by construction (same float negated)
    np.testing.assert_array_equal(evaluate_profile(p, u), evaluate_profile(p, -u))
    assert evaluate_profile(p, 0.5) == pytest.approx(1.5, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        TabulatedProfile(grid=grid, values=np.array([1.0, -0.5, 0.3, 2.0]))


# ---------------------------------------------------------------------------
# compute_coefficients
# ---------------------------------------------------------------------------


def test_uniform_coefficients():
    c = compute_coefficients(UniformProfile(level=1.0), 10)
    assert c.mean == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(c.modes)) < 1e-13


def test_single_mode_orthogonality():
    c = compute_coefficients(CosineModeProfile(mode=1, offset=1.0, amplitude=1.0), 10)
    assert c.mean == pytest.approx(1.0, abs=1e-12)
    assert c.modes[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(c.modes[1:])) < 1e-12


def test_surface_first_coefficient_matches_closed_form():
    p = SurfaceCoshProfile(sharpness=10.0, amplitude=1.0)
    c = compute_coefficients(p, 5)
    expected = 2.0 * 100.0 * (-1.0) / ((2.0 * math.pi) ** 2 + 100.0)
    assert expected == pytest.approx(-1.4339136006497955, rel=1e-15)
    assert c.modes[0] == pytest.approx(expected, abs=1e-10)
    assert surface_cosh_mode_closed_form(p, 1) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("m", [1, 2, 7, 25, 100])
def test_surface_coefficients_vs_closed_form(surface_profile, m):
    c = compute_coefficients(surface_profile, m)
    assert c.modes[m - 1] == pytest.approx(
        surface_cosh_mode_closed_form(surface_profile, m), abs=1e-10
    )


def test_surface_mass_is_amplitude(surface_profile):
    c = compute_coefficients(surface_profile, 3)
    assert c.mean == pytest.approx(1.0, abs=1e-12)
    c2 = compute_coefficients(SurfaceCoshProfile(sharpness=55.0, amplitude=2.5), 3)
    assert c2.mean == pytest.approx(2.5, abs=1e-11)


def test_gaussian_mass_close_to_one(gaussian_coeffs):
    # Mass escaping past the walls is ~erfc(5); quadrature resolves it.
    assert abs(gaussian_coeffs.mean - 1.0) < 1.6e-12
    assert gaussian_coeffs.mean == pytest.approx(math.erf(5.0), abs=1e-14)


def test_mass_consistency_with_trapezoid(gaussian_profile, surface_profile):
    u = np.linspace(-0.5, 0.5, 10001)
    h = u[1] - u[0]
    for profile in (gaussian_profile, CosineModeProfile(3, 1.0, 0.5)):
        c = compute_coefficients(profile, 5)
        trapz_mass = np.trapezoid(evaluate_profile(profile, u), u)
        assert c.mean == pytest.approx(trapz_mass, abs=1e-8)
    # The boundary-layer profile has nonzero wall slope, so the trapezoid
    # itself is off by h^2/12 * (f'(1/2) - f'(-1/2)) = 8.33e-8 on this grid;
    # subtracting the Euler-Maclaurin correction restores 1e-8 agreement.
    c = compute_coefficients(surface_profile, 5)
    trapz_mass = np.trapezoid(evaluate_profile(surface_profile, u), u)
    s, A = 10.0, 1.0
    wall_slope = 0.5 * A * s * s * math.sinh(s / 2) / math.sinh(s / 2)
    correction = h * h / 12.0 * 2.0 * wall_slope
    assert c.mean == pytest.approx(trapz_mass - correction, abs=1e-8)


def test_reconstruction_is_even(gaussian_coeffs, surface_coeffs):
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 0.5, size=40)
    for c in (gaussian_coeffs, surface_coeffs):
        delta = np.abs(parabolic_density(c, u, 0.0) - parabolic_density(c, -u, 0.0))
        assert np.max(delta) < 1e-12


def test_gaussian_reconstruction_converges(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 2001)
    profile = GaussianProfile(sharpness=100.0, amplitude=1.0)
    err = np.abs(parabolic_density(gaussian_coeffs, u, 0.0) - evaluate_profile(profile, u))
    assert np.max(err) < 1e-6
    wide = GaussianProfile(sharpness=1000.0, amplitude=1.0)
    cw = compute_coefficients(wide, 500)
    err = np.abs(parabolic_density(cw, u, 0.0) - evaluate_profile(wide, u))
    assert np.max(err) < 1e-6


def test_surface_reconstruction_bounded_by_coefficient_tail(surface_profile, surface_coeffs):
    # The coefficient tail decays like 1/m^2, so the truncated series misses
    # about sum_{m>M} 2 s^2/((2 m pi)^2 + s^2) at the walls; 1e-6 accuracy is
    # not reachable at M=500 and the honest bound is the tail sum itself.
    s, M = 10.0, surface_coeffs.truncation
    tail_sum = 2 * s * s / ((2 * math.pi * (M + 1)) ** 2 + s * s) + 2 * s * s / (
        4 * math.pi**2 * M
    )
    u = np.linspace(-0.5, 0.5, 2001)
    err = np.abs(parabolic_density(surface_coeffs, u, 0.0) - evaluate_profile(surface_profile, u))
    assert np.max(err) <= tail_sum
    # away from the walls the alternating tail nearly cancels
    interior = np.abs(u) <= 0.4
    assert np.max(err[interior]) < 1e-4


def test_tail_diagnostic_reported(gaussian_coeffs, surface_coeffs):
    assert gaussian_coeffs.tail == abs(gaussian_coeffs.modes[-1])
    # smooth profile: true k_500 ~ exp(-2500 pi^2 / 100) underflows, only the
    # quadrature noise floor remains; boundary-layer profile: 1/m^2 tail
    assert gaussian_coeffs.tail < 1e-12
    assert surface_coeffs.tail == pytest.approx(
        abs(surface_cosh_mode_closed_form(SurfaceCoshProfile(10.0, 1.0), 500)), rel=1e-6
    )


@pytest.mark.parametrize("sharpness", [5e-324, 1e-300, 1e-16, 1e-3, 1.0, 10.0, 700.0, 1e4])
@pytest.mark.parametrize("amplitude", [1e-300, 1.0, 1e99])
def test_surface_peak_is_the_density_at_the_walls(sharpness, amplitude):
    # peak() takes math.exp and the density numpy's exp, whose roundings
    # differ by a few ulps.
    p = SurfaceCoshProfile(sharpness=sharpness, amplitude=amplitude)
    assert type(p.peak()) is float
    assert p.peak() == pytest.approx(evaluate_profile(p, 0.5), rel=1e-15, abs=0)
    assert evaluate_profile(p, np.linspace(-0.5, 0.5, 101)).max() <= p.peak() * (1 + 1e-15)


@pytest.mark.parametrize("profile, unit", [
    (UniformProfile(level=1e4), UniformProfile(level=1.0)),
    (GaussianProfile(sharpness=100.0, amplitude=1e5), GaussianProfile(100.0, 1.0)),
    (SurfaceCoshProfile(sharpness=10.0, amplitude=1e4), SurfaceCoshProfile(10.0, 1.0)),
])
def test_coefficients_scale_with_the_profile(profile, unit):
    """The quadrature tolerance grows with k0, so a scaled profile converges."""
    scale = profile.peak() / unit.peak()
    c, c_unit = compute_coefficients(profile, 500), compute_coefficients(unit, 500)
    assert c.mean == pytest.approx(scale * c_unit.mean, rel=1e-12)
    np.testing.assert_allclose(c.modes, scale * c_unit.modes, rtol=0,
                               atol=2e-12 * scale * c_unit.mean)


def fft_values(profile, truncation):
    """k0..k_M of the FFT rule alone, as compute_coefficients starts it."""
    return _fft_modes(profile, truncation, check_truncation(profile, truncation)[1])[0]


def floor_mask(profile, truncation):
    """k_1..k_M whose FFT value is within the tolerance of zero."""
    values = fft_values(profile, truncation)
    return np.abs(values[1:]) <= COEFFICIENT_ABS_TOL * max(1.0, abs(values[0]))


@pytest.mark.parametrize("name", ["gaussian_coeffs", "surface_coeffs"])
def test_preset_coefficients_match_the_adaptive_oracle_bit_for_bit(request, name):
    """The FFT rule only checks the k_m sums above the tolerance floor: those
    keep every bit, and the modes at the floor are the FFT values.

    k0 comes from the FFT rule and is checked against its closed form. The
    Gaussian's k_24..k_500 are at the floor; no surface mode is.
    """
    c = request.getfixturevalue(name)
    profile = request.getfixturevalue(name.replace("coeffs", "profile"))
    reference = adaptive_coefficients(profile, c.truncation)
    mass = mass_closed_form(profile)
    assert abs(c.mean - mass) <= 1e-15 * abs(mass)
    floor = floor_mask(profile, c.truncation)
    assert np.count_nonzero(floor) == {"gaussian_coeffs": 477, "surface_coeffs": 0}[name]
    assert np.array_equal(c.modes[~floor], reference.modes[~floor])
    assert np.array_equal(c.modes[floor], fft_values(profile, c.truncation)[1:][floor])


#: The sharpness range's ends, the other kinds and the scaled presets; the
#: presets themselves are the bit-for-bit test above.
ORACLE_GRID = {
    "gaussian_1e-3": GaussianProfile(1e-3, 1.0),
    "gaussian_1e6": GaussianProfile(1e6, 1.0),
    "surface_1e-3": SurfaceCoshProfile(1e-3, 1.0),
    "surface_1e4": SurfaceCoshProfile(1e4, 1.0),
    "uniform": UniformProfile(1.0),
    "cosine_mode_3": CosineModeProfile(3, 1.0, 0.5),
    "cosine_mode_400": CosineModeProfile(400, 2.0, 1.0),
    "gaussian_amplitude_1e5": GaussianProfile(100.0, 1e5),
    "surface_amplitude_1e4": SurfaceCoshProfile(10.0, 1e4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRID))
def test_coefficients_within_tolerance_of_the_adaptive_oracle(name):
    profile = ORACLE_GRID[name]
    # Each oracle integral is independent of M, so M = 7 is a prefix of 500.
    reference = adaptive_coefficients(profile, 500)
    tol = COEFFICIENT_ABS_TOL * max(1.0, abs(reference.mean))
    mass = mass_closed_form(profile)
    for truncation in (7, 500):
        c = compute_coefficients(profile, truncation)
        assert abs(c.mean - mass) <= COEFFICIENT_ABS_TOL * max(1.0, abs(mass))
        np.testing.assert_allclose(c.modes, reference.modes[:truncation], rtol=0, atol=tol)


@pytest.mark.parametrize("profile, truncation, closed_form", [
    (SurfaceCoshProfile(10.0, 1.0), 500, surface_cosh_mode_closed_form),
    (SurfaceCoshProfile(10.0, 1.0), 5000, surface_cosh_mode_closed_form),
    (GaussianProfile(100.0, 1.0), 500, gaussian_mode_closed_form),
    (GaussianProfile(1e4, 1.0), 500, gaussian_mode_closed_form),
])
def test_fft_rule_matches_closed_forms(profile, truncation, closed_form):
    """The FFT rule alone is an order of magnitude inside the quadrature tolerance."""
    values = fft_values(profile, truncation)
    exact = [mass_closed_form(profile)]
    exact += [closed_form(profile, m) for m in range(1, truncation + 1)]
    np.testing.assert_allclose(values, exact, rtol=0, atol=1e-14 * max(1.0, profile.amplitude))


@pytest.mark.parametrize("sharpness, first, bound", [(100.0, 24, 1e-14), (1e4, 170, 1e-13)])
def test_floor_modes_are_the_fft_values_and_closer_to_the_closed_form(sharpness, first, bound):
    """At the floor the FFT values are returned, not the direct sums.

    Measured against the closed form: the floor modes' errors sum, as at
    u = 0 where every cosine is 1, to -2.6e-15 (sharpness 100) and -3.2e-14
    (1e4), each mode within 1.3e-15. The direct sums they replace summed to
    -5.2e-13 and -3.6e-13, with a worst mode of 3.9e-15.
    """
    profile = GaussianProfile(sharpness, 1.0)
    c = compute_coefficients(profile, 500)
    floor = floor_mask(profile, 500)
    assert np.array_equal(np.flatnonzero(floor) + 1, np.arange(first, 501))
    exact = np.array([gaussian_mode_closed_form(profile, m) for m in range(first, 501)])
    error = c.modes[floor] - exact
    assert abs(np.sum(error)) <= bound
    assert np.max(np.abs(error)) <= 2e-15


@pytest.mark.usefixtures("fresh_coefficients")
def test_floor_modes_cost_no_direct_sums(monkeypatch, caplog):
    """At terms = 20000 the Gaussian's density is evaluated by the FFT passes
    and the direct sums of k_1..k_23 alone: on 20, 22 and 24 panels over the
    slab, 16 nodes each."""
    profile = GaussianProfile(100.0, 1.0)
    calls = []
    density = GaussianProfile._density

    def spy(self, u):
        calls.append(np.size(u))
        return density(self, u)

    monkeypatch.setattr(GaussianProfile, "_density", spy)
    fft_values(profile, 20000)
    fft_passes, calls[:] = list(calls), []
    with caplog.at_level(logging.DEBUG, logger="slabdiff.profiles"):
        compute_coefficients(profile, 20000)
    assert calls == fft_passes + [PANEL_ORDER * panels for panels in (20, 22, 24)]
    (message,) = [r.getMessage() for r in caplog.records]
    assert "23 of 20000 direct sums kept, 19977 modes at the floor" in message


class CoarseHintGaussian(GaussianProfile):
    """A Gaussian whose panel hint ignores its width: every first sum is unresolved."""

    hint = 2

    def quadrature_panels_hint(self) -> int:
        return self.hint


class EightPanelGaussian(CoarseHintGaussian):
    """At sharpness 1e4, k_1..k_7's first sums, on 16 panels, are 5.4e-10 to
    1.3e-9 from the FFT rule: a tolerance of 1e-9 would keep k_1..k_5."""

    hint = 8


@pytest.mark.usefixtures("fresh_coefficients")
def test_fft_rule_hits_the_cap(monkeypatch):
    # From 2 panels over [0, 1/2] the FFT rule compares 2 vs 4 and 4 vs 8
    # panels, and the cap stops it before 16.
    cap = PANEL_ORDER * (2 + 4 + 8)
    monkeypatch.setattr(profiles, "MAX_EVALUATIONS", cap)
    with pytest.raises(QuadratureError, match="FFT coefficient rule") as excinfo:
        compute_coefficients(CoarseHintGaussian(1e4, 1.0), 7)
    err = excinfo.value
    assert math.isfinite(err.best) and math.isfinite(err.last_delta)
    assert err.last_delta > COEFFICIENT_ABS_TOL
    assert 0 < err.evaluations <= cap


@pytest.mark.parametrize("cls", [CoarseHintGaussian, EightPanelGaussian])
def test_sums_that_miss_the_tolerance_take_the_fft_values(cls):
    profile = cls(1e4, 1.0)
    c = compute_coefficients(profile, 7)
    assert np.array_equal(c.modes, fft_values(profile, 7)[1:])
    assert abs(c.mean - mass_closed_form(profile)) <= 1e-12
    exact = [gaussian_mode_closed_form(profile, m) for m in range(1, 8)]
    np.testing.assert_allclose(c.modes, exact, rtol=0, atol=1e-12)


@pytest.mark.usefixtures("fresh_coefficients")
def test_missed_sums_need_no_evaluations_after_the_fft_rule(monkeypatch):
    # The FFT rule converges under the normal cap; k_1's first sum, on 4
    # panels, then misses it. A cap of 4 panels from then on leaves room
    # for that first sum and nothing more.
    fft_modes = profiles._fft_modes

    def fft_modes_then_lower_the_cap(*args):
        result = fft_modes(*args)
        monkeypatch.setattr(profiles, "MAX_EVALUATIONS", PANEL_ORDER * 4)
        return result

    monkeypatch.setattr(profiles, "_fft_modes", fft_modes_then_lower_the_cap)
    profile = CoarseHintGaussian(1e4, 1.0)
    c = compute_coefficients(profile, 7)
    monkeypatch.undo()
    assert np.array_equal(c.modes, fft_values(profile, 7)[1:])


@pytest.mark.usefixtures("fresh_coefficients")
def test_cli_coeffs_reports_quadrature_error(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("[scenario]\nname = capped\neps = 0.13\nterms = 500\nu_points = 51\n"
                   "v = 0.01\nmodels = parabolic\n\n"
                   "[profile]\nkind = gaussian\nsharpness = 100\namplitude = 1\n")
    # Validation and the first-pass check see the real cap; the FFT rule then
    # runs under one of 64 evaluations, which its second pass exceeds.
    fft_modes = profiles._fft_modes

    def fft_modes_under_a_lower_cap(*args):
        monkeypatch.setattr(profiles, "MAX_EVALUATIONS", 4 * PANEL_ORDER)
        return fft_modes(*args)

    monkeypatch.setattr(profiles, "_fft_modes", fft_modes_under_a_lower_cap)
    assert main(["coeffs", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.usefixtures("fresh_coefficients")
def test_out_of_reach_truncation_is_refused_before_any_evaluation(monkeypatch):
    calls = []
    density = GaussianProfile._density

    def spy(self, u):
        calls.append(np.size(u))
        return density(self, u)

    monkeypatch.setattr(GaussianProfile, "_density", spy)
    profile = GaussianProfile(100.0, 1.0)
    # Under a cap of 128 evaluations the FFT rule's first pass alone would
    # take 16 * 1000 at M = 4000, and 16 * 10 (the panel hint) at M = 1.
    monkeypatch.setattr(profiles, "MAX_EVALUATIONS", 128)
    for truncation in (4000, 1):
        with pytest.raises(InvalidParameterError, match=f"terms={truncation} needs"):
            compute_coefficients(profile, truncation)
        assert calls == []
    # Under the real cap k_M's first direct sum takes 32 * max(hint, ceil(M/2))
    # of its 2**20 evaluations: M = 65536 fits, M = 65537 does not.
    monkeypatch.undo()
    monkeypatch.setattr(GaussianProfile, "_density", spy)
    assert check_truncation(profile, 65536) == (65536, 16384)
    with pytest.raises(InvalidParameterError, match="terms=65537 needs 1048608 density"):
        compute_coefficients(profile, 65537)
    # A hint of h panels costs the FFT rule 48 * h evaluations for its first
    # two passes: h = 21845 (a cosine mode of 43690) fits, 21846 does not.
    assert check_truncation(CosineModeProfile(43690, 1.0, 1.0), 7) == (7, 21845)
    with pytest.raises(InvalidParameterError, match="terms=7 needs 1048608 density"):
        check_truncation(CosineModeProfile(43691, 1.0, 1.0), 7)
    assert calls == []


@pytest.mark.usefixtures("fresh_coefficients")
def test_coefficients_log_the_fft_check(caplog):
    with caplog.at_level(logging.DEBUG, logger="slabdiff.profiles"):
        compute_coefficients(GaussianProfile(100.0, 1.0), 7)
        compute_coefficients(CoarseHintGaussian(1e4, 1.0), 7)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert "FFT check on 20 panels" in messages[0]
    assert "7 of 7 direct sums kept" in messages[0]
    assert "0 of 7 direct sums kept" in messages[1]


#: One profile in four spellings that compare and hash equal: each field is
#: stored as a float, so all four have one tag.
SPELLINGS = {
    "int": GaussianProfile(100, 1),
    "float": GaussianProfile(100.0, 1.0),
    "numpy": GaussianProfile(np.float64(100.0), 1.0),
    "float32": GaussianProfile(np.float32(100.0), np.float32(1.0)),
}


@pytest.mark.usefixtures("fresh_coefficients")
@pytest.mark.parametrize("order", [("int", "float", "numpy", "float32"),
                                   ("float32", "numpy", "float", "int")])
def test_equal_profiles_share_one_entry_and_one_tag(order):
    # A float32 field computed sharpness/pi in float32, 1.1e-8 away, under
    # the hash of the float profile.
    first = compute_coefficients(SPELLINGS[order[0]], 7)
    for name in order:
        profile = SPELLINGS[name]
        assert profile == SPELLINGS["float"] and hash(profile) == hash(SPELLINGS["float"])
        assert all(type(getattr(profile, f)) is float for f in ("sharpness", "amplitude"))
        c = compute_coefficients(profile, 7)
        assert c.profile_tag == "gaussian(sharpness=100.0,amplitude=1.0)"
        assert c.mean == first.mean and np.array_equal(c.modes, first.modes)
    assert profiles._quadrature.cache_info().currsize == 1


@pytest.mark.usefixtures("fresh_coefficients")
@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
def test_equal_profiles_share_one_entry_and_keep_their_own_tags(order):
    # amplitude 0.0 and -0.0 compare equal and compute equal coefficients,
    # but their tags differ. The tag goes into run.json and the coeffs
    # header: a cached tag would make those bytes depend on which ran first.
    first = compute_coefficients(CosineModeProfile(2, 1.0, order[0]), 7)
    for amplitude in order:
        c = compute_coefficients(CosineModeProfile(2, 1.0, amplitude), 7)
        assert c.profile_tag == f"cosine_mode(mode=2,offset=1.0,amplitude={amplitude!r})"
        assert c.mean == first.mean and np.array_equal(c.modes, first.modes)
    assert profiles._quadrature.cache_info().currsize == 1


def test_float_fields_are_stored_as_floats():
    # under -W error, a float32 peak against MAX_DENSITY warned of an overflow
    s = replace(preset("figure1"), profile=SPELLINGS["float32"])
    assert s == preset("figure1") and scenario_hash(s) == scenario_hash(preset("figure1"))
    for profile in (UniformProfile(np.int64(2)), CosineModeProfile(np.int64(3), 2, np.float32(1))):
        assert all(type(getattr(profile, f.name)) is (int if f.name == "mode" else float)
                   for f in fields(profile))
    for build in (lambda: UniformProfile("1"), lambda: GaussianProfile(100.0, "1")):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(InvalidParameterError, match="level must be finite"):
        UniformProfile(10**400)


@pytest.mark.usefixtures("fresh_coefficients")
def test_a_second_call_evaluates_no_density(monkeypatch):
    calls = []
    density = SurfaceCoshProfile._density

    def spy(self, u):
        calls.append(np.size(u))
        return density(self, u)

    monkeypatch.setattr(SurfaceCoshProfile, "_density", spy)
    first = compute_coefficients(SurfaceCoshProfile(10.0, 1.0), 50)
    assert calls
    calls.clear()
    second = compute_coefficients(SurfaceCoshProfile(10.0, 1.0), 50)
    assert calls == []
    assert second is not first
    assert second.mean == first.mean and np.array_equal(second.modes, first.modes)


@pytest.mark.usefixtures("fresh_coefficients")
def test_each_truncation_is_its_own_entry():
    profile = GaussianProfile(100.0, 1.0)
    c7, c8 = compute_coefficients(profile, 7), compute_coefficients(profile, 8)
    assert (c7.truncation, c8.truncation) == (7, 8)
    assert profiles._quadrature.cache_info().currsize == 2
    assert compute_coefficients(profile, 7).truncation == 7


@pytest.mark.usefixtures("fresh_coefficients")
def test_cached_modes_are_read_only():
    # Every caller is handed the one cached array.
    profile = GaussianProfile(100.0, 1.0)
    c = compute_coefficients(profile, 7)
    original = c.modes.copy()
    with pytest.raises(ValueError, match="read-only"):
        c.modes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        c.modes *= 2.0
    assert np.array_equal(compute_coefficients(profile, 7).modes, original)


def test_coefficients_validation():
    profile = GaussianProfile(100.0, 1.0)
    for truncation in (0, -3, 7.0, np.float64(7.0), "7", None):
        with pytest.raises(InvalidParameterError, match="terms must be"):
            compute_coefficients(profile, truncation)
    # numpy integers are mode counts, and give the same coefficients
    c, c_numpy = compute_coefficients(profile, 7), compute_coefficients(profile, np.int64(7))
    assert c_numpy.truncation == 7 and np.array_equal(c_numpy.modes, c.modes)


# ---------------------------------------------------------------------------
# tabulated profiles: exact coefficients
# ---------------------------------------------------------------------------


def segment_reference(profile, m):
    """2 * integral of n0(u) cos(2*m*pi*u), by quadrature over each linear piece."""
    knots = np.union1d(profile.grid.points, [-0.5, 0.5])

    def integrand(u):
        return evaluate_profile(profile, u) * np.cos(2.0 * math.pi * m * u)

    return 2.0 * math.fsum(
        integrate_adaptive(integrand, a, b, min_panels=m + 2) for a, b in zip(knots, knots[1:])
    )


TABLE_U = np.linspace(-0.5, 0.5, 21)
TABLES = {
    "gaussian_21": (TABLE_U, np.exp(-100.0 * TABLE_U**2)),
    "tent_on_constant": (TABLE_U, 1.0 + np.maximum(0.0, 1.0 - 3.0 * np.abs(TABLE_U))),
    "half_grid_irregular": (np.array([0.0, 0.013, 0.2, 0.31, 0.45]),
                            np.array([2.0, 1.5, 0.25, 0.0, 3.0])),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tabulated_coefficients_are_exact(name):
    points, values = TABLES[name]
    p = TabulatedProfile(grid=Grid1D(points=points), values=values)
    c = compute_coefficients(p, 500)
    assert c.mean == pytest.approx(segment_reference(p, 0) / 2.0, abs=1e-14)
    for m in (1, 2, 17, 250, 500):
        assert c.modes[m - 1] == pytest.approx(segment_reference(p, m), abs=1e-14)


FINE_U = np.linspace(-0.5, 0.5, 1001)
FINE_TABLE = TabulatedProfile(grid=Grid1D(points=FINE_U), values=np.exp(-100.0 * FINE_U**2))


@pytest.mark.usefixtures("fresh_coefficients")
def test_tabulated_mode_blocks_join_without_a_shift(monkeypatch):
    # Blocks of 7 modes over the 1000 segments: every mode of five blocks,
    # the last one short, against its own segment sum.
    monkeypatch.setattr(profiles, "TABULATED_BLOCK_BYTES", 8 * 1000 * 7)
    knots = np.union1d(FINE_TABLE.grid.points, [-0.5, 0.5])
    rise, width = np.diff(evaluate_profile(FINE_TABLE, knots)), np.diff(knots)
    mid = 0.5 * (knots[1:] + knots[:-1])
    assert mid.size == 1000
    _, modes = FINE_TABLE.exact_coefficients(33)
    assert modes.size == 33
    for m in range(1, 34):
        a = 2.0 * math.pi * m
        segments = rise * np.sin(a * mid) * np.sinc(m * width)
        assert modes[m - 1] == pytest.approx(-2.0 / a * math.fsum(segments), rel=0, abs=1e-15)


def test_tabulated_coefficients_take_bounded_memory():
    # One (modes x segments) array at M = 8192 and 1000 segments is 63 MiB,
    # and forming the whole sum at once peaked at 313 MiB (tracemalloc sees
    # numpy's buffers).
    tracemalloc.start()
    try:
        compute_coefficients(FINE_TABLE, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_tabulated_constant_has_no_modes():
    p = TabulatedProfile(grid=Grid1D(points=TABLE_U), values=np.full(TABLE_U.size, 3.0))
    c = compute_coefficients(p, 50)
    assert c.mean == 3.0
    assert np.all(c.modes == 0.0)


def test_tabulated_nodes_a_few_ulps_apart_are_one_node():
    p = TabulatedProfile(grid=Grid1D(points=np.linspace(-0.5, 0.5, 11)),
                         values=np.arange(11.0))
    assert len(p.grid) == 11
    np.testing.assert_array_equal(p.grid.points, -p.grid.points[::-1])
    # nodes far apart on their own scale stay distinct, however close to 0
    tiny = TabulatedProfile(grid=Grid1D(points=np.array([-0.25, 1e-300])),
                            values=np.array([1.0, 2.0]))
    assert tiny.grid.points.tolist() == [-0.25, -1e-300, 1e-300, 0.25]
