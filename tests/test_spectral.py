import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slabdiff import (
    DomainError,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    ReferenceInvalidError,
    ResonantModeError,
    SpectralCoefficients,
    field_slice,
    free_space_reference,
    hyperbolic_density,
    hyperbolic_mode_factor,
    parabolic_density,
    time_trace,
    wkb_coefficients,
    wkb_density,
)
from slabdiff.core import TimeGrid
from slabdiff.spectral import BLOCK, CRITICAL_DISC_TOL, _split_times

EPS_REF = 0.13


def single_mode_coeffs(k0=1.0, k1=1.0):
    return SpectralCoefficients(mean=k0, modes=np.array([k1]))


# ---------------------------------------------------------------------------
# parabolic family
# ---------------------------------------------------------------------------


def test_parabolic_constant_state():
    c = SpectralCoefficients(mean=1.0, modes=np.zeros(5))
    rng = np.random.default_rng(0)
    for u, v in zip(rng.uniform(-0.5, 0.5, 8), rng.uniform(0, 2, 8)):
        assert parabolic_density(c, float(u), float(v)) == 1.0


def test_parabolic_single_mode_decay():
    c = single_mode_coeffs()
    expected = 1.0 + math.exp(-4.0 * math.pi**2 * 0.1)
    assert parabolic_density(c, 0.0, 0.1) == pytest.approx(expected, rel=1e-14)
    assert parabolic_density(c, 0.0, 0.1) == pytest.approx(1.0192963029110167, rel=1e-13)


def test_parabolic_reaches_equilibrium(gaussian_coeffs):
    # slowest mode factor exp(-4 pi^2 * 10) ~ 1e-172
    u = np.linspace(-0.5, 0.5, 11)
    np.testing.assert_allclose(
        parabolic_density(gaussian_coeffs, u, 10.0), gaussian_coeffs.mean, atol=1e-100
    )


def test_parabolic_domain_checks(gaussian_coeffs):
    with pytest.raises(DomainError):
        parabolic_density(gaussian_coeffs, 0.6, 0.1)
    with pytest.raises(DomainError):
        parabolic_density(gaussian_coeffs, 0.0, -0.1)
    for family in (
        lambda v: parabolic_density(gaussian_coeffs, 0.0, v),
        lambda v: hyperbolic_density(gaussian_coeffs, EPS_REF, 0.0, v),
        lambda v: wkb_density(gaussian_coeffs, EPS_REF, 0.0, v),
    ):
        assert math.isnan(family(math.nan))


# ---------------------------------------------------------------------------
# mode classification and factors
# ---------------------------------------------------------------------------


def underdamped_factor(eps, omega, v):
    return math.exp(-v / (2 * eps)) * (
        math.cos(omega * v) + math.sin(omega * v) / (2 * eps * omega)
    )


def test_mode_classification_reference_case():
    # Mode 1 at the reference eps is underdamped: decay 1/(2 eps), angular
    # frequency omega.
    omega = math.sqrt((4 * math.pi) ** 2 * EPS_REF - 1.0) / (2 * EPS_REF)
    assert omega == pytest.approx(16.99668308846906, rel=1e-13)
    for v in (0.05, 0.3, 1.1):
        assert hyperbolic_mode_factor(EPS_REF, 1, v) == pytest.approx(
            underdamped_factor(EPS_REF, 16.99668308846906, v), rel=1e-13
        )


def test_mode_classification_critical():
    eps_c = 1.0 / (4.0 * (2.0 * math.pi) ** 2)
    for v in (0.01, 0.1):
        assert hyperbolic_mode_factor(eps_c, 1, v) == pytest.approx(
            math.exp(-v / (2 * eps_c)) * (1 + v / (2 * eps_c)), rel=1e-14
        )


def test_mode_classification_overdamped_limit():
    # Overdamped: no oscillation, and the slow exponent mu1 tends to the
    # parabolic rate -(2 pi)^2, so V decays like exp(mu1 v) once the fast
    # exponent mu2 = -1/eps has died out.
    v = np.linspace(0.0, 1.0, 201)
    vals = hyperbolic_mode_factor(1e-8, 1, v)
    assert np.all(np.diff(vals) < 0) and np.all(vals > 0)
    mu1 = math.log(vals[-1] / vals[-2]) / (v[-1] - v[-2])
    assert mu1 == pytest.approx(-((2 * math.pi) ** 2), rel=1e-3)


def test_mode_evolutions_amplitudes(gaussian_coeffs):
    eps = 1e-3  # modes 1..2 overdamped for this eps
    m = np.arange(1, gaussian_coeffs.truncation + 1)
    # Broadcast over every mode: V_m(0) = k_m for each damping class.
    np.testing.assert_array_equal(hyperbolic_mode_factor(eps, m, 0.0), 1.0)
    # V_m'(0) = 0 for the overdamped modes, from a (mode x time) table
    h = 1e-6
    f = hyperbolic_mode_factor(eps, m[:2, None], h * np.arange(4)[None, :])
    assert f.shape == (2, 4)
    slope = (-11 * f[:, 0] + 18 * f[:, 1] - 9 * f[:, 2] + 2 * f[:, 3]) / (6 * h)
    assert np.all(np.abs(slope) < 1e-6)
    with pytest.raises(InvalidParameterError):
        hyperbolic_mode_factor(0.0, 1, 0.1)
    with pytest.raises(InvalidParameterError):
        hyperbolic_density(gaussian_coeffs, 0.0, 0.0, 0.1)


@pytest.mark.parametrize(
    "eps,m",
    [
        (EPS_REF, 1),  # underdamped
        (1e-3, 1),  # overdamped
        (1.0 / (4.0 * (2.0 * math.pi) ** 2), 1),  # critical
    ],
)
def test_mode_factor_initial_conditions(eps, m):
    assert hyperbolic_mode_factor(eps, m, 0.0) == 1.0
    # 3rd-order one-sided stencil for the initial slope
    h = 1e-6
    f = hyperbolic_mode_factor(eps, m, h * np.arange(4))
    slope = (-11 * f[0] + 18 * f[1] - 9 * f[2] + 2 * f[3]) / (6 * h)
    assert abs(slope) < 1e-6


def test_mode_factor_critical_closed_form():
    eps_c = 1.0 / (4.0 * (2.0 * math.pi) ** 2)
    assert hyperbolic_mode_factor(eps_c, 1, 2 * eps_c) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-14
    )
    assert hyperbolic_mode_factor(eps_c, 1, 2 * eps_c) == pytest.approx(
        0.7357588823428847, rel=1e-13
    )


def test_mode_factor_matches_parabolic_for_tiny_eps():
    factor = hyperbolic_mode_factor(1e-8, 1, 0.1)
    assert factor == pytest.approx(math.exp(-4 * math.pi**2 * 0.1), rel=1e-4)


@pytest.mark.parametrize(
    "eps,m,v",
    [
        (EPS_REF, 1, 0.3),
        (EPS_REF, 3, 0.7),
        (1e-3, 1, 0.05),
        (1e-3, 2, 0.02),
        (1.0 / (4.0 * (2.0 * math.pi) ** 2), 1, 0.02),
        (0.02, 5, 0.1),
    ],
)
def test_mode_factor_against_ode_integration(eps, m, v):
    # Independent oracle: integrate eps*V'' + V' + (2 m pi)^2 V = 0 directly.
    lam = (2 * math.pi * m) ** 2

    def rhs(t, y):
        return [y[1], -(y[1] + lam * y[0]) / eps]

    sol = solve_ivp(rhs, [0.0, v], [1.0, 0.0], rtol=1e-11, atol=1e-13, method="DOP853")
    assert hyperbolic_mode_factor(eps, m, v) == pytest.approx(
        float(sol.y[0, -1]), abs=5e-11
    )


def test_mode_factor_real_and_finite_for_large_arguments():
    v = np.linspace(0.0, 5.0, 101)
    vals = hyperbolic_mode_factor(EPS_REF, 500, v)
    assert np.all(np.isfinite(vals))
    assert vals.dtype == np.float64


# ---------------------------------------------------------------------------
# hyperbolic density
# ---------------------------------------------------------------------------


def test_hyperbolic_constant_state():
    c = SpectralCoefficients(mean=2.0, modes=np.zeros(3))
    u = np.linspace(-0.5, 0.5, 7)
    np.testing.assert_array_equal(hyperbolic_density(c, EPS_REF, u, 0.37), 2.0)


def test_families_agree_at_v0(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 101)
    par = parabolic_density(gaussian_coeffs, u, 0.0)
    hyp = hyperbolic_density(gaussian_coeffs, EPS_REF, u, 0.0)
    wkb = wkb_density(gaussian_coeffs, EPS_REF, u, 0.0)
    np.testing.assert_allclose(hyp, par, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wkb, par, rtol=0, atol=1e-12)


def test_hyperbolic_wall_trace_peaks_near_arrival_times(gaussian_coeffs):
    # Wavefront arrives at the wall at v1 = 0.5*sqrt(eps), then every
    # round trip adds 2*v1. Attenuation shifts the sampled maxima only
    # slightly; the coarse check here stays well inside +-20%.
    v1 = 0.5 * math.sqrt(EPS_REF)
    times = TimeGrid.linspace(0.0, 1.0, 2001)
    trace = time_trace("hyperbolic", gaussian_coeffs, EPS_REF, 0.5, times)
    i1 = np.argmax(trace.values)
    assert trace.times.points[i1] == pytest.approx(v1, rel=0.05)


def test_evenness_of_all_families(gaussian_coeffs, surface_coeffs):
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 0.5, size=16)
    for c in (gaussian_coeffs, surface_coeffs):
        for v in (1e-3, 0.1, 1.0):
            for f in (
                lambda uu: parabolic_density(c, uu, v),
                lambda uu: hyperbolic_density(c, EPS_REF, uu, v),
                lambda uu: wkb_density(c, EPS_REF, uu, v),
            ):
                assert np.max(np.abs(f(u) - f(-u))) < 1e-12


def test_mass_conservation_all_families(gaussian_coeffs, surface_coeffs):
    grid = Grid1D.uniform_grid(4001)
    for c in (gaussian_coeffs, surface_coeffs):
        for model in ("parabolic", "hyperbolic", "wkb"):
            for v in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
                sl = field_slice(model, c, EPS_REF, grid, v)
                assert sl.mass() == pytest.approx(c.mean, abs=1e-8)


def test_long_time_equilibrium(gaussian_coeffs, surface_coeffs):
    u = np.linspace(-0.5, 0.5, 201)
    for c in (gaussian_coeffs, surface_coeffs):
        for f in (
            lambda uu: parabolic_density(c, uu, 1.0),
            lambda uu: hyperbolic_density(c, EPS_REF, uu, 1.0),
            lambda uu: wkb_density(c, EPS_REF, uu, 1.0),
        ):
            assert np.max(np.abs(f(u) - c.mean)) < 0.05 * c.mean


def test_hyperbolic_collapses_to_parabolic(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 21)
    vv = np.linspace(0.01, 1.0, 34)
    linf = []
    for eps in (1e-2, 1e-4, 1e-6):
        worst = max(
            float(
                np.max(
                    np.abs(
                        hyperbolic_density(gaussian_coeffs, eps, u, v)
                        - parabolic_density(gaussian_coeffs, u, v)
                    )
                )
            )
            for v in vv
        )
        linf.append(worst)
    assert linf[0] > linf[1] > linf[2]
    assert linf[2] <= 1e-4


# ---------------------------------------------------------------------------
# two-timescale (WKB-type) family
# ---------------------------------------------------------------------------


def test_wkb_weights_identities(gaussian_coeffs):
    w = wkb_coefficients(gaussian_coeffs, EPS_REF)
    residual = np.abs(w.fast + w.slow - gaussian_coeffs.modes)
    scale = np.maximum(np.abs(gaussian_coeffs.modes), 1e-300)
    assert np.max(residual / scale) < 1e-14


def test_wkb_weights_zero_eps(gaussian_coeffs):
    w = wkb_coefficients(gaussian_coeffs, 0.0)
    np.testing.assert_array_equal(w.fast, np.zeros_like(w.fast))
    np.testing.assert_array_equal(w.slow, gaussian_coeffs.modes)


def test_wkb_weights_half_resonance():
    # eps*(2 pi)^2 = 0.5 -> fast = -k, slow = 2k
    eps = 0.5 / (2 * math.pi) ** 2
    c = single_mode_coeffs(k1=0.7)
    w = wkb_coefficients(c, eps)
    assert w.fast[0] == pytest.approx(-0.7, rel=1e-13)
    assert w.slow[0] == pytest.approx(1.4, rel=1e-13)


def test_wkb_resonant_mode_is_an_error(gaussian_coeffs):
    m = 3
    eps = 1.0 / (2 * math.pi * m) ** 2
    with pytest.raises(ResonantModeError, match="m=3"):
        wkb_coefficients(gaussian_coeffs, eps)
    with pytest.raises(InvalidParameterError):
        wkb_coefficients(gaussian_coeffs, -0.1)


@pytest.mark.filterwarnings("error")  # exp(-v/eps) must not be formed at eps = 0
def test_wkb_zero_eps_equals_parabolic_exactly(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 101)
    for v in (0.0, 0.05, 0.37, 2.0):
        np.testing.assert_array_equal(
            wkb_density(gaussian_coeffs, 0.0, u, v),
            parabolic_density(gaussian_coeffs, u, v),
        )


@pytest.mark.filterwarnings("error")  # -v/eps overflows to -inf at a subnormal eps
def test_wkb_subnormal_eps_is_parabolic_without_warnings(gaussian_coeffs):
    u = np.linspace(-0.5, 0.5, 101)
    for v in (0.0, 0.05, 2.0):
        np.testing.assert_allclose(
            wkb_density(gaussian_coeffs, 5e-324, u, v),
            parabolic_density(gaussian_coeffs, u, v),
            rtol=1e-15, atol=0.0,
        )


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
@pytest.mark.parametrize("m", [1, 2])
def test_wkb_initial_state_near_a_resonance(gaussian_coeffs, surface_coeffs, m, offset):
    # Near eps = 1/(2 m pi)^2 the fast and slow weights of mode m are large
    # and of opposite sign; the v = 0 state must still be k_m exactly.
    eps = 1.0 / (2 * math.pi * m) ** 2 + offset
    u = np.linspace(-0.5, 0.5, 201)
    for c in (gaussian_coeffs, surface_coeffs):
        dev = np.max(np.abs(wkb_density(c, eps, u, 0.0) - parabolic_density(c, u, 0.0)))
        assert dev <= 1e-14 * c.mean


def test_wkb_approaches_hyperbolic_as_eps_shrinks(gaussian_coeffs):
    # The slow exponent of the two-timescale form is -(2 m pi)^2 v, while
    # the exact slow root is -(2 m pi)^2 (1 + (2 m pi)^2 eps + ...), so the
    # families differ by O(eps * lambda^2 * v) and converge linearly in eps.
    gaps = []
    for eps in (1e-3, 1e-4, 1e-5):
        gap = abs(
            wkb_density(gaussian_coeffs, eps, 0.0, 0.05)
            - hyperbolic_density(gaussian_coeffs, eps, 0.0, 0.05)
        )
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3


# ---------------------------------------------------------------------------
# wall-free reference
# ---------------------------------------------------------------------------


def test_reference_recovers_initial_gaussian():
    p = GaussianProfile(sharpness=100.0, amplitude=1.0)
    ref = free_space_reference(p, 1e-12)
    u = np.linspace(-0.2, 0.2, 41)
    from slabdiff import evaluate_profile

    np.testing.assert_allclose(ref(u), evaluate_profile(p, u), rtol=1e-7)


def test_reference_width_addition():
    p = GaussianProfile(sharpness=100.0, amplitude=1.0)
    ref = free_space_reference(p, 1e-4)
    b_eff = 1.0 / (1.0 / 100.0 + 4e-4)
    assert b_eff == pytest.approx(96.15384615384616, rel=1e-14)
    assert ref(np.array([0.0]))[0] == pytest.approx(
        math.sqrt(b_eff / math.pi), rel=1e-13
    )


def test_reference_matches_parabolic_series(gaussian_coeffs):
    p = GaussianProfile(sharpness=100.0, amplitude=1.0)
    ref = free_space_reference(p, 1e-4)
    u = np.linspace(-0.25, 0.25, 501)
    delta = np.abs(parabolic_density(gaussian_coeffs, u, 1e-4) - ref(u))
    assert np.max(delta) < 1e-6


def test_reference_validity_checks():
    p = GaussianProfile(sharpness=100.0, amplitude=1.0)
    with pytest.raises(ReferenceInvalidError):
        free_space_reference(p, 0.1)  # sqrt(0.4) ~ 0.63 reaches the walls
    with pytest.raises(DomainError):
        free_space_reference(p, 0.0)
    with pytest.raises(InvalidParameterError):
        free_space_reference("not a gaussian", 1e-4)


# ---------------------------------------------------------------------------
# wall flux of the series families
# ---------------------------------------------------------------------------


def _wall_derivative(f, side):
    # one-sided 4th-order first-derivative stencil, stepping inward
    h = 1e-4 * (-side)
    pts = np.array([0.5 * side + k * h for k in range(5)])
    w = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    return float(np.dot(w, f(pts)))


def test_zero_flux_walls(gaussian_coeffs, surface_coeffs):
    for c in (gaussian_coeffs, surface_coeffs):
        for v in (1e-3, 1e-2, 1e-1, 1.0):
            for f in (
                lambda uu: parabolic_density(c, uu, v),
                lambda uu: hyperbolic_density(c, EPS_REF, uu, v),
            ):
                for side in (+1, -1):
                    assert abs(_wall_derivative(f, side)) < 1e-3 * c.mean


def test_zero_flux_walls_wkb(gaussian_coeffs, surface_coeffs):
    # The fast term freezes the unresolved coefficient tail with only an
    # exp(-v/eps) decay, so the stencil sees truncation ringing for the
    # boundary-layer profile at early times; 1e-2 is the honest bound there.
    for v in (1e-3, 1e-2, 1e-1, 1.0):
        f = lambda uu: wkb_density(gaussian_coeffs, EPS_REF, uu, v)
        for side in (+1, -1):
            assert abs(_wall_derivative(f, side)) < 1e-3 * gaussian_coeffs.mean
    for v, bound in ((1e-3, 1e-2), (1e-1, 1e-2), (1.0, 1e-3)):
        f = lambda uu: wkb_density(surface_coeffs, EPS_REF, uu, v)
        for side in (+1, -1):
            assert abs(_wall_derivative(f, side)) < bound * surface_coeffs.mean


# ---------------------------------------------------------------------------
# blocked evaluator against the per-mode reference
# ---------------------------------------------------------------------------
# The reference sums one mode at a time, highest m first, with compensated
# (Kahan) summation, and evaluates each telegraph mode through the closed
# form of its own damping class.


def reference_telegraph_factor(eps, m, v):
    disc = 1.0 - (4.0 * math.pi * m) ** 2 * eps
    sigma = -1.0 / (2.0 * eps)
    if disc > CRITICAL_DISC_TOL:
        sq = math.sqrt(disc)
        mu1 = -((4.0 * math.pi * m) ** 2) / (2.0 * (1.0 + sq))
        mu2 = -(1.0 + sq) / (2.0 * eps)
        return (mu2 * np.exp(mu1 * v) - mu1 * np.exp(mu2 * v)) / (mu2 - mu1)
    if disc < -CRITICAL_DISC_TOL:
        omega = math.sqrt(-disc) / (2.0 * eps)
        return np.exp(sigma * v) * (
            np.cos(omega * v) + (1.0 / (2.0 * eps * omega)) * np.sin(omega * v)
        )
    return np.exp(sigma * v) * (1.0 - sigma * v)


def reference_density(model, c, eps, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if model == "wkb":
        w = wkb_coefficients(c, eps)
        fast_factor = np.exp(-v / eps) if eps > 0 else np.zeros_like(v)
    total = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    comp = np.zeros_like(total)
    for m in range(c.truncation, 0, -1):
        slow = np.exp(-((2.0 * math.pi * m) ** 2) * v)
        if model == "parabolic":
            amplitude = c.modes[m - 1] * slow
        elif model == "hyperbolic":
            amplitude = c.modes[m - 1] * reference_telegraph_factor(eps, m, v)
        else:
            amplitude = w.fast[m - 1] * fast_factor + w.slow[m - 1] * slow
        y = amplitude * np.cos(2.0 * math.pi * m * u) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return c.mean + total


EPS_CRITICAL_M3 = 1.0 / (12.0 * math.pi) ** 2  # critical telegraph mode 3, resonant wkb mode 6
REFERENCE_U = np.linspace(-0.5, 0.5, 41)
TRACE_U = (0.0, 0.3, 0.5)
SLICE_V = (0.0, 1e-4, 1e-2, 1.0)
TRACE_V = np.linspace(0.0, 1.2, 61)
# Time rows long enough for the telegraph family's anchor/offset split: the
# presets' trace grid; an irregular grid of steps 1..3 / 1024, whose in-block
# offsets repeat exactly; and a row that interleaves times of unit decay with
# times of zero decay (at eps = 1e-4) inside every block.
SPLIT_V = {
    "linspace": TimeGrid.linspace(0.0, 1.2, 1201).points,
    "irregular": TimeGrid.from_values(
        np.cumsum(np.random.default_rng(6).integers(1, 4, 600)) / 1024.0
    ).points,
    "interleaved": np.tile([0.0, 1e-3, 0.3, 1.0], 150),
}


@pytest.mark.parametrize("name", sorted(SPLIT_V))
def test_long_time_rows_take_the_split(name):
    v = SPLIT_V[name]
    split = _split_times(v, np.ones_like(v))
    assert split is not None
    assert split.anchors.size + split.offsets.size <= v.size / 2
    np.testing.assert_array_equal(
        split.anchors[0, :, 0][:, None] + split.offsets[split.inv],
        np.pad(v, (0, -v.size % BLOCK), mode="edge").reshape(-1, BLOCK),
    )


def test_short_or_unrepeating_time_rows_keep_the_direct_formula():
    five = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    ragged = np.sort(np.random.default_rng(6).random(400))
    with_nan = SPLIT_V["linspace"].copy()
    with_nan[500] = math.nan
    for v in (five, ragged, with_nan):
        assert _split_times(v, np.ones_like(v)) is None


def test_blocks_of_zero_decay_are_dropped():
    v = SPLIT_V["linspace"]
    decay = np.exp(-v / 2e-4)
    decay[decay < 1e-300] = 0.0
    split = _split_times(v, decay)
    live = np.flatnonzero(decay)
    assert split.anchors.shape[1] == -(-live.size // BLOCK) < v.size // BLOCK
    assert _split_times(v, np.zeros_like(v)).anchors.size == 0


def test_a_nan_time_stays_in_its_own_sample(surface_coeffs):
    v = SPLIT_V["linspace"].copy()
    clean = hyperbolic_density(surface_coeffs, EPS_REF, 0.5, v)
    v[500] = math.nan
    values = hyperbolic_density(surface_coeffs, EPS_REF, 0.5, v)
    assert math.isnan(values[500])
    keep = np.arange(v.size) != 500
    np.testing.assert_allclose(values[keep], clean[keep], rtol=0, atol=1e-14)


@pytest.mark.parametrize("eps", [1e-4, EPS_CRITICAL_M3, 3e-3, EPS_REF, 1.0])
@pytest.mark.parametrize("profile", ["gaussian_coeffs", "surface_coeffs"])
def test_blocked_evaluator_matches_per_mode_reference(request, profile, eps):
    c = request.getfixturevalue(profile)
    tol = 1e-14 * (c.mean + np.sum(np.abs(c.modes)))
    families = {
        "parabolic": lambda u, v: parabolic_density(c, u, v),
        "hyperbolic": lambda u, v: hyperbolic_density(c, eps, u, v),
    }
    if eps != EPS_CRITICAL_M3:
        families["wkb"] = lambda u, v: wkb_density(c, eps, u, v)
    u_all = np.concatenate([REFERENCE_U, TRACE_U])
    v_all = np.concatenate([SLICE_V, TRACE_V])
    n_u, n_v = len(REFERENCE_U), len(SLICE_V)
    for model, density in families.items():
        ref = reference_density(model, c, eps, u_all[None, :], v_all[:, None])
        for i, v in enumerate(SLICE_V):
            np.testing.assert_allclose(density(REFERENCE_U, v), ref[i, :n_u], rtol=0, atol=tol)
        for j, u in enumerate(TRACE_U):
            np.testing.assert_allclose(density(u, TRACE_V), ref[n_v:, n_u + j], rtol=0, atol=tol)
        table = density(REFERENCE_U[None, :], TRACE_V[:, None])
        np.testing.assert_allclose(table, ref[n_v:, :n_u], rtol=0, atol=tol)
        # (u, v) pairs rather than an outer table
        pairs = density(REFERENCE_U, TRACE_V[:n_u])
        np.testing.assert_allclose(pairs, ref[n_v + np.arange(n_u), np.arange(n_u)],
                                   rtol=0, atol=tol)
    # Long time rows, on which the telegraph family works by angle addition.
    for v in SPLIT_V.values():
        ref = reference_density("hyperbolic", c, eps, np.array(TRACE_U)[None, :], v[:, None])
        for j, u in enumerate(TRACE_U):
            np.testing.assert_allclose(families["hyperbolic"](u, v), ref[:, j], rtol=0, atol=tol)
        table = families["hyperbolic"](np.array(TRACE_U)[None, :], v[:, None])
        np.testing.assert_allclose(table, ref, rtol=0, atol=tol)
