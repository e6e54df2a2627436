import math
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ReferenceInvalidError,
    extended_underdamped_density,
    free_space_reference,
    ode_telegraph_factor,
    reference_density,
    reference_telegraph_factor,
    wkb_coefficients,
    wkb_mode_factor,
)

from slabdiff import (
    CosineModeProfile,
    DomainError,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    SpectralCoefficients,
    compute_coefficients,
    field_slice,
    hyperbolic_density,
    parabolic_density,
    time_trace,
    wkb_density,
)
from slabdiff import spectral
from slabdiff.core import TimeGrid
from slabdiff.fd import cell_centers
from slabdiff.spectral import (
    BLOCK,
    EXP_FLOOR,
    _lattice,
    _split_times,
    family_density,
)

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


def test_decays_are_flushed_only_at_the_exp_floor():
    """exp(x) is kept down to EXP_FLOOR = -708, the edge of the subnormals."""
    assert EXP_FLOOR == -708.0
    out = spectral._exp(np.array([-700.0, -707.9, -708.0, -708.1, math.nan]))
    assert out[0] == math.exp(-700.0) and out[1] == math.exp(-707.9)
    assert out[2] == 0.0 and out[3] == 0.0 and math.isnan(out[4])
    # k_1 = 1 alone decays as exp(-(2 pi)^2 v) at u = 0.
    one_mode = SpectralCoefficients(mean=0.0, modes=[1.0])
    rate = (2.0 * math.pi) ** 2
    for x, expected in ((700.0, math.exp(-700.0)), (707.9, math.exp(-707.9)), (708.1, 0.0)):
        got = parabolic_density(one_mode, 0.0, x / rate)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


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


def mode_factor(eps, m, v):
    """V_m(v)/k_m of telegraph mode m, through the production series.

    The hyperbolic density at u = 0 of the one-mode coefficients k0 = 0,
    k_m = 1 and every other k_j = 0; m and v broadcast, and the times of
    each mode form one time row.
    """
    m_arr, v_arr = np.broadcast_arrays(np.asarray(m), np.asarray(v, dtype=float))
    out = np.empty(m_arr.shape)
    for mode in np.unique(m_arr):
        unit = SpectralCoefficients(mean=0.0, modes=np.eye(1, mode, mode - 1)[0])
        out[m_arr == mode] = hyperbolic_density(unit, eps, 0.0, v_arr[m_arr == mode])
    return float(out) if out.ndim == 0 else out


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
        assert mode_factor(EPS_REF, 1, v) == pytest.approx(
            underdamped_factor(EPS_REF, 16.99668308846906, v), rel=1e-13
        )


def test_mode_classification_critical():
    eps_c = 1.0 / (4.0 * (2.0 * math.pi) ** 2)
    for v in (0.01, 0.1):
        assert mode_factor(eps_c, 1, v) == pytest.approx(
            math.exp(-v / (2 * eps_c)) * (1 + v / (2 * eps_c)), rel=1e-14
        )


def test_first_underdamped_mode_is_classed_as_its_block_classes_it():
    # At this eps, (4*pi*2207)^2 is 1 ulp apart in Python's float power and
    # in np.square, so disc of mode 2207 reads -2.2e-16 in the one and 0 in
    # the other. The search for the first underdamped mode and the block
    # that evaluates it must class the mode alike: the walk then holds no
    # block that mixes the two classes.
    eps, m = 1.3000965494200523e-09, 2207
    assert (4.0 * math.pi * m) ** 2 != float(np.square(4.0 * math.pi * m))
    assert spectral._discriminant(eps, m) == 0.0
    assert spectral._discriminant(eps, np.array([[float(m)]]))[0, 0] == 0.0
    modes = np.zeros(m + 8)
    modes[m - 1] = modes[m + 7] = 1.0
    v = np.array([0.0, 1e-9, 5e-9, 2e-8])
    values = hyperbolic_density(SpectralCoefficients(mean=0.0, modes=modes), eps, 0.0, v)
    # Mode 2207 is critically damped, mode 2215 underdamped.
    x = v / (2.0 * eps)
    disc = 1.0 - (4.0 * math.pi * (m + 8)) ** 2 * eps
    omega = math.sqrt(-disc) / (2.0 * eps)
    expected = np.exp(-x) * (1.0 + x + np.cos(omega * v) + np.sin(omega * v) / (2.0 * eps * omega))
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)


def test_mode_classification_overdamped_limit():
    # Overdamped: no oscillation, and the slow exponent mu1 tends to the
    # parabolic rate -(2 pi)^2, so V decays like exp(mu1 v) once the fast
    # exponent mu2 = -1/eps has died out.
    v = np.linspace(0.0, 1.0, 201)
    vals = mode_factor(1e-8, 1, v)
    assert np.all(np.diff(vals) < 0) and np.all(vals > 0)
    mu1 = math.log(vals[-1] / vals[-2]) / (v[-1] - v[-2])
    assert mu1 == pytest.approx(-((2 * math.pi) ** 2), rel=1e-3)


def test_mode_evolutions_amplitudes(gaussian_coeffs):
    eps = 1e-3  # modes 1..2 overdamped for this eps
    m = np.arange(1, gaussian_coeffs.truncation + 1)
    # Broadcast over every mode: V_m(0) = k_m for each damping class.
    np.testing.assert_array_equal(mode_factor(eps, m, 0.0), 1.0)
    # V_m'(0) = 0 for the overdamped modes, from a (mode x time) table
    h = 1e-6
    f = mode_factor(eps, m[:2, None], h * np.arange(4)[None, :])
    assert f.shape == (2, 4)
    slope = (-11 * f[:, 0] + 18 * f[:, 1] - 9 * f[:, 2] + 2 * f[:, 3]) / (6 * h)
    assert np.all(np.abs(slope) < 1e-6)
    with pytest.raises(InvalidParameterError):
        mode_factor(0.0, 1, 0.1)
    with pytest.raises(InvalidParameterError):
        hyperbolic_density(gaussian_coeffs, 0.0, 0.0, 0.1)
    # 1/(2*eps) overflows for a subnormal eps.
    for eps in (5e-324, 1e-310):
        with pytest.raises(InvalidParameterError):
            mode_factor(eps, 1, 0.0)
        with pytest.raises(InvalidParameterError):
            hyperbolic_density(gaussian_coeffs, eps, 0.0, 0.0)


@pytest.mark.parametrize(
    "eps,m",
    [
        (EPS_REF, 1),  # underdamped
        (1e-3, 1),  # overdamped
        (1.0 / (4.0 * (2.0 * math.pi) ** 2), 1),  # critical
    ],
)
def test_mode_factor_initial_conditions(eps, m):
    assert mode_factor(eps, m, 0.0) == 1.0
    # 3rd-order one-sided stencil for the initial slope
    h = 1e-6
    f = mode_factor(eps, m, h * np.arange(4))
    slope = (-11 * f[0] + 18 * f[1] - 9 * f[2] + 2 * f[3]) / (6 * h)
    assert abs(slope) < 1e-6


def test_mode_factor_critical_closed_form():
    eps_c = 1.0 / (4.0 * (2.0 * math.pi) ** 2)
    assert mode_factor(eps_c, 1, 2 * eps_c) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-14
    )
    assert mode_factor(eps_c, 1, 2 * eps_c) == pytest.approx(
        0.7357588823428847, rel=1e-13
    )


def test_mode_factor_matches_parabolic_for_tiny_eps():
    factor = mode_factor(1e-8, 1, 0.1)
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
    assert mode_factor(eps, m, v) == pytest.approx(ode_telegraph_factor(eps, m, v), abs=5e-11)


@pytest.mark.parametrize(
    "eps,m",
    [
        (EPS_REF, 1),  # underdamped
        (EPS_REF, 500),  # underdamped, fast
        (1e-3, 1),  # overdamped
        (1e-8, 1),  # overdamped, slow rate close to (2 pi)^2
        (1.0 / (4.0 * (2.0 * math.pi) ** 2), 1),  # critical
    ],
)
def test_mode_factor_at_huge_times_is_its_limit(eps, m):
    huge = [1e6, 1e300, 1.7e308, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in huge:
            assert mode_factor(eps, m, v) == 0.0
        # a row mixing live and huge times keeps the live values
        row = mode_factor(eps, m, np.array([0.0, 0.01] + huge))
        np.testing.assert_array_equal(row[2:], 0.0)
        assert row[0] == 1.0
        assert row[1] == mode_factor(eps, m, 0.01)
        table = mode_factor(eps, np.array([[m], [m + 1]]), np.array([0.0] + huge))
        np.testing.assert_array_equal(table[:, 1:], 0.0)
        assert np.isnan(mode_factor(eps, m, math.nan))


def test_mode_factor_real_and_finite_for_large_arguments():
    v = np.linspace(0.0, 5.0, 101)
    vals = mode_factor(EPS_REF, 500, v)
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
                mass = np.trapezoid(sl.values, sl.grid.points)
                assert mass == pytest.approx(c.mean, abs=1e-8)


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


def equation_terms(density, c, eps, u, v, hu, hv):
    """eps*n_vv, n_v, n_uu and eps*n_uuv of a family at (u, v), by central differences."""
    n = density(c, eps, u + np.array([-hu, 0.0, hu])[:, None], v + np.array([-hv, 0.0, hv]))
    n_uu = (n[2] - 2.0 * n[1] + n[0]) / hu**2
    return np.array([
        eps * (n[1, 2] - 2.0 * n[1, 1] + n[1, 0]) / hv**2,
        (n[1, 2] - n[1, 0]) / (2.0 * hv),
        n_uu[1],
        eps * (n_uu[2] - n_uu[0]) / (2.0 * hv),
    ])


@pytest.mark.parametrize("eps", [0.13, 0.01, 1.0 / (2.0 * math.pi) ** 2, 1e-3])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_wkb_solves_the_jeffreys_equation(m, eps):
    # The family is the series solution of eps*n_vv + n_v = n_uu + eps*n_uuv
    # with n_v(0) = 0. The residual, over the largest of the four terms, is
    # at most 6.9e-6 on these cases (difference rounding and truncation at
    # steps of 3e-3 of 1/a and of v); the telegraph family's, which lacks
    # eps*n_uuv, is at least 7.2e-3. These cases cover q = eps*a^2 far
    # from 1, near it (m = 5, eps = 1e-3) and at it (m = 1, eps = 1/(2*pi)^2).
    # The parabolic family solves the equation too, with n_v(0) = -a^2*n(0).
    modes = np.zeros(m)
    modes[-1] = 1.0
    c = SpectralCoefficients(mean=0.0, modes=modes)
    a2 = (2.0 * math.pi * m) ** 2
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    for u in (0.1, 0.23, 0.37):
        for x in (0.2, 1.0, 3.0):
            v = x / max(a2, 1.0 / eps)
            residual = {}
            for density in (wkb_density, hyperbolic_density):
                terms = equation_terms(density, c, eps, u, v, 3e-3 / math.sqrt(a2), 3e-3 * v)
                residual[density] = abs(signs @ terms) / np.max(np.abs(terms))
            assert residual[wkb_density] < 1e-4, (u, v, residual)
            assert residual[hyperbolic_density] > 3e-3, (u, v, residual)
    # The initial rate, by a one-sided second-order difference: at most
    # 6.6e-7 of the parabolic rate a^2*n(0) on these cases.
    h = 1e-3 * min(eps, 1.0 / a2)
    n = wkb_density(c, eps, 0.1, np.array([0.0, h, 2.0 * h]))
    assert abs((-3.0 * n[0] + 4.0 * n[1] - n[2]) / (2.0 * h)) < 1e-5 * a2 * abs(n[0])


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


def test_wkb_resonant_mode_runs_and_matches_the_reference(gaussian_coeffs):
    # eps*(2*m*pi)^2 = 1 for m = 3, where the fast/slow split divides by 0;
    # the mode's factor has no singularity there.
    c = gaussian_coeffs
    eps = 1.0 / (2 * math.pi * 3) ** 2
    tol = 1e-14 * (c.mean + np.sum(np.abs(c.modes)))
    u, v = np.linspace(-0.5, 0.5, 11), np.array([0.0, 1e-3, 1e-2, 0.1, 1.0])
    ref = reference_density("wkb", c, eps, u[None, :], v[:, None])
    np.testing.assert_allclose(wkb_density(c, eps, u[None, :], v[:, None]), ref, rtol=0, atol=tol)
    for u_j, column in zip(u, ref.T):
        np.testing.assert_allclose(wkb_density(c, eps, u_j, v), column, rtol=0, atol=tol)
    with pytest.raises(InvalidParameterError):
        wkb_density(c, -0.1, 0.0, 0.1)


#: q - 1 of the mode m that a cosine_mode profile puts all its mass in.
RESONANCE_OFFSETS = [0.0, 2e-9, -2e-9, 1e-6, -1e-6, 1e-3, -1e-3]


@pytest.mark.parametrize("offset", RESONANCE_OFFSETS)
@pytest.mark.parametrize("m", [1, 2])
def test_wkb_near_a_resonance_matches_mpmath(m, offset):
    # Within 1e-15*max(1, |k0|) of the mode's factor in mpmath at 60 digits,
    # per sample and on a lattice of positions. The fast/slow split, whose
    # weights are about k_m/(q - 1), lost up to 8 digits at q - 1 = 2e-9.
    c = compute_coefficients(CosineModeProfile(m, 1.0, 1.0), 8)
    eps = (1.0 + offset) / (2.0 * math.pi * m) ** 2
    v = np.array([0.0, 1e-3, 1e-2, 0.1, 1.0])
    # Multiples of 1/16, which the fold takes exactly as its lattice points.
    lattice = np.linspace(-0.5, 0.5, 17)
    assert _lattice(lattice) is not None
    factors = np.array([[wkb_mode_factor(eps, j, t) for j in range(1, 9)] for t in v])

    def reference(u):
        cosines = np.cos(2.0 * np.pi * np.arange(1, 9)[:, None] * np.atleast_1d(u)[None, :])
        return c.mean + (factors * c.modes) @ cosines

    tol = 1e-15 * max(1.0, abs(c.mean))
    pair = np.array([[0.0, 0.5]])
    np.testing.assert_allclose(wkb_density(c, eps, pair, v[:, None]), reference(pair[0]),
                               rtol=0, atol=tol)
    for u in (0.0, 0.5):
        np.testing.assert_allclose(wkb_density(c, eps, u, v), reference(u)[:, 0],
                                   rtol=0, atol=tol)
    np.testing.assert_allclose(wkb_density(c, eps, lattice[None, :], v[:, None]),
                               reference(lattice), rtol=0, atol=tol)


#: disc = 1 - (4*m*pi)^2*eps of a telegraph mode m, or q - 1 of a
#: two-timescale mode m: the distance from the mode's double root.
DOUBLE_ROOT_OFFSETS = [0.0] + [s * 10.0**-k for k in (12, 11, 10, 8, 6, 4) for s in (1, -1)]
DOUBLE_ROOT_V = np.array([0.0, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 1.0])


def near_double_root(model, m, offset):
    """eps at which mode m of the family lies offset from its double root.

    disc = offset for the telegraph family and q - 1 = offset for the
    two-timescale family. At offset 0 eps is the double nearest 1/rate at
    which the package's own arithmetic meets the root exactly: disc == 0,
    or (2*m*pi)^2 == 1/eps, so the gap of the two roots is 0.
    """
    if model == "hyperbolic":
        eps = (1.0 - offset) / (4.0 * math.pi * m) ** 2
        exact = lambda e: spectral._discriminant(e, float(m)) == 0.0
    else:
        eps = (1.0 + offset) / (2.0 * math.pi * m) ** 2
        exact = lambda e: (2.0 * np.pi * float(m)) ** 2 == 1.0 / e
    if offset:
        return eps
    bits = np.array([eps]).view(np.int64)
    for k in sorted(range(-32, 33), key=abs):
        candidate = float((bits + k).view(np.float64)[0])
        if exact(candidate):
            return candidate
    raise AssertionError(f"no eps within 32 ulps meets the {model} root of mode {m}")


@pytest.mark.parametrize("offset", DOUBLE_ROOT_OFFSETS)
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("model", ["hyperbolic", "wkb"])
def test_modes_near_a_double_root_match_mpmath(model, m, offset):
    # The bare factor T_m (k0 = 0, k_m = 1) through the production series,
    # within 1e-15 of mpmath at 60 digits, at and around critical damping
    # of a telegraph mode and q = 1 of a two-timescale mode. The overdamped
    # telegraph form (mu2*exp(mu1*v) - mu1*exp(mu2*v))/(mu2 - mu1) cancels
    # there: it was off by up to 1.8e-11 at disc = 1e-11.
    eps = near_double_root(model, m, offset)
    if model == "hyperbolic":
        expected = reference_telegraph_factor(eps, m, DOUBLE_ROOT_V)
    else:
        expected = [wkb_mode_factor(eps, m, t) for t in DOUBLE_ROOT_V]
    unit = SpectralCoefficients(mean=0.0, modes=np.eye(1, m, m - 1)[0])
    np.testing.assert_allclose(family_density(model, unit, eps, 0.0, DOUBLE_ROOT_V), expected,
                               rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("offset", [-1e-6, 0.0, 1e-6])
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


#: a^2*v at which the gaps between the families are checked, a = 2*m*pi.
GAP_X = np.linspace(0.5, 4.0, 36)


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
@pytest.mark.parametrize("m", [1, 2])
def test_family_gaps_match_their_leading_terms(m, eps):
    # Mode m of the telegraph equation obeys eps*T'' + T' + a^2*T = 0 with
    # T(0) = 1, T'(0) = 0. With q = eps*a^2, its slow root is
    # -a^2*(1 + q) + O(q^2) and its slow amplitude 1 + q + O(q^2), and by
    # a^2*v = 0.5 its fast part, below e^(-0.5/q), is gone. The parabolic
    # mode is e^(-a^2*v); the two-timescale mode keeps the telegraph's slow
    # amplitude 1/(1 - q) but the parabolic rate. So, to first order in q:
    #   h - p = k*q*(1 - a^2*v)*e^(-a^2*v)   and   h - w = -k*a^2*v*q*e^(-a^2*v).
    coeffs = compute_coefficients(CosineModeProfile(m, 1.0, 1.0), 8)
    a2, k = (2.0 * math.pi * m) ** 2, coeffs.modes[m - 1]
    q = eps * a2
    u, x = np.array([[0.0, 0.5]]), GAP_X[:, None]  # cos(a*u) = 1 and (-1)^m
    v = x / a2
    lead = k * np.cos(2.0 * math.pi * m * u) * q * np.exp(-x)
    h = hyperbolic_density(coeffs, eps, u, v)
    h_w = (h - wkb_density(coeffs, eps, u, v)) / (-x * lead)
    assert np.abs(h_w - 1.0).max() <= 2.0 * q
    # The h - p leading term vanishes at a^2*v = 1, where its ratio is not defined.
    away = np.abs(GAP_X - 1.0) >= 0.25
    h_p = (h - parabolic_density(coeffs, u, v))[away] / ((1.0 - x) * lead)[away]
    assert np.abs(h_p - 1.0).max() <= 5.0 * q


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


EPS_CRITICAL_M3 = 1.0 / (12.0 * math.pi) ** 2  # critical telegraph mode 3, resonant wkb mode 6
REFERENCE_U = np.linspace(-0.5, 0.5, 41)
TRACE_U = (0.0, 0.3, 0.5)
SLICE_V = (0.0, 1e-4, 1e-2, 1.0)
TRACE_V = np.linspace(0.0, 1.2, 61)
# Long time rows: the presets' trace grid, the one row that takes the
# telegraph family's anchor/offset split; an irregular grid of steps
# 1..3 / 1024; and a row that interleaves times of unit decay with times of
# zero decay (at eps = 1e-4) inside every block.
SPLIT_V = {
    "linspace": TimeGrid.linspace(0.0, 1.2, 1201).points,
    "irregular": TimeGrid.from_values(
        np.cumsum(np.random.default_rng(6).integers(1, 4, 600)) / 1024.0
    ).points,
    "interleaved": np.tile([0.0, 1e-3, 0.3, 1.0], 150),
}


def split_bound(v):
    """The split's bound on |(v - anchor) - s*h|: 3 spacings of the row's last time."""
    return 3.0 * np.spacing(v[-1])


def spy_on_contracted(monkeypatch):
    """The argument tuples of every _contracted call, as a list that fills in."""
    calls = []
    contracted = spectral._contracted

    def spy(*args):
        calls.append(args)
        return contracted(*args)

    monkeypatch.setattr(spectral, "_contracted", spy)
    return calls


def test_long_time_rows_take_the_split():
    # The presets' and eps_sweep's 1201-time row and every prefix that passes
    # the size rule, which includes the live times of that row at any eps.
    # Each time is within the split's bound of its nominal time anchor + s*h.
    v = SPLIT_V["linspace"]
    for n in range(38, v.size + 1):
        split = _split_times(v[:n])
        assert split is not None, n
        anchors, offsets = split
        span = max(BLOCK, math.isqrt(n))
        assert offsets.size == span and anchors.size == -(-n // span)
        np.testing.assert_array_equal(offsets, (v[n - 1] / (n - 1)) * np.arange(span))
        np.testing.assert_array_equal(anchors, v[:n:span])
        nominal = (anchors[:, None] + offsets).ravel()[:n]
        assert np.all(np.abs(nominal - v[:n]) <= split_bound(v[:n])), n
    assert _split_times(v[:37]) is None  # 3 anchors + 16 offsets > 37/2


@pytest.mark.parametrize("eps", np.geomspace(1e-4, 1.0, 9).tolist() + [EPS_REF])
def test_preset_and_sweep_traces_are_contracted_with_span_offsets(
    monkeypatch, gaussian_coeffs, surface_coeffs, eps
):
    # Every eps_sweep trace, and the figure2/4 traces, which the runner
    # evaluates as one table of two positions at eps = 0.13, contract their
    # live times, a prefix of the row, with S = max(BLOCK, isqrt(live))
    # offsets.
    calls = spy_on_contracted(monkeypatch)
    v = SPLIT_V["linspace"]
    live = np.count_nonzero((-0.5 / eps) * v > EXP_FLOOR)
    span = max(BLOCK, math.isqrt(live))
    for c in (gaussian_coeffs, surface_coeffs):
        for u in ([0.0], [0.5], [0.5, 0.0]):
            calls.clear()
            hyperbolic_density(c, eps, np.array(u)[None, :], v[:, None])
            (args,) = calls
            anchors, offsets = args[2]
            assert offsets.size == span and anchors.size == -(-live // span)


def test_irregular_rows_take_the_per_sample_path(monkeypatch, surface_coeffs):
    # Reversed, shuffled, dyadic-irregular and interleaved rows are not
    # uniform, so they take the per-sample path and give its values.
    calls = spy_on_contracted(monkeypatch)
    v = SPLIT_V["linspace"]
    rows = {
        "reversed": v[::-1],
        "shuffled": np.random.default_rng(10).permutation(v),
        "irregular": SPLIT_V["irregular"],
        "interleaved": SPLIT_V["interleaved"],
    }
    for eps in (1e-4, EPS_REF, 1.0):
        for name, row in rows.items():
            assert _split_times(row) is None, name
            for u in ([0.5], [0.5, 0.0]):
                values = hyperbolic_density(surface_coeffs, eps, np.array(u)[None, :], row[:, None])
                tol = contraction_tolerance("hyperbolic", surface_coeffs, eps, row)
                assert_within(values, pointwise("hyperbolic", surface_coeffs, eps, u, row), tol,
                              f"{name} {eps}")
    assert not calls


def test_short_or_unrepeating_time_rows_keep_the_direct_formula():
    five = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    ragged = np.sort(np.random.default_rng(6).random(400))
    with_nan = SPLIT_V["linspace"].copy()
    with_nan[500] = math.nan
    for v in (five, ragged, with_nan):
        assert _split_times(v) is None


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
    # Long time rows at one position and in tables of two and three
    # positions; the uniform one is contracted over the modes.
    for v in SPLIT_V.values():
        for model, density in families.items():
            ref = reference_density(model, c, eps, np.array(TRACE_U)[None, :], v[:, None])
            for j, u in enumerate(TRACE_U):
                np.testing.assert_allclose(density(u, v), ref[:, j], rtol=0, atol=tol)
            for n_u in (2, 3):
                table = density(np.array(TRACE_U[:n_u])[None, :], v[:, None])
                np.testing.assert_allclose(table, ref[:, :n_u], rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# contraction over the modes on long time rows
# ---------------------------------------------------------------------------
FAMILIES = ("parabolic", "hyperbolic", "wkb")


def pointwise(model, c, eps, u, v):
    """The (time x position) table as (u, v) pairs, which never take the split."""
    uu, vv = np.broadcast_arrays(np.atleast_1d(u)[None, :], v[:, None])
    return family_density(model, c, eps, uu, vv)


def assert_within(actual, desired, tol, err_msg=""):
    """|actual - desired| <= tol elementwise, NaN matching NaN.

    The shapes must agree; tol broadcasts: a scalar, or a column with one
    tolerance per time.
    """
    assert np.shape(actual) == np.shape(desired), (np.shape(actual), np.shape(desired))
    actual, desired = np.asarray(actual), np.asarray(desired)
    with np.errstate(invalid="ignore"):
        gap = np.abs(actual - desired)
    gap[(actual == desired) | (np.isnan(actual) & np.isnan(desired))] = 0.0
    over = ~(gap <= tol)
    assert not over.any(), (
        f"{err_msg}: {over.sum()} of {over.size} values beyond the tolerance, "
        f"largest excess {np.max(np.where(over, gap - tol, 0.0)):.3g}"
    )


def contraction_tolerance(model, c, eps, v=None):
    """The largest gap allowed between a contracted and a per-sample evaluation.

    1e-14 of k0 + sum|k_m|, plus sum|fast_m| over the two-timescale modes
    with |1 - q_m| >= 1/2, which keep the fast/slow split, bounds the
    arithmetic of either sum. Given the row's times v, the
    telegraph family adds a phase-rounding term and a time-shift term per
    time, as a column.

    Each underdamped mode's factor exp(-v/(2*eps))*(cos(w_m*v) + r_m*sin(w_m*v))
    turns on its phase, which the two paths round differently. The
    per-sample path rounds w_m*v once, to within 2**-53*w_m*v. The
    contraction rounds w_m*a and w_m*d, a + d within E (below) of v, to
    within 2**-53*w_m*(v + E) together. w_m is the same double on both
    paths. A phase error delta moves the factor by at most
    exp(-v/(2*eps))*sqrt(1 + r_m**2)*delta, so
    the two may differ by
        2**-52 * v * exp(-v/(2*eps)) * sum_m |k_m| * w_m * sqrt(1 + r_m**2),
    each mode weighted by its decay, which the underdamped modes share.
    With flat k_m = 1 up to M = 462 at eps = 1, where w_M*v reaches 1.4e3 at
    v = 0.48 and 5.8e3 at v = 2, the term is 5.6e-11 and 1.1e-10, against
    4.6e-12 for the first one.

    The contraction also evaluates each time at its nominal time
    anchor + s*h, which the split lets lie E = 13/4 spacings of the row's
    last time from it: the split's bound of 3 spacings on the computed
    residual, plus the rounding of v - anchor in a first block that does
    not start at 0 (_split_times). The shift moves each phase w_m*v by at
    most w_m*E, so, by the same bound on the factor's change, the two
    paths may differ by a further
        E * exp(-v/(2*eps)) * sum_m |k_m| * w_m * sqrt(1 + r_m**2).
    At flat k_m = 1 up to M = 500 and eps = 1, on the 1201-time row to
    1.2, that is 5.7e-10 at v = 0 and 4.2e-10 at v = 0.6, where the phase
    term is 7.8e-11.
    """
    scale = c.mean + np.sum(np.abs(c.modes))
    if model == "wkb":
        q = eps * (2.0 * np.pi * np.arange(1, c.truncation + 1)) ** 2
        far = np.abs(1.0 - q) >= 0.5
        scale += np.sum(np.abs(q[far] / (1.0 - q[far]) * c.modes[far]))
    if model != "hyperbolic" or v is None:
        return 1e-14 * scale
    m = np.arange(1, c.truncation + 1)
    disc = spectral._discriminant(eps, m)
    under = disc < 0
    omega = np.sqrt(-disc[under]) / (2.0 * eps)
    weight = np.sum(np.abs(c.modes[under]) * omega * np.sqrt(1.0 + (0.5 / (eps * omega)) ** 2))
    v = np.asarray(v, dtype=float)[:, None]
    shift = 3.25 * np.spacing(np.max(v[np.isfinite(v)], initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        # The terms are 0 at an infinite time, where inf*0 gives NaN.
        decayed = np.nan_to_num((2.0**-52 * v + shift) * np.exp(-v / (2.0 * eps)), nan=0.0)
    return 1e-14 * scale + decayed * weight


@pytest.mark.parametrize("offset", [-1e-6, 0.0, 1e-6])
@pytest.mark.parametrize("m", [1, 2])
def test_wkb_long_rows_near_a_resonance(gaussian_coeffs, surface_coeffs, m, offset):
    # The fast and slow weights of mode m are about 1e5 times k_m; the
    # contracted row keeps v = 0 at k_m and the rest at per-sample accuracy.
    eps = 1.0 / (2 * math.pi * m) ** 2 + offset
    v = SPLIT_V["linspace"]
    for c in (gaussian_coeffs, surface_coeffs):
        tol = contraction_tolerance("wkb", c, eps)
        for u in ([0.5], [0.5, 0.0]):
            values = wkb_density(c, eps, np.array(u)[None, :], v[:, None])
            start = parabolic_density(c, np.array(u), 0.0)
            assert np.max(np.abs(values[0] - start)) <= 1e-14 * c.mean
            np.testing.assert_allclose(values, pointwise("wkb", c, eps, u, v), rtol=0, atol=tol)


def test_wkb_zero_eps_long_rows_equal_parabolic_exactly(gaussian_coeffs):
    v = SPLIT_V["linspace"]
    for u, times in ((0.5, v), (np.array([[0.5, 0.0]]), v[:, None])):
        np.testing.assert_array_equal(
            wkb_density(gaussian_coeffs, 0.0, u, times),
            parabolic_density(gaussian_coeffs, u, times),
        )


def test_two_root_blocks_take_only_their_own_live_times(monkeypatch, gaussian_coeffs):
    # At eps = 1e-4 the two-timescale modes with |1 - q_m| < 1/2 are 12..19,
    # one block of the walk. Its slower root, -a^2 of mode 12 (q = 0.57),
    # is flushed from v = 708/a^2 = 0.1245 on: the block is evaluated at the
    # 125 times before it, on the per-sample path (a trace) and on the fold
    # (a 1001-point field table), and at no time where its own decay is 0.
    calls = []
    two_root = spectral._two_root

    def spy(slow, gap, v, *rest):
        calls.append((slow.flat[0], v.ravel().copy()))
        return two_root(slow, gap, v, *rest)

    monkeypatch.setattr(spectral, "_two_root", spy)
    eps = 1e-4
    v = np.linspace(0.0, 1.2, 1201)
    wkb_density(gaussian_coeffs, eps, 0.5, v)
    wkb_density(gaussian_coeffs, eps, Grid1D.uniform_grid(1001).points[None, :], v[:200, None])
    for slow, times in calls:
        np.testing.assert_array_equal(times, v[slow * v > EXP_FLOOR])
    assert [(slow, times.size) for slow, times in calls] == [(-((24.0 * math.pi) ** 2), 125)] * 2


HUGE_V = np.array([1e6, 1e300, 1.7e308, math.inf])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", FAMILIES)
def test_empty_positions_give_an_empty_result(gaussian_coeffs, model):
    # As an empty time array does: the broadcast shape, with no element.
    cases = [
        (np.array([]), 0.1),
        (np.empty((1, 0)), np.ones((3, 1))),
        (np.empty((1, 0)), SPLIT_V["linspace"][:, None]),
    ]
    for u, v in cases:
        values = family_density(model, gaussian_coeffs, EPS_REF, u, v)
        assert isinstance(values, np.ndarray)
        assert values.shape == np.broadcast_shapes(np.shape(u), np.shape(v))
        assert values.dtype == float


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-4, EPS_REF])
def test_huge_times_give_the_mean(surface_coeffs, eps):
    # No mode is evaluated at a time where its slowest decay is 0, so no
    # exponent or phase overflows there: a scalar time, a short row, a table
    # of two positions, a lattice table and a long row that ends in them.
    c = surface_coeffs
    long_row = np.concatenate([SPLIT_V["linspace"], HUGE_V])
    for model in FAMILIES:
        for v in HUGE_V:
            assert family_density(model, c, eps, 0.5, v) == c.mean
        for u, times in ((0.5, HUGE_V), (np.array([[0.5, 0.0]]), HUGE_V[:, None]),
                         (cell_centers(400)[None, :], HUGE_V[:, None])):
            values = family_density(model, c, eps, u, times)
            np.testing.assert_array_equal(values, np.full(values.shape, c.mean))
        values = family_density(model, c, eps, np.array([[0.5, 0.0]]), long_row[:, None])
        np.testing.assert_array_equal(values[-HUGE_V.size :], c.mean)


@pytest.mark.parametrize("eps", [1e-4, EPS_REF])
def test_unsorted_time_rows_give_the_sorted_values(surface_coeffs, eps):
    # Each block of modes is evaluated at a set of times, not at a prefix of
    # the row: a reversed or shuffled row, or one holding a NaN time, gives
    # the sorted row's values at the same times.
    c, v = surface_coeffs, SPLIT_V["linspace"]
    with_nan = v.copy()
    with_nan[500] = math.nan
    keep = np.arange(v.size) != 500
    orders = {
        "reversed": np.arange(v.size)[::-1],
        "shuffled": np.random.default_rng(10).permutation(v.size),
        "nan": np.arange(v.size),
    }
    for model in FAMILIES:
        for u in (np.array([[0.5]]), np.array([[0.5, 0.0]])):
            sorted_values = family_density(model, c, eps, u, v[:, None])
            for name, order in orders.items():
                times = with_nan if name == "nan" else v[order]
                values = family_density(model, c, eps, u, times[:, None])
                if name == "nan":
                    assert np.all(np.isnan(values[500]))
                    values, order = values[keep], order[keep]
                tol = contraction_tolerance(model, c, eps, v[order])
                assert_within(values, sorted_values[order], tol, f"{model} {name} {u.size}")


@st.composite
def long_time_rows(draw):
    """Rows of 16..2000 times: linspaces, linspaces shifted up by 0..3 ulps
    per time, so that some pass the split's bound and some do not,
    linspaces reaching 100, dyadic irregular steps, and a short pattern of
    small and large times repeated, whose large times have zero telegraph
    decay at small eps."""
    kind = draw(st.sampled_from(["linspace", "shifted", "to_100", "dyadic", "pattern"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("linspace", "shifted", "to_100"):
        stop = 100.0 if kind == "to_100" else draw(st.floats(1e-3, 2.0))
        v = np.linspace(0.0, stop, draw(st.integers(16, 2000)))
        if kind == "shifted":
            v += rng.integers(0, 4, v.size) * np.spacing(v)
        return v
    if kind == "dyadic":
        steps = rng.integers(1, 5, draw(st.integers(16, 1000)))
        return draw(st.sampled_from([0.0, 0.25])) + np.cumsum(steps) * 2.0 ** -draw(
            st.integers(6, 12))
    period = draw(st.sampled_from([2, 4, 8, 16]))
    pattern = rng.choice([0.0, 1e-3, 0.05, 0.3, 1.0], period)
    return np.tile(pattern, draw(st.integers(1, 120)) * (16 // period))


CONTRACTION_EPS = st.one_of(
    st.sampled_from([
        EPS_CRITICAL_M3,
        1.0 / (2 * math.pi) ** 2,  # resonant two-timescale mode 1
        1.0 / (2 * math.pi) ** 2 - 1e-6,  # near-resonant two-timescale mode 1
        1.0 / (4 * math.pi) ** 2 + 1e-6,  # near-resonant two-timescale mode 2
    ]),
    st.floats(-5.0, 0.3).map(lambda x: 10.0**x),
)


@settings(max_examples=40, deadline=None)
@given(
    row=long_time_rows(),
    eps=CONTRACTION_EPS,
    positions=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3),
    terms=st.integers(1, 500),
    surface=st.booleans(),
)
def test_contraction_matches_per_sample_evaluation(
    gaussian_coeffs, surface_coeffs, row, eps, positions, terms, surface
):
    full = surface_coeffs if surface else gaussian_coeffs
    c = SpectralCoefficients(mean=full.mean, modes=full.modes[:terms])
    for model in FAMILIES:
        tol = contraction_tolerance(model, c, eps, row)
        u = positions[0] if len(positions) == 1 else np.array(positions)[None, :]
        values = family_density(model, c, eps, u, row if np.ndim(u) == 0 else row[:, None])
        expected = pointwise(model, c, eps, positions, row)
        assert_within(values.reshape(expected.shape), expected, tol, model)


def test_long_rows_of_few_positions_are_contracted(monkeypatch, surface_coeffs):
    calls = spy_on_contracted(monkeypatch)
    v = SPLIT_V["linspace"]
    five = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    # 1024 times split into Q = S = 32, so Q*S = N exactly; 12001 times
    # into Q = 111 anchors of S = 109 offsets.
    exact = np.linspace(0.0, 1.2, 1024)[:, None]
    long = np.linspace(0.0, 1.2, 12001)[:, None]
    # Only the underdamped telegraph modes are contracted; their direct
    # formula pays a cos and a sin per mode and sample, so tables of up to
    # BLOCK - 1 positions are contracted.
    cases = [
        (0.5, v, ("hyperbolic",)),
        (np.array([[0.5, 0.0]]), v[:, None], ("hyperbolic",)),
        (np.array([[0.5, 0.0, 0.3]]), v[:, None], ("hyperbolic",)),
        (np.linspace(0.0, 0.3, BLOCK - 1)[None, :], v[:, None], ("hyperbolic",)),
        (np.linspace(0.0, 0.3, BLOCK)[None, :], v[:, None], ()),
        (np.linspace(0.0, 0.3, BLOCK - 1)[None, :], exact, ("hyperbolic",)),
        (np.linspace(0.0, 0.3, BLOCK)[None, :], exact, ()),
        (np.linspace(0.0, 0.3, 8)[None, :], long, ("hyperbolic",)),
        (np.linspace(0.0, 0.3, BLOCK - 1)[None, :], long, ("hyperbolic",)),
        (np.array([[0.5, 0.0]]), five[:, None], ()),
        (np.array([[0.5, 0.0, 0.3]]), five[:, None], ()),
        (REFERENCE_U[None, :], five[:, None], ()),
    ]
    for model in FAMILIES:
        for u, times, taken in cases:
            calls.clear()
            family_density(model, surface_coeffs, EPS_REF, u, times)
            assert bool(calls) == (model in taken), (model, np.shape(u), times.shape)


@pytest.mark.parametrize("eps", [1e-3, EPS_REF, 1.0])
def test_rows_moved_past_the_split_bound_take_the_per_sample_path(monkeypatch, eps):
    # Every time is live at these eps. The 1201-time row with one time moved
    # up to the last double within the split's bound of its nominal time is
    # contracted; moved one double further, it is not. Both give the
    # per-sample values, with flat k_m = 1 so that the fastest modes, whose
    # phase the time shift moves most, weigh as much as any.
    terms, positions = 500, [0.5, 0.0]
    c = SpectralCoefficients(mean=1.0, modes=np.ones(terms))
    v = SPLIT_V["linspace"]
    j, span = 600, max(BLOCK, math.isqrt(v.size))
    anchors, offsets = _split_times(v)
    anchor, offset = anchors[j // span], offsets[j % span]

    def shift(t):
        return abs((t - anchor) - offset)

    inside = v.copy()
    while shift(np.nextafter(inside[j], math.inf)) <= split_bound(v):
        inside[j] = np.nextafter(inside[j], math.inf)
    past = inside.copy()
    past[j] = np.nextafter(inside[j], math.inf)
    assert shift(inside[j]) <= split_bound(v) < shift(past[j])
    calls = spy_on_contracted(monkeypatch)
    for row, taken in ((inside, True), (past, False)):
        calls.clear()
        values = hyperbolic_density(c, eps, np.array(positions)[None, :], row[:, None])
        assert bool(calls) == taken
        tol = contraction_tolerance("hyperbolic", c, eps, row)
        assert_within(values, pointwise("hyperbolic", c, eps, positions, row), tol)


def test_residual_row_with_large_phases_stays_within_the_phase_term():
    # A case hypothesis found: eps = 1, flat k_m = 1 up to M = 462, and a
    # contracted 290-time row to 0.479.... w_M*v reaches 1.4e3, so the
    # rounding of the phases, and the shift of each time to its nominal
    # time, separate the contracted row from the per-sample one by far
    # more than the arithmetic term alone.
    eps, terms, positions = 1.0, 462, [0.0, 0.375]
    v = np.linspace(0.0, 0.4794995165429114, 290)
    c = SpectralCoefficients(mean=1.0, modes=np.ones(terms))
    assert _split_times(v) is not None
    contracted = family_density("hyperbolic", c, eps, np.array(positions)[None, :], v[:, None])
    per_sample = pointwise("hyperbolic", c, eps, positions, v)
    tol = contraction_tolerance("hyperbolic", c, eps, v)
    assert_within(contracted, per_sample, tol)
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        return  # no wider float to tell the two errors apart
    # Against an extended-precision sum, the contraction's own error exceeds
    # the per-sample error by less than the tolerance: the gap is phase
    # rounding, which both paths make, and the time shift, not a fault of
    # the contraction.
    exact = extended_underdamped_density(c, eps, positions, v)
    excess = np.abs(contracted - exact).max(axis=1) - np.abs(per_sample - exact).max(axis=1)
    assert np.all(excess <= tol[:, 0])


class CountingNumpy:
    """numpy, counting the values passed to cos and sin."""

    def __init__(self):
        self.formed = {"cos": 0, "sin": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        self.formed["cos"] += np.size(x)
        return np.cos(x, *args, **kwargs)

    def sin(self, x, *args, **kwargs):
        self.formed["sin"] += np.size(x)
        return np.sin(x, *args, **kwargs)


def test_telegraph_trace_forms_trig_once_per_anchor_and_offset(monkeypatch, surface_coeffs):
    # cos and sin are each formed once per contracted mode at each of the 36
    # anchors and 34 offsets. 16-time blocks with one offset per distinct
    # v - anchor took 500 x (76 anchors + 105 offsets).
    v = SPLIT_V["linspace"]
    terms = surface_coeffs.truncation
    anchors, offsets = _split_times(v)
    assert (anchors.size, offsets.size) == (36, 34)
    counting = CountingNumpy()
    monkeypatch.setattr(spectral, "np", counting)
    hyperbolic_density(surface_coeffs, EPS_REF, 0.5, v)
    formed = counting.formed
    # One more value per mode covers the cosines of the position itself.
    bound = terms * (anchors.size + offsets.size + 1)
    assert 0 < formed["cos"] <= bound and 0 < formed["sin"] <= bound, (formed, bound)
    assert bound < terms * (76 + 105)


def test_telegraph_times_whose_shared_decay_is_0_form_no_trig(monkeypatch, surface_coeffs):
    # At eps = 2e-4 the shared decay exp(-v/(2*eps)) of the underdamped modes
    # 6..500 is 0 past v = 0.283: 284 times of the 1201-time row and none of
    # the row shifted by 0.5. A trace contracts the underdamped modes over
    # those times alone, and a table of BLOCK positions evaluates them per
    # sample at those times alone; the overdamped modes 1..5 form no trig.
    eps, terms = 2e-4, surface_coeffs.truncation
    cases = [(positions, v) for positions in (1, BLOCK)
             for v in (SPLIT_V["linspace"], SPLIT_V["linspace"] + 0.5)]
    for positions, v in cases:
        u = np.linspace(0.0, 0.3, positions)[None, :]
        live = np.count_nonzero((-0.5 / eps) * v > EXP_FLOOR)
        counting = CountingNumpy()
        monkeypatch.setattr(spectral, "np", counting)
        hyperbolic_density(surface_coeffs, eps, u, v[:, None])
        monkeypatch.undo()
        # One more value per mode and position covers the positions' cosines.
        bound = terms * (live + positions)
        assert counting.formed["cos"] <= bound and counting.formed["sin"] <= bound, (
            counting.formed, bound)
        assert bound < terms * v.size / 2


def decaying_coefficients(terms):
    """k0 = 1 and k_m = 200*(-1)^m/((2*m*pi)^2 + 100), m = 1..terms."""
    m = np.arange(1, terms + 1)
    return SpectralCoefficients(mean=1.0, modes=200.0 * (-1.0) ** m / ((2 * np.pi * m) ** 2 + 100))


def traced_peak(model, terms, u, v):
    """tracemalloc peak, in bytes, of one evaluation at `terms` modes."""
    c = decaying_coefficients(terms)
    tracemalloc.start()
    try:
        family_density(model, c, EPS_REF, u, v)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", FAMILIES)
def test_trace_memory_does_not_grow_with_truncation(model):
    v = SPLIT_V["linspace"]
    assert traced_peak(model, 2000, 0.5, v) <= 1.1 * traced_peak(model, 500, 0.5, v)


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc malloc"
)
def test_repeated_traces_do_not_fault_their_temporaries_in_again():
    # In a fresh interpreter, with only numpy and slabdiff imported, glibc
    # would hand each call's freed temporaries back to the system and fault
    # them in on the next call (100-1600 faults per call).
    code = """
import resource
import numpy as np
from slabdiff import SurfaceCoshProfile, compute_coefficients
from slabdiff.spectral import family_density
coeffs = compute_coefficients(SurfaceCoshProfile(10.0, 1.0), 500)
calls = [
    (model, eps, np.linspace(0.0, 1.2, n))
    for model in ("parabolic", "hyperbolic", "wkb") for eps in (1e-3, 0.13) for n in (1201, 12001)
]
for model, eps, v in calls:
    family_density(model, coeffs, eps, 0.5, v)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    for model, eps, v in calls:
        family_density(model, coeffs, eps, 0.5, v)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 200


def test_telegraph_tables_of_few_positions_are_contracted_in_bounded_memory():
    u, v = np.linspace(0.0, 0.5, BLOCK - 1)[None, :], SPLIT_V["linspace"][:, None]
    small, large = (traced_peak("hyperbolic", terms, u, v) for terms in (500, 2000))
    assert large <= 3e6 and large <= 1.1 * small


@pytest.mark.parametrize("eps", [EPS_CRITICAL_M3, EPS_REF])
def test_telegraph_tables_of_few_positions_match_per_sample_evaluation(surface_coeffs, eps):
    u = np.linspace(-0.5, 0.5, BLOCK - 1)
    for name in ("linspace", "interleaved"):
        v = SPLIT_V[name]
        tol = contraction_tolerance("hyperbolic", surface_coeffs, eps, v)
        assert_within(hyperbolic_density(surface_coeffs, eps, u[None, :], v[:, None]),
                      pointwise("hyperbolic", surface_coeffs, eps, u, v), tol, name)


# ---------------------------------------------------------------------------
# fold and FFT on lattice positions
# ---------------------------------------------------------------------------
# Cell centers have P = 2*nu, the walls grid P = 2*(n - 1) and a half-slab
# linspace P = 4*(n - 1); 500 modes wrap the fold of 16 cells (P = 32) 15 times.
LATTICE_GRIDS = {
    "cells16": cell_centers(16),
    "cells17": cell_centers(17),
    "cells400": cell_centers(400),
    "cells2000": cell_centers(2000),
    "walls16": Grid1D.uniform_grid(16).points,
    "walls1001": Grid1D.uniform_grid(1001).points,
    "half33": np.linspace(0.0, 0.5, 33),
    "shuffled400": np.random.default_rng(8).permutation(cell_centers(400)),
}
FIVE_V = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])


@pytest.mark.parametrize("eps", [1e-4, EPS_CRITICAL_M3, 3e-3, EPS_REF, 1.0])
@pytest.mark.parametrize("profile", ["gaussian_coeffs", "surface_coeffs"])
def test_lattice_tables_match_per_mode_reference(request, profile, eps):
    c = request.getfixturevalue(profile)
    tol = 1e-14 * (c.mean + np.sum(np.abs(c.modes)))
    u_all = np.concatenate(list(LATTICE_GRIDS.values()))
    edges = np.cumsum([0] + [u.size for u in LATTICE_GRIDS.values()])
    v = np.array(SLICE_V)
    for model in FAMILIES:
        ref = reference_density(model, c, eps, u_all[None, :], v[:, None])
        for (name, u), lo, hi in zip(LATTICE_GRIDS.items(), edges, edges[1:]):
            assert _lattice(u) is not None, name
            table = family_density(model, c, eps, u[None, :], v[:, None])
            np.testing.assert_allclose(table, ref[:, lo:hi], rtol=0, atol=tol, err_msg=name)
            one_time = family_density(model, c, eps, u, v[2])
            np.testing.assert_allclose(one_time, ref[2, lo:hi], rtol=0, atol=tol, err_msg=name)


@st.composite
def lattice_positions(draw):
    """J >= BLOCK positions (offset + 2*j)/P, P = 2*n <= 4*J, in drawn order."""
    n = draw(st.integers(BLOCK - 1, 1000))
    count = draw(st.integers(max(BLOCK, -(-n // 2)), n + 1))
    offset = draw(st.integers(-n, n - 2 * (count - 1)))
    u = (offset + 2 * np.arange(count)) / (2 * n)
    if draw(st.booleans()):
        u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(u)
    return u


@settings(max_examples=40, deadline=None)
@given(
    u=lattice_positions(),
    times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
    eps=CONTRACTION_EPS,
    terms=st.integers(1, 1000),
)
def test_lattice_fold_matches_per_sample_evaluation(u, times, eps, terms):
    assert _lattice(u) is not None
    c = decaying_coefficients(terms)
    v = np.array(times)
    for model in FAMILIES:
        tol = contraction_tolerance(model, c, eps)
        values = family_density(model, c, eps, u[None, :], v[:, None])
        np.testing.assert_allclose(values, pointwise(model, c, eps, u, v), rtol=0, atol=tol)


def test_lattice_fold_keeps_the_exact_identities(gaussian_coeffs):
    c = gaussian_coeffs
    for u, v in ((cell_centers(400), 0.02), (LATTICE_GRIDS["walls1001"][None, :], FIVE_V[:, None])):
        np.testing.assert_array_equal(wkb_density(c, 0.0, u, v), parabolic_density(c, u, v))
        start = parabolic_density(c, u, 0.0)
        for eps in (1e-4, EPS_REF):
            np.testing.assert_array_equal(hyperbolic_density(c, eps, u, 0.0), start)
            np.testing.assert_array_equal(wkb_density(c, eps, u, 0.0), start)
        np.testing.assert_array_equal(hyperbolic_density(c, EPS_CRITICAL_M3, u, 0.0), start)


def test_lattice_fold_sums_the_high_modes_first():
    # Each tail mode is below half an ulp of the leading one: summed before
    # it, the 312 tail modes that share its fold row add 3.1e-14; added to it
    # one by one, they would be lost.
    modes = np.full(10000, 1e-16)
    modes[0] = 1.0
    c = SpectralCoefficients(mean=0.0, modes=modes)
    u = cell_centers(16)
    expected = reference_density("parabolic", c, 0.0, u, 0.0)
    np.testing.assert_allclose(parabolic_density(c, u, 0.0), expected, rtol=0, atol=1e-15)


def test_lattice_positions_take_the_fold(monkeypatch, surface_coeffs):
    # The fold is the one path that takes an FFT.
    calls = []

    class FftSpy:
        def __getattr__(self, name):
            return getattr(np.fft, name)

        def rfft(self, *args, **kwargs):
            calls.append(args)
            return np.fft.rfft(*args, **kwargs)

    class SpyNumpy:
        fft = FftSpy()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(spectral, "np", SpyNumpy())
    cases = [
        (cell_centers(400), 0.02, True),
        (LATTICE_GRIDS["walls1001"][None, :], FIVE_V[:, None], True),
        (cell_centers(BLOCK - 1), 0.02, False),  # too few positions
        (cell_centers(400) + 1e-9, 0.02, False),  # off the lattice by 1e-9
        (np.linspace(0.0, 0.3, 20), 0.02, False),  # 1/h = 63 > 2*J
        (np.linspace(-0.3, 0.5, 20), 0.02, False),  # P = 48 <= 4*J, not on it
        (np.arange(BLOCK) / 100.0, 0.02, False),  # a lattice of P = 200 > 4*J
        (cell_centers(400), np.full(400, 0.02), False),  # (u, v) pairs
    ]
    for model in FAMILIES:
        for u, v, taken in cases:
            calls.clear()
            family_density(model, surface_coeffs, EPS_REF, u, v)
            assert bool(calls) == taken, (model, u[..., :3], np.shape(v))


@pytest.mark.parametrize("model", FAMILIES)
@pytest.mark.parametrize("grid", ["slice", "table"])
def test_lattice_memory_does_not_grow_with_truncation(model, grid):
    u, v = (cell_centers(2000), 0.02) if grid == "slice" else (
        LATTICE_GRIDS["walls1001"][None, :], FIVE_V[:, None])
    assert traced_peak(model, 5000, u, v) <= 1.1 * traced_peak(model, 500, u, v)
