import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabdiff import (
    FieldSlice,
    Grid1D,
    InvalidInputError,
    InvalidParameterError,
    SurfaceCoshProfile,
    TimeGrid,
    TimeTrace,
    classify_monotone,
    compute_coefficients,
    detect_extrema,
    error_norms,
    nearest_arrival,
    preset,
    time_trace,
)
from slabdiff.analysis import _peaks, wavefront_position

EPS_REF = 0.13
V1 = 0.5 * math.sqrt(EPS_REF)


def make_trace(values, v_max=1.0, u=0.0):
    values = np.asarray(values, dtype=float)
    tg = TimeGrid.linspace(0.0, v_max, values.size)
    return TimeTrace(u=u, times=tg, values=values)


# ---------------------------------------------------------------------------
# echo arrivals
# ---------------------------------------------------------------------------

CENTER, SURFACE = 0.0, 0.5  # the echo sources of the Gaussian and surface profiles


def arrivals_near(source, u, eps, vs):
    return [nearest_arrival(source, u, eps, v) for v in vs]


def test_ladder_center_source_at_wall():
    np.testing.assert_allclose(
        arrivals_near(CENTER, 0.5, EPS_REF, [0.0, 0.5, 0.9]),
        [0.18027756377319948, 0.5408326913195984, 0.9013878188659974],
        rtol=1e-14,
    )


def test_ladder_center_source_at_center():
    np.testing.assert_allclose(
        arrivals_near(CENTER, 0.0, EPS_REF, [0.0, 0.7]),
        [0.36055512754639896, 0.7211102550927979],
        rtol=1e-14,
    )


def test_ladder_surface_source():
    np.testing.assert_allclose(
        arrivals_near(SURFACE, 0.5, EPS_REF, [0.0, 0.7, 1.1]),
        math.sqrt(EPS_REF) * np.arange(1, 4),
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        arrivals_near(SURFACE, 0.0, EPS_REF, [0.0, 0.5, 0.9]),
        V1 * np.array([1, 3, 5]),
        rtol=1e-14,
    )


def test_ladder_unit_eps():
    assert nearest_arrival(CENTER, 0.5, 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)


def test_ladder_scales_with_sqrt_eps():
    vs = np.linspace(0.0, 2.0, 41) + 0.01
    for u in (0.5, 0.25):
        a = arrivals_near(CENTER, u, 0.07, vs)
        b = arrivals_near(CENTER, u, 0.14, math.sqrt(2.0) * vs)
        np.testing.assert_allclose(b, math.sqrt(2.0) * np.array(a), rtol=1e-14)


def test_ladder_validation():
    with pytest.raises(InvalidParameterError, match="source must be 0 or 1/2"):
        nearest_arrival(0.3, 0.5, EPS_REF, 0.1)
    with pytest.raises(InvalidParameterError, match=r"u must lie in \[-1/2, 1/2\]"):
        nearest_arrival(CENTER, 0.6, EPS_REF, 0.1)
    with pytest.raises(InvalidParameterError):
        nearest_arrival(CENTER, 0.5, 0.0, 0.1)
    for v, eps in [(-0.1, EPS_REF), (math.inf, EPS_REF), (math.nan, EPS_REF), (1e150, 5e-324)]:
        with pytest.raises(InvalidInputError, match=r"v/sqrt\(eps\) must be finite and >= 0"):
            nearest_arrival(CENTER, 0.5, eps, v)
    assert nearest_arrival(CENTER, 0.5, EPS_REF, 0.55) == pytest.approx(3 * V1, rel=1e-14)


LISTED = {
    # the arrivals are (2k - 1) * sqrt(eps)/2 where source and u are half a
    # slab apart, k * sqrt(eps) otherwise: the source itself never arrives
    "center-0.5": (CENTER, 0.5, True),
    "center-0.0": (CENTER, 0.0, False),
    "center--0.0": (CENTER, -0.0, False),
    "surface-0.5": (SURFACE, 0.5, False),
    "surface-0.0": (SURFACE, 0.0, True),
    "surface--0.5": (SURFACE, -0.5, False),
    "center--0.5": (CENTER, -0.5, True),
}


@pytest.mark.parametrize("case", sorted(LISTED))
def test_ladder_nearest_matches_the_listed_rungs(case):
    # the closed form picks what a scan of the listed rungs picks, ties included
    source, u, odd = LISTED[case]
    k = np.arange(1, 13)
    times = (2 * k - 1) * (0.5 * math.sqrt(EPS_REF)) if odd else k * math.sqrt(EPS_REF)
    midpoints = 0.5 * (times[:-1] + times[1:])
    for v in np.concatenate([np.linspace(0.0, 2.0, 2001), times, midpoints]):
        assert nearest_arrival(source, u, EPS_REF, v) == times[np.argmin(np.abs(times - v))]


def test_ladder_of_a_tiny_eps_is_not_materialized():
    # arrivals 2.2e-162 apart: 4.5e160 of them below v = 0.1
    assert nearest_arrival(CENTER, 0.5, 5e-324, 0.1) == pytest.approx(0.1, rel=1e-12)


def test_arrivals_off_the_axis_match_hyperbolic_maxima():
    # The surface source reaches u = 0.25 from its near wall after sqrt(eps)/4
    # and from its far wall after 3*sqrt(eps)/4; every maximum of the telegraph
    # trace between the axis and the wall is one of these echoes.
    coeffs = compute_coefficients(SurfaceCoshProfile(10.0, 1.0), 2000)
    times = TimeGrid.linspace(0.0, 1.2, 12001)
    maxima = 0
    for u in (0.1, 0.25, 0.4):
        trace = time_trace("hyperbolic", coeffs, EPS_REF, u, times)
        for e in detect_extrema(trace, prominence_threshold=1e-3 * coeffs.mean):
            if e.kind == "maximum":
                maxima += 1
                assert abs(e.v - nearest_arrival(SURFACE, u, EPS_REF, e.v)) <= 1e-3, (u, e.v)
    assert maxima >= 10


def test_wavefront_position_is_where_the_front_arrives():
    # u1 lies in the slab for any v, and the nearest echo arrival there is v
    for source in (CENTER, SURFACE):
        for eps in (EPS_REF, 0.01, 1.0):
            for v in np.linspace(1e-4, 3.0, 301):
                u1 = wavefront_position(source, eps, v)
                assert 0.0 <= u1 <= 0.5
                assert nearest_arrival(source, u1, eps, v) == pytest.approx(v, rel=1e-12)
    # the Gaussian's front leaves the center, the surface profile's the walls
    assert wavefront_position(CENTER, 0.04, 0.02) == pytest.approx(0.1, rel=1e-14)
    assert wavefront_position(SURFACE, 0.04, 0.02) == pytest.approx(0.4, rel=1e-14)
    with pytest.raises(InvalidParameterError, match="source must be 0 or 1/2"):
        wavefront_position(0.3, EPS_REF, 0.1)
    for v in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="v must be finite and >= 0"):
            wavefront_position(CENTER, EPS_REF, v)
    # a v whose v/sqrt(eps) overflows still has a position in the slab
    assert 0.0 <= wavefront_position(SURFACE, EPS_REF, 1e308) <= 0.5


# ---------------------------------------------------------------------------
# extrema detection
# ---------------------------------------------------------------------------


def test_events_do_not_depend_on_the_time_grid(gaussian_coeffs, surface_coeffs):
    # Extrema are found on the samples themselves, so a tenfold finer grid
    # finds the same events, each within one coarse step. An average over a
    # fixed count of samples spans ten times more of v on the coarse grid:
    # it delays the events there, and at eps = 0.01 hides the surface
    # profile's wall echo at v = sqrt(eps).
    coarse, fine = TimeGrid.linspace(0.0, 1.2, 1201), TimeGrid.linspace(0.0, 1.2, 12001)
    for coeffs in (gaussian_coeffs, surface_coeffs):
        for eps in (0.13, 0.05, 0.01):
            for u in (0.0, 0.25, 0.5):
                for family in ("parabolic", "hyperbolic", "wkb"):
                    a, b = (
                        detect_extrema(time_trace(family, coeffs, eps, u, times),
                                       prominence_threshold=1e-3 * coeffs.mean)
                        for times in (coarse, fine)
                    )
                    case = (coeffs.profile_tag, eps, u, family)
                    assert [e.kind for e in a] == [e.kind for e in b], case
                    assert all(abs(x.v - y.v) <= 1e-3 for x, y in zip(a, b)), case



def test_constant_trace_has_no_extrema():
    trace = make_trace(np.ones(500))
    assert detect_extrema(trace, prominence_threshold=1e-6) == []


def test_short_trace_rejected():
    with pytest.raises(InvalidInputError):
        detect_extrema(make_trace(np.ones(150)), prominence_threshold=1e-6)
    with pytest.raises(InvalidInputError):
        detect_extrema(make_trace(np.ones(500)), v_min_cutoff=-1.0,
                       prominence_threshold=1e-6)


@pytest.mark.parametrize("call, message", [
    (lambda t: detect_extrema(t, math.nan, prominence_threshold=1e-6), "v_min_cutoff"),
    (lambda t: detect_extrema(t, math.inf, prominence_threshold=1e-6), "v_min_cutoff"),
    (lambda t: detect_extrema(t, -1.0, prominence_threshold=1e-6), "v_min_cutoff"),
    (lambda t: classify_monotone(t, -1.0), "v_min_cutoff"),
    (lambda t: classify_monotone(t, math.nan), "v_min_cutoff"),
    (lambda t: classify_monotone(t, math.inf), "v_min_cutoff"),
    (lambda t: detect_extrema(t, prominence_threshold=math.nan), "prominence_threshold"),
    (lambda t: detect_extrema(t, prominence_threshold=-1e-6), "prominence_threshold"),
], ids=["extrema-nan-cutoff", "extrema-inf-cutoff", "extrema-negative-cutoff",
        "monotone-negative-cutoff", "monotone-nan-cutoff", "monotone-inf-cutoff",
        "nan-prominence", "negative-prominence"])
def test_extrema_inputs_are_refused_by_one_rule(call, message):
    # a zero threshold stays allowed: a zero-mass profile gives one
    trace = make_trace(np.cos(np.linspace(0.0, 8.0, 500)))
    with pytest.raises(InvalidInputError, match=message):
        call(trace)
    assert detect_extrema(trace, 0.0, prominence_threshold=0.0)


def test_damped_oscillation_extrema_positions():
    t = np.linspace(0.0, 1.0, 2001)
    values = 1.0 + np.exp(-2.0 * t) * np.cos(4.0 * math.pi * t)
    trace = make_trace(values)
    events = detect_extrema(trace, v_min_cutoff=0.01, prominence_threshold=0.01)
    maxima = [e for e in events if e.kind == "maximum"]
    minima = [e for e in events if e.kind == "minimum"]
    # extrema of exp(-2t)cos(4 pi t) sit where tan(4 pi t) = -1/(2 pi), i.e.
    # shifted earlier than the cosine peaks by atan(1/(2 pi))/(4 pi)
    shift = math.atan(2.0 / (4.0 * math.pi)) / (4.0 * math.pi)
    assert maxima[0].v == pytest.approx(0.5 - shift, abs=0.005)
    assert minima[0].v == pytest.approx(0.25 - shift, abs=0.005)
    assert all(events[i].v < events[i + 1].v for i in range(len(events) - 1))


def test_cutoff_suppresses_early_events():
    t = np.linspace(0.0, 1.0, 1001)
    values = np.exp(-((t - 0.05) ** 2) / 1e-4) + np.exp(-((t - 0.6) ** 2) / 1e-3)
    trace = make_trace(values)
    events = detect_extrema(trace, v_min_cutoff=0.2, prominence_threshold=0.1)
    assert len([e for e in events if e.kind == "maximum"]) == 1
    assert events[0].v == pytest.approx(0.6, abs=0.01)


def test_detection_invariant_under_shift_and_scale():
    t = np.linspace(0.0, 1.0, 1501)
    base = np.exp(-t) * np.cos(6.0 * math.pi * t)
    e0 = detect_extrema(make_trace(1.0 + base), prominence_threshold=0.05)
    e_shift = detect_extrema(make_trace(7.5 + base), prominence_threshold=0.05)
    assert [e.v for e in e_shift] == [e.v for e in e0]
    np.testing.assert_allclose(
        [e.prominence for e in e_shift], [e.prominence for e in e0], rtol=1e-12
    )
    lam = 3.0
    e_scale = detect_extrema(make_trace(lam * (1.0 + base)), prominence_threshold=lam * 0.05)
    assert [e.v for e in e_scale] == [e.v for e in e0]
    np.testing.assert_allclose(
        [e.value for e in e_scale], [lam * e.value for e in e0], rtol=1e-12
    )
    np.testing.assert_allclose(
        [e.prominence for e in e_scale], [lam * e.prominence for e in e0], rtol=1e-12
    )


# ---------------------------------------------------------------------------
# the numpy peak finder against scipy's
# ---------------------------------------------------------------------------


def assert_peaks_match_scipy(x, threshold):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    for signed in (x, -x):
        index, props = find_peaks(signed, prominence=threshold)
        ours, prominence = _peaks(signed, threshold)
        np.testing.assert_array_equal(ours, index)
        # bit for bit: the same minima, subtracted the same way
        np.testing.assert_array_equal(prominence, props["prominences"])


@pytest.mark.parametrize("name", ["figure2", "figure4"])
def test_peaks_match_scipy_on_preset_traces(name, gaussian_coeffs, surface_coeffs):
    s = preset(name)
    coeffs = {"figure2": gaussian_coeffs, "figure4": surface_coeffs}[name]
    for model in s.models:
        for u in s.trace_u:
            values = time_trace(model, coeffs, s.eps, u, s.time_grid()).values
            for threshold in (0.0, 1e-3 * coeffs.mean):
                assert_peaks_match_scipy(values, threshold)


@pytest.mark.parametrize("eps", [1e-4, 0.01, 0.13, 1.0])
def test_peaks_match_scipy_across_eps(eps, gaussian_coeffs, surface_coeffs):
    times = TimeGrid.linspace(0.0, 1.2, 1201)
    for coeffs in (gaussian_coeffs, surface_coeffs):
        for family in ("parabolic", "hyperbolic", "wkb"):
            for u in (0.0, 0.5):
                values = time_trace(family, coeffs, eps, u, times).values
                assert_peaks_match_scipy(values, 1e-3 * coeffs.mean)


@settings(deadline=None, max_examples=300)
@given(
    # half-integers from a small range repeat often, so plateaus of every
    # kind are drawn; 4 stands for NaN, which stops a base like a higher sample
    samples=st.lists(st.integers(-6, 4), max_size=60),
    threshold=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
)
def test_peaks_match_scipy_on_plateaus(samples, threshold):
    x = np.array([math.nan if k == 4 else k / 2 for k in samples])
    assert_peaks_match_scipy(x, threshold)


def test_parabolic_center_trace_is_monotone_decreasing(gaussian_coeffs):
    tg = TimeGrid.linspace(1e-3, 1.0, 1000)
    trace = time_trace("parabolic", gaussian_coeffs, 0.0, 0.0, tg)
    assert classify_monotone(trace) == "monotone_decreasing"


def test_classify_monotone_directions():
    t = np.linspace(0.0, 1.0, 1001)
    assert classify_monotone(make_trace(1.0 - np.exp(-3 * t))) == "monotone_increasing"
    assert classify_monotone(make_trace(np.exp(-3 * t))) == "monotone_decreasing"
    wavy = 1.0 + 0.2 * np.exp(-t) * np.cos(8 * math.pi * t)
    assert classify_monotone(make_trace(wavy)) == "non_monotone"
    # tiny ripples within the slack do not break monotonicity
    ripple = t + 1e-5 * np.sin(40 * math.pi * t)
    assert classify_monotone(make_trace(ripple)) == "monotone_increasing"


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------


def _slice(values, v=0.5, n=101):
    grid = Grid1D.uniform_grid(n)
    return FieldSlice(grid=grid, v=v, values=np.asarray(values, float))


def test_error_norms_identical():
    a = _slice(np.linspace(1, 2, 101))
    norms = error_norms(a, a)
    assert norms.l_inf == 0.0


def test_error_norms_constant_offset():
    base = np.linspace(1, 2, 101)
    a = _slice(base)
    b = _slice(base + 1e-3)
    norms = error_norms(a, b)
    assert norms.l_inf == pytest.approx(1e-3, rel=1e-12)


def test_error_norms_requires_matching_slices():
    a = _slice(np.ones(101))
    b = FieldSlice(grid=Grid1D.uniform_grid(51), v=0.5, values=np.ones(51))
    with pytest.raises(InvalidInputError):
        error_norms(a, b)
    c = _slice(np.ones(101), v=0.5 + 1e-6)
    with pytest.raises(InvalidInputError):
        error_norms(a, c)


def test_parabolic_vs_hyperbolic_near_equilibrium(gaussian_coeffs):
    from slabdiff import field_slice

    grid = Grid1D.uniform_grid(1001)
    a = field_slice("parabolic", gaussian_coeffs, EPS_REF, grid, 1.0)
    b = field_slice("hyperbolic", gaussian_coeffs, EPS_REF, grid, 1.0)
    assert error_norms(a, b).l_inf < 0.05 * gaussian_coeffs.mean
