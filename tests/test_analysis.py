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
    TimeGrid,
    TimeTrace,
    classify_monotone,
    detect_extrema,
    error_norms,
    predict_echo_ladder,
    preset,
    time_trace,
)
from slabdiff.analysis import _peaks, _smoothed

EPS_REF = 0.13
V1 = 0.5 * math.sqrt(EPS_REF)


def make_trace(values, v_max=1.0, u=0.0):
    values = np.asarray(values, dtype=float)
    tg = TimeGrid.linspace(0.0, v_max, values.size)
    return TimeTrace(u=u, times=tg, values=values, model_tag="parabolic")


# ---------------------------------------------------------------------------
# echo ladder
# ---------------------------------------------------------------------------


def rungs(ladder, count):
    return [ladder.time(k) for k in range(1, count + 1)]


def test_ladder_center_source_at_wall():
    ladder = predict_echo_ladder("center", 0.5, EPS_REF)
    np.testing.assert_allclose(
        rungs(ladder, 3),
        [0.18027756377319948, 0.5408326913195984, 0.9013878188659974],
        rtol=1e-14,
    )


def test_ladder_center_source_at_center():
    ladder = predict_echo_ladder("center", 0.0, EPS_REF)
    np.testing.assert_allclose(
        rungs(ladder, 2), [0.36055512754639896, 0.7211102550927979], rtol=1e-14
    )


def test_ladder_surface_source():
    at_wall = predict_echo_ladder("surface", 0.5, EPS_REF)
    np.testing.assert_allclose(
        rungs(at_wall, 3), math.sqrt(EPS_REF) * np.arange(1, 4), rtol=1e-14
    )
    at_center = predict_echo_ladder("surface", 0.0, EPS_REF)
    np.testing.assert_allclose(rungs(at_center, 3), V1 * np.array([1, 3, 5]), rtol=1e-14)


def test_ladder_unit_eps():
    assert predict_echo_ladder("center", 0.5, 1.0).time(1) == pytest.approx(0.5, rel=1e-15)


def test_ladder_scales_with_sqrt_eps():
    a = rungs(predict_echo_ladder("center", 0.5, 0.07), 5)
    b = rungs(predict_echo_ladder("center", 0.5, 0.14), 5)
    np.testing.assert_allclose(b, math.sqrt(2.0) * np.array(a), rtol=1e-14)


def test_ladder_validation():
    with pytest.raises(InvalidParameterError):
        predict_echo_ladder("edge", 0.5, EPS_REF)
    with pytest.raises(InvalidParameterError):
        predict_echo_ladder("center", 0.3, EPS_REF)
    with pytest.raises(InvalidParameterError):
        predict_echo_ladder("center", 0.5, 0.0)
    assert predict_echo_ladder("center", 0.5, EPS_REF).nearest(0.55) == pytest.approx(
        3 * V1, rel=1e-14
    )


@pytest.mark.parametrize("source, u", [("center", 0.5), ("center", 0.0), ("surface", 0.5)])
def test_ladder_nearest_matches_the_listed_rungs(source, u):
    # the closed form picks what a scan of the listed rungs picks, ties included
    ladder = predict_echo_ladder(source, u, EPS_REF)
    times = np.array(rungs(ladder, 12))
    midpoints = 0.5 * (times[:-1] + times[1:])
    for v in np.concatenate([np.linspace(0.0, 2.0, 2001), times, midpoints]):
        assert ladder.nearest(v) == times[np.argmin(np.abs(times - v))]


def test_ladder_of_a_tiny_eps_is_not_materialized():
    # rungs 2.2e-162 apart: 4.5e160 of them below v = 0.1
    ladder = predict_echo_ladder("center", 0.5, 5e-324)
    assert ladder.nearest(0.1) == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# extrema detection
# ---------------------------------------------------------------------------


def test_constant_trace_has_no_extrema():
    trace = make_trace(np.ones(500))
    assert detect_extrema(trace, prominence_threshold=1e-6) == []


def test_short_trace_rejected():
    with pytest.raises(InvalidInputError):
        detect_extrema(make_trace(np.ones(150)), prominence_threshold=1e-6)
    with pytest.raises(InvalidInputError):
        detect_extrema(make_trace(np.ones(500)), v_min_cutoff=-1.0,
                       prominence_threshold=1e-6)


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
            _, values = _smoothed(time_trace(model, coeffs, s.eps, u, s.time_grid()))
            for threshold in (0.0, 1e-3 * coeffs.mean):
                assert_peaks_match_scipy(values, threshold)


@pytest.mark.parametrize("eps", [1e-4, 0.01, 0.13, 1.0])
def test_peaks_match_scipy_across_eps(eps, gaussian_coeffs, surface_coeffs):
    times = TimeGrid.linspace(0.0, 1.2, 1201)
    for coeffs in (gaussian_coeffs, surface_coeffs):
        for family in ("parabolic", "hyperbolic", "wkb"):
            for u in (0.0, 0.5):
                _, values = _smoothed(time_trace(family, coeffs, eps, u, times))
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


def _slice(values, v=0.5, n=101, tag="parabolic"):
    grid = Grid1D.uniform_grid(n)
    return FieldSlice(grid=grid, v=v, values=np.asarray(values, float), model_tag=tag)


def test_error_norms_identical():
    a = _slice(np.linspace(1, 2, 101))
    norms = error_norms(a, a)
    assert norms.l_inf == 0.0


def test_error_norms_constant_offset():
    base = np.linspace(1, 2, 101)
    a = _slice(base)
    b = _slice(base + 1e-3, tag="hyperbolic")
    norms = error_norms(a, b)
    assert norms.l_inf == pytest.approx(1e-3, rel=1e-12)


def test_error_norms_requires_matching_slices():
    a = _slice(np.ones(101))
    b = FieldSlice(grid=Grid1D.uniform_grid(51), v=0.5, values=np.ones(51), model_tag="fd")
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
