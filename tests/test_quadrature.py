"""The adaptive Gauss-Legendre integrator of tests/oracles.py, which the
coefficient references are built on."""

import math

import numpy as np
import pytest
from oracles import integrate_adaptive, oscillation_panels

from slabdiff import QuadratureError
from slabdiff.profiles import _oscillation_panels


def test_polynomial_is_exact():
    val = integrate_adaptive(lambda u: u**2, -0.5, 0.5)
    assert val == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_full_period_cosine_integrates_to_zero():
    m = 37
    val = integrate_adaptive(
        lambda u: np.cos(2 * math.pi * m * u),
        -0.5,
        0.5,
        min_panels=oscillation_panels(m),
    )
    assert abs(val) < 1e-13


def test_oscillatory_product_matches_orthogonality():
    # cos(2*pi*m*u) * cos(2*pi*k*u) integrates to 0.5 only on the diagonal.
    for m, k, expected in ((12, 12, 0.5), (12, 11, 0.0), (3, 9, 0.0)):
        val = integrate_adaptive(
            lambda u: np.cos(2 * math.pi * m * u) * np.cos(2 * math.pi * k * u),
            -0.5,
            0.5,
            min_panels=oscillation_panels(max(m, k)),
        )
        assert val == pytest.approx(expected, abs=1e-13)


def test_min_panels_scale_with_oscillations():
    assert oscillation_panels(0) == 2
    assert oscillation_panels(1) == 2
    # 8 nodes per period at 16 nodes per panel -> m/2 panels
    assert oscillation_panels(100) == 50
    assert oscillation_panels(500) == 250
    # The package's direct sums start where the oracle's integrals do.
    for m in range(1, 1002):
        assert _oscillation_panels(m) == oscillation_panels(m), m


def test_narrow_spike_is_refined_not_missed():
    # Width 1e-3 Gaussian spike: the first coarse passes see almost nothing
    # and the doubling must keep going until the spike is resolved.
    b = 1e6
    val = integrate_adaptive(
        lambda u: np.exp(-b * u**2), -0.5, 0.5, abs_tol=1e-12
    )
    assert val == pytest.approx(math.sqrt(math.pi / b), rel=1e-12)


def test_nonconvergence_raises_with_diagnostics():
    # Integrable singularity: panel doubling converges far too slowly for
    # a 1e-12 tolerance, so the evaluation cap must trip.
    with pytest.raises(QuadratureError) as excinfo:
        integrate_adaptive(
            lambda u: np.abs(u - 0.3) ** -0.6, -0.5, 0.5, abs_tol=1e-12
        )
    err = excinfo.value
    assert err.evaluations > 0
    assert math.isfinite(err.best)
    assert err.last_delta > 1e-12
