"""Composite Gauss-Legendre quadrature on equal panels.

A fixed-order rule on a panel subdivision is refined by doubling the panel
count until two successive estimates agree to the absolute tolerance; the
caller supplies a minimum panel count so the first pass already resolves
sharp profile features. The slab mass k0 is one such adaptive integral.
The mode coefficients k_m pair the profile with cos(2*m*pi*u), which
oscillates m times across the slab: `profiles.compute_coefficients` forms
each one as a panel_sum on a panel_grid with at least 8 nodes per period,
and checks it against an FFT rule over all modes instead of a second,
coarser sum.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

#: Gauss-Legendre nodes per panel.
PANEL_ORDER = 16

#: Hard cap on integrand evaluations for one integral.
MAX_EVALUATIONS = 2**20

#: Oscillatory integrands get at least this many nodes per period.
NODES_PER_PERIOD = 8


@lru_cache(maxsize=8)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_grid(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of `panels` equal Gauss-Legendre panels on [a, b], shape
    (panels, PANEL_ORDER), and each panel's half-width, shape (panels,)."""
    nodes, _ = gauss_rule(PANEL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * nodes[None, :], half


def panel_sum(y: np.ndarray, half: np.ndarray) -> float:
    """The composite rule's value from integrand samples y on a panel_grid."""
    _, weights = gauss_rule(PANEL_ORDER)
    return float(np.sum((y.reshape(half.size, PANEL_ORDER) @ weights) * half))


def _composite_estimate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panels: int,
) -> float:
    x, half = panel_grid(a, b, panels)
    return panel_sum(np.asarray(f(x.ravel()), dtype=float), half)


def min_panels_for_oscillations(oscillations: int) -> int:
    """Panels needed so an integrand with the given number of full periods
    sees at least NODES_PER_PERIOD nodes per period on the first pass."""
    if oscillations <= 0:
        return 2
    return max(2, math.ceil(oscillations * NODES_PER_PERIOD / PANEL_ORDER))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    min_panels: int = 2,
    max_evaluations: int = MAX_EVALUATIONS,
    rel_tol: float = 0.0,
) -> float:
    """Integrate f over [a, b] to the requested tolerance.

    f must accept a 1D numpy array and return values elementwise.
    Refinement doubles the panel count; convergence is declared when two
    successive composite estimates differ by at most
    max(abs_tol, rel_tol * |finer estimate|), and the finer estimate is
    returned.

    Raises:
        QuadratureError: the evaluation cap was hit before two successive
            estimates agreed.
    """
    panels = max(2, min_panels)
    evaluations = panels * PANEL_ORDER
    previous = _composite_estimate(f, a, b, panels)
    last_delta = math.inf
    while True:
        panels *= 2
        evaluations += panels * PANEL_ORDER
        if evaluations > max_evaluations:
            raise QuadratureError(
                f"quadrature did not reach abs_tol={abs_tol!r} on [{a!r}, {b!r}]",
                best=previous,
                last_delta=last_delta,
                evaluations=evaluations - panels * PANEL_ORDER,
            )
        current = _composite_estimate(f, a, b, panels)
        last_delta = abs(current - previous)
        if last_delta <= max(abs_tol, rel_tol * abs(current)):
            return current
        previous = current
