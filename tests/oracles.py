"""Independent references that the tests check the package against.

Each reference is written from its own formula and shares no code with the
package it checks: the wall-free Gaussian, the closed-form Gaussian and
surface coefficients, the two-timescale fast/slow split, each
two-timescale mode and each telegraph mode with real roots in mpmath at
60 digits, a per-mode series summed one mode at a time, the underdamped
telegraph modes summed in long double, the telegraph mode ODE integrated
numerically, the explicit finite-difference schemes marched one step at a
time, the runner's CSV rows and chart polylines formatted one element at a
time (with the chart's layout constants), the `coeffs` table printed one
line at a time, and an adaptive integral per coefficient (checked on its own in
test_quadrature.py). That integral uses the 16-node composite
Gauss-Legendre rule of the package's direct sums, with the same panel
edges and summation order, so where it stops on the panel count of a
direct sum the two agree bit for bit.
"""

import io
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from slabdiff import (
    CosineModeProfile,
    DomainError,
    GaussianProfile,
    InvalidParameterError,
    QuadratureError,
    SpectralCoefficients,
    SurfaceCoshProfile,
    UniformProfile,
)
from slabdiff.core import HALF_WIDTH
from slabdiff.profiles import COEFFICIENT_ABS_TOL
from slabdiff.svgplot import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH

# ---------------------------------------------------------------------------
# Wall-free short-time Gaussian
# ---------------------------------------------------------------------------

#: The wall-free reference requires the Gaussian support to stay this far
#: from the walls: 1/sqrt(sharpness) + sqrt(4*v) <= WALL_CLEARANCE.
WALL_CLEARANCE = 0.25


class ReferenceInvalidError(ValueError):
    """The wall-free reference solution is not applicable (wall influence)."""


def free_space_reference(profile: GaussianProfile, v: float):
    """Exact evolution of the Gaussian profile with the walls removed.

    Diffusing a Gaussian adds 4*v to the squared-width parameter:
    1/b' = 1/b + 4*v. Valid only while the support stays clear of the walls
    (1/sqrt(b) + sqrt(4*v) <= WALL_CLEARANCE), as a short-time oracle for
    the parabolic series.

    Returns:
        A closure mapping u to the reference density.
    """
    if not isinstance(profile, GaussianProfile):
        raise InvalidParameterError("the wall-free reference is defined for Gaussian profiles")
    if not (v > 0):
        raise DomainError(f"v must be > 0, got {v!r}")
    support = 1.0 / math.sqrt(profile.sharpness) + math.sqrt(4.0 * v)
    if support > WALL_CLEARANCE:
        raise ReferenceInvalidError(
            f"wall influence is not negligible: 1/sqrt(b) + sqrt(4v) = {support:.4g} "
            f"> {WALL_CLEARANCE}"
        )
    b_eff = 1.0 / (1.0 / profile.sharpness + 4.0 * v)
    amp = profile.amplitude * math.sqrt(b_eff / math.pi)

    def reference(u):
        return amp * np.exp(-b_eff * np.asarray(u, dtype=float) ** 2)

    return reference


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def surface_cosh_mode_closed_form(profile: SurfaceCoshProfile, m: int) -> float:
    """Exact k_m of the surface profile: 2*A*s^2*(-1)^m / ((2*m*pi)^2 + s^2)."""
    s = profile.sharpness
    return 2.0 * profile.amplitude * s**2 * (-1.0) ** m / ((2.0 * math.pi * m) ** 2 + s**2)


def gaussian_mode_closed_form(profile: GaussianProfile, m: int) -> float:
    """Exact k_m of the Gaussian at 60 digits.

    k_m = 2*A*exp(-(pi*m)^2/s) * Re erf(sqrt(s)/2 + i*pi*m/sqrt(s)).

    Completing the square in 2 * integral of n0(u) * exp(2*i*m*pi*u) over
    the slab leaves erf at the two complex walls; the real part's
    cancellation for large m is why it runs in extended precision.
    """
    with mpmath.workdps(60):
        s, amplitude = mpmath.mpf(profile.sharpness), mpmath.mpf(profile.amplitude)
        root = mpmath.sqrt(s)
        z = mpmath.mpc(root / 2, mpmath.pi * m / root)
        return float(2 * amplitude * mpmath.exp(-((mpmath.pi * m) ** 2) / s)
                     * mpmath.re(mpmath.erf(z)))


def mass_closed_form(profile) -> float:
    """Exact k0, the slab integral of n0, of an analytic profile.

    Gaussian: A*erf(sqrt(s)/2), at 60 digits; surface: A; uniform: the
    level; single cosine mode: the offset, since the mode integrates to 0.
    """
    if isinstance(profile, GaussianProfile):
        with mpmath.workdps(60):
            return float(profile.amplitude * mpmath.erf(mpmath.sqrt(profile.sharpness) / 2))
    if isinstance(profile, SurfaceCoshProfile):
        return profile.amplitude
    if isinstance(profile, UniformProfile):
        return profile.level
    if isinstance(profile, CosineModeProfile):
        return profile.offset
    raise InvalidParameterError(f"no closed-form mass for {profile.tag()}")


#: Nodes per panel of the adaptive rule: the package's direct sums use the same.
PANEL_ORDER = 16


def oscillation_panels(m: int) -> int:
    """Panels on the slab that give m full periods 8 nodes each, at least 2."""
    return max(2, math.ceil(m * 8 / PANEL_ORDER))


def composite_gauss_legendre(f, a: float, b: float, panels: int) -> float:
    """The 16-node Gauss-Legendre rule on `panels` equal panels of [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    y = np.asarray(f((mid[:, None] + half[:, None] * nodes[None, :]).ravel()), dtype=float)
    return float(np.sum((y.reshape(panels, PANEL_ORDER) @ weights) * half))


def integrate_adaptive(f, a: float, b: float, abs_tol: float = 1e-12, min_panels: int = 2,
                       max_evaluations: int = 2**20, rel_tol: float = 0.0) -> float:
    """Integrate f over [a, b], doubling the panels until two sums agree.

    f takes a 1D array. Starting on max(2, min_panels) panels, the count
    doubles until two successive composite sums differ by at most
    max(abs_tol, rel_tol * |finer sum|); the finer sum is returned.

    Raises:
        QuadratureError: the evaluation cap was hit before two sums agreed.
    """
    panels = max(2, min_panels)
    evaluations = panels * PANEL_ORDER
    previous = composite_gauss_legendre(f, a, b, panels)
    last_delta = math.inf
    while True:
        panels *= 2
        evaluations += panels * PANEL_ORDER
        if evaluations > max_evaluations:
            raise QuadratureError(
                f"quadrature did not reach abs_tol={abs_tol!r} on [{a!r}, {b!r}]",
                best=previous, last_delta=last_delta,
                evaluations=evaluations - panels * PANEL_ORDER,
            )
        current = composite_gauss_legendre(f, a, b, panels)
        last_delta = abs(current - previous)
        if last_delta <= max(abs_tol, rel_tol * abs(current)):
            return current
        previous = current


def adaptive_coefficients(profile, truncation: int) -> SpectralCoefficients:
    """k0 and k_1..k_M as one adaptive integral each, at the package's tolerance.

    Integral m starts on max(hint, m/2) panels over the slab and doubles
    until two successive composite sums agree to
    COEFFICIENT_ABS_TOL * max(1, |k0|); no integral shares work with another.
    """
    hint = profile.quadrature_panels_hint()
    mean = integrate_adaptive(profile._density, -HALF_WIDTH, HALF_WIDTH,
                              abs_tol=COEFFICIENT_ABS_TOL, rel_tol=COEFFICIENT_ABS_TOL,
                              min_panels=hint)
    tol = COEFFICIENT_ABS_TOL * max(1.0, abs(mean))
    modes = np.empty(truncation)
    for m in range(1, truncation + 1):
        w = 2.0 * math.pi * m

        def integrand(u, _w=w):
            return profile._density(u) * np.cos(_w * u)

        modes[m - 1] = 2.0 * integrate_adaptive(
            integrand, -HALF_WIDTH, HALF_WIDTH, abs_tol=tol,
            min_panels=max(hint, oscillation_panels(m)))
    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())


@dataclass(frozen=True)
class WkbCoefficients:
    """Mode weights of the two-timescale approximation.

    fast[m-1] multiplies the boundary-layer decay exp(-v/eps) and slow[m-1]
    the parabolic decay exp(-(2*m*pi)^2 v); their sum is k_m.
    """

    fast: np.ndarray
    slow: np.ndarray


def wkb_coefficients(coefficients, eps: float) -> WkbCoefficients:
    """Split k_m into fast/slow weights, q_m = eps*(2*m*pi)^2:

        fast_m = -q_m / (1 - q_m) * k_m
        slow_m = k_m / (1 - q_m)

    Refuses a negative eps (InvalidParameterError). The split is singular at
    q_m = 1 and cancels near it, so it serves as a reference only where
    every |1 - q_m| is large; wkb_mode_factor serves everywhere.
    """
    if not eps >= 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps!r}")
    k = coefficients.modes
    q = eps * (2.0 * math.pi * np.arange(1, k.size + 1)) ** 2
    return WkbCoefficients(fast=-q / (1.0 - q) * k, slow=k / (1.0 - q))


def wkb_mode_factor(eps: float, m: int, v: float) -> float:
    """T_m(v)/k_m of two-timescale mode m, the fast/slow split in mpmath at 60 digits.

    (exp(-a^2*v) - q*exp(-v/eps))/(1 - q), a = 2*m*pi and q = eps*a^2, with
    eps and v the given doubles. A double eps never makes q exactly 1 at 60
    digits, and at |1 - q| >= 1e-40 the split keeps 20 digits; the limit
    exp(-a^2*v)*(1 + a^2*v) covers q = 1. At eps = 0 the mode is parabolic.
    """
    with mpmath.workdps(60):
        a2, v = (2 * mpmath.pi * m) ** 2, mpmath.mpf(v)
        slow = mpmath.exp(-a2 * v)
        if eps == 0:
            return float(slow)
        q = mpmath.mpf(eps) * a2
        if q == 1:
            return float(slow * (1 + a2 * v))
        return float((slow - q * mpmath.exp(-v / mpmath.mpf(eps))) / (1 - q))


# ---------------------------------------------------------------------------
# Series, one mode at a time
# ---------------------------------------------------------------------------
# The reference sums one mode at a time, highest m first, with compensated
# (Kahan) summation, and evaluates each telegraph mode through the closed
# form of its own damping class: in mpmath where its roots are real.


def reference_telegraph_factor(eps, m, v):
    """V_m(v)/k_m of telegraph mode m: eps*V'' + V' + (2*m*pi)^2*V = 0, V(0) = 1, V'(0) = 0.

    The discriminant disc = 1 - (4*m*pi)^2*eps is formed in mpmath at 60
    digits from the double eps. A mode with disc >= 0 is evaluated there
    too, as exp(-x)*(cosh(s*x) + sinh(s*x)/s), s = sqrt(disc) and
    x = v/(2*eps), or its limit exp(-x)*(1 + x) at disc = 0; it takes each
    v one at a time. A mode with disc < 0 takes the real cos/sin form in
    doubles, from the rounded disc.
    """
    with mpmath.workdps(60):
        disc = 1 - (4 * mpmath.pi * m) ** 2 * mpmath.mpf(eps)
        if disc >= 0:
            s = mpmath.sqrt(disc)

            def factor(t):
                x = mpmath.mpf(t) / (2 * mpmath.mpf(eps))
                if s == 0:
                    return float(mpmath.exp(-x) * (1 + x))
                return float(mpmath.exp(-x) * (mpmath.cosh(s * x) + mpmath.sinh(s * x) / s))

            return np.vectorize(factor, otypes=[float])(v)
    omega = math.sqrt(-float(disc)) / (2.0 * eps)
    return np.exp(-v / (2.0 * eps)) * (
        np.cos(omega * v) + (1.0 / (2.0 * eps * omega)) * np.sin(omega * v)
    )


def reference_density(model, c, eps, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) of one family, u and v broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if model == "wkb":
        fast_factor = np.exp(-v / eps) if eps > 0 else np.zeros_like(v)
    total = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    comp = np.zeros_like(total)
    for m in range(c.truncation, 0, -1):
        slow = np.exp(-((2.0 * math.pi * m) ** 2) * v)
        q = eps * (2.0 * math.pi * m) ** 2
        if model == "parabolic":
            amplitude = c.modes[m - 1] * slow
        elif model == "hyperbolic":
            amplitude = c.modes[m - 1] * reference_telegraph_factor(eps, m, v)
        elif abs(1.0 - q) < 0.5:
            # The split cancels near q = 1: take the mode in mpmath.
            factor = np.vectorize(lambda t: wkb_mode_factor(eps, m, t))(v)
            amplitude = c.modes[m - 1] * factor
        else:
            k = c.modes[m - 1]
            amplitude = -q / (1.0 - q) * k * fast_factor + k / (1.0 - q) * slow
        y = amplitude * np.cos(2.0 * math.pi * m * u) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return c.mean + total


def extended_underdamped_density(c, eps, u, v):
    """The telegraph density at positions u (a list) and times v, summed in long double.

    Every mode must be underdamped: k0 + sum_m k_m exp(-v/(2*eps))
    (cos(w_m*v) + r_m*sin(w_m*v)) cos(2*m*pi*u), w_m = sqrt((4*m*pi)^2*eps - 1)/(2*eps)
    and r_m = 1/(2*eps*w_m), with every phase and sum in np.longdouble.
    Returns a (times x positions) array of np.longdouble.
    """
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    m = np.arange(1, c.truncation + 1).astype(ld)
    growth = (4 * pi * m) ** 2 * ld(eps) - 1
    if not np.all(growth > 0):
        raise InvalidParameterError("every mode must be underdamped")
    omega = np.sqrt(growth) / (2 * ld(eps))
    r = 1 / (2 * ld(eps) * omega)
    k = c.modes.astype(ld)
    out = np.empty((len(v), len(u)), dtype=ld)
    for i, t in enumerate(np.asarray(v, dtype=ld)):
        factor = k * np.exp(-t / (2 * ld(eps))) * (np.cos(omega * t) + r * np.sin(omega * t))
        for j, x in enumerate(u):
            out[i, j] = ld(c.mean) + np.sum(factor * np.cos(2 * pi * m * ld(x)))
    return out


def ode_telegraph_factor(eps: float, m: int, v: float) -> float:
    """V_m(v)/k_m by integrating eps*V'' + V' + (2*m*pi)^2*V = 0 numerically (DOP853)."""
    from scipy.integrate import solve_ivp

    lam = (2 * math.pi * m) ** 2

    def rhs(t, y):
        return [y[1], -(y[1] + lam * y[0]) / eps]

    sol = solve_ivp(rhs, [0.0, v], [1.0, 0.0], rtol=1e-11, atol=1e-13, method="DOP853")
    return float(sol.y[0, -1])


# ---------------------------------------------------------------------------
# Explicit finite-difference schemes, marched step by step
# ---------------------------------------------------------------------------
# The package's solvers evaluate these schemes in DCT mode space. These
# plain-numpy kernels march the same schemes one step at a time, with the
# mirror ghost cells n[-1] = n[0] and n[nu] = n[nu-1] inlined.


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


# ---------------------------------------------------------------------------
# Output formatting, one element at a time
# ---------------------------------------------------------------------------
# The runner renders whole columns, the chart whole pixel rows and `coeffs`
# its whole table in one write; these references render each row and each
# point on its own, from Python floats.


def csv_curve_rows(curves) -> str:
    """The data rows of a curve CSV, one repr per field.

    curves holds (model, u, v, n) with u and v broadcast against n.
    """
    rows = []
    for model, u, v, n in curves:
        for a, b, c in zip(*np.broadcast_arrays(u, v, n)):
            rows.append(f"{float(a)!r},{float(b)!r},{model},{float(c)!r}\n")
    return "".join(rows)


def polyline_points(series) -> list[str]:
    """The points attribute of each polyline a chart of (label, x, y) series draws.

    The axis ranges are the data ranges, widened by max(1, |lo|, |hi|) on
    each side when (nearly) zero wide, and the y range padded by 5%.
    """

    def widened(lo, hi):
        if math.isclose(lo, hi, rel_tol=0, abs_tol=1e-300):
            pad = max(1.0, abs(lo), abs(hi))
            return lo - pad, hi + pad
        return lo, hi

    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    x_lo, x_hi = widened(float(xs.min()), float(xs.max()))
    y_lo, y_hi = widened(float(ys.min()), float(ys.max()))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    points = []
    for _, x, y in series:
        pairs = []
        for a, b in zip(np.asarray(x, float), np.asarray(y, float)):
            px = MARGIN_LEFT + (float(a) - x_lo) / (x_hi - x_lo) * plot_w
            py = MARGIN_TOP + (y_hi - float(b)) / (y_hi - y_lo) * plot_h
            pairs.append(f"{px:.2f},{py:.2f}")
        points.append(" ".join(pairs))
    return points


def coeffs_table(coeffs: SpectralCoefficients) -> str:
    """The stdout of `slabdiff coeffs`, one print per line and one per mode."""
    out = io.StringIO()
    print(f"# profile: {coeffs.profile_tag}", file=out)
    print(f"# truncation: {coeffs.truncation}", file=out)
    print(f"# tail: {coeffs.tail!r}", file=out)
    print("m,k", file=out)
    print(f"0,{coeffs.mean!r}", file=out)
    for m in range(1, coeffs.truncation + 1):
        print(f"{m},{float(coeffs.modes[m - 1])!r}", file=out)
    return out.getvalue()
