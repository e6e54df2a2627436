"""Explicit finite-difference oracles for the heat and telegraph equations.

These solvers share no code with the spectral families and exist to
cross-validate them. Both use a cell-centered uniform grid with mirror
ghost cells, which makes the zero-flux walls exact and lets the discrete
mass telescope to a conserved quantity.

Heat (eps = 0), forward Euler:        stable for dv <= 0.5*du^2
Telegraph (eps > 0), three-level:     stable for dv <= sqrt(eps)*du,
                                      with dv <= 0.45*du^2 also enforced
                                      as a safety bound on the diffusive
                                      term (0.9 * the heat bound)

The first telegraph step uses n1 = n0 + dv^2/(2*eps) * Lap(n0), which
follows from the zero initial rate together with the equation itself at
v = 0 and keeps the scheme second-order accurate from the start.

The solvers do not march step by step. The mirror Laplacian is diagonal in
the DCT-II basis, with eigenvalues -4 sin^2(pi k / 2 nu) (G. Strang, "The
Discrete Cosine Transform", SIAM Review 41(1), 1999), so each snapshot is
the exact j-step result of the same explicit scheme, evaluated per mode in
O(nu log nu + nu log j). The stability bounds above are still enforced:
they keep the scheme, and hence its exact result, a faithful oracle.

Requested snapshot times are snapped to the nearest step boundary; the
actually recorded time j*dv is reported so comparisons use matching times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, TimeGrid
from .errors import InvalidParameterError, StabilityError
from .profiles import InitialProfile, evaluate_profile
from .spectral import FieldSlice

#: Safety factor applied to the stability bounds when choosing a step.
SAFETY = 0.9

#: Refuse configurations needing more steps than this.
MAX_STEPS = 50_000_000


def cell_centers(nu: int) -> np.ndarray:
    """Centers of nu uniform cells over [-1/2, 1/2], symmetric about 0."""
    du = 1.0 / nu
    return (np.arange(nu) - (nu - 1) / 2.0) * du


@dataclass(frozen=True)
class FdConfig:
    """Grid, step and output plan for one explicit run.

    Attributes:
        nu: number of spatial cells (du = 1/nu).
        dv: time step; must satisfy the stability bound of the selected
            equation (eps == 0 selects heat, eps > 0 telegraph).
        eps: relaxation ratio of the telegraph equation, >= 0.
        snapshot_times: times at which slices are recorded (snapped to the
            nearest step boundary).
    """

    nu: int
    dv: float
    eps: float
    snapshot_times: TimeGrid

    def __post_init__(self):
        if not (isinstance(self.nu, int) and self.nu >= 3):
            raise InvalidParameterError(f"nu must be an integer >= 3, got {self.nu!r}")
        if not (self.dv > 0):
            raise InvalidParameterError(f"dv must be > 0, got {self.dv!r}")
        if not (self.eps >= 0):
            raise InvalidParameterError(f"eps must be >= 0, got {self.eps!r}")
        if not (self.v_end > 0):
            raise InvalidParameterError(f"v_end must be > 0, got {self.v_end!r}")
        du = self.du
        slack = 1 + 1e-12
        if self.eps == 0.0:
            bound = 0.5 * du * du
            if self.dv > bound * slack:
                raise StabilityError(
                    f"heat mode requires dv <= 0.5*du^2 = {bound!r}, got dv={self.dv!r}"
                )
        else:
            wave_bound = math.sqrt(self.eps) * du
            diff_bound = 0.45 * du * du
            if self.dv > wave_bound * slack:
                raise StabilityError(
                    f"telegraph mode requires dv <= sqrt(eps)*du = {wave_bound!r}, "
                    f"got dv={self.dv!r}"
                )
            if self.dv > diff_bound * slack:
                raise StabilityError(
                    f"telegraph mode requires dv <= 0.45*du^2 = {diff_bound!r}, "
                    f"got dv={self.dv!r}"
                )
        if self.v_end / self.dv > MAX_STEPS:
            raise InvalidParameterError(
                f"configuration needs {self.v_end / self.dv:.3g} steps, "
                f"more than the cap of {MAX_STEPS}"
            )

    @property
    def du(self) -> float:
        return 1.0 / self.nu

    @property
    def v_end(self) -> float:
        """Final time: the last snapshot time."""
        return float(self.snapshot_times.points[-1])

    @classmethod
    def auto(cls, nu: int, eps: float, snapshot_times: TimeGrid) -> "FdConfig":
        """Pick the largest stable dv (with the SAFETY factor) for the grid."""
        du = 1.0 / nu
        if eps == 0.0:
            dv = SAFETY * 0.5 * du * du
        else:
            dv = min(SAFETY * math.sqrt(eps) * du, 0.45 * du * du)
        return cls(nu=nu, dv=dv, eps=eps, snapshot_times=snapshot_times)


# ---------------------------------------------------------------------------
# Mode-space evaluation. With mirror ghost cells the cell-centered Laplacian
# is diagonal in the orthonormal DCT-II basis, so each scheme advances every
# mode independently and j steps collapse to one closed-form factor per mode.
# ---------------------------------------------------------------------------

def _laplacian_eigenvalues(nu: int) -> np.ndarray:
    """lambda_k = 4 sin^2(pi k / 2 nu): the mirror Laplacian is -lambda_k on mode k."""
    return 4.0 * np.sin(np.pi * np.arange(nu) / (2.0 * nu)) ** 2


def snapshot_steps(cfg: FdConfig) -> list[int]:
    """Step index j of each snapshot time: the nearest step boundary j*dv."""
    return [int(round(t / cfg.dv)) for t in cfg.snapshot_times.points]


def _solve(profile: InitialProfile, cfg: FdConfig, delta) -> list[FieldSlice]:
    """One slice per snapshot step j: n0 + idct(delta(j) * dct(n0)).

    delta(j) is the per-mode change after j steps. It is exactly 0 for
    k = 0, so the discrete mass does not drift and uniform data stays fixed.
    """
    from scipy.fft import dct, idct

    u = cell_centers(cfg.nu)
    grid = Grid1D(points=u)
    n0 = np.asarray(evaluate_profile(profile, u), dtype=float)
    c0 = dct(n0, type=2, norm="ortho")
    return [
        FieldSlice(
            grid=grid,
            v=j * cfg.dv,
            values=n0 + idct(delta(j) * c0, type=2, norm="ortho"),
            model_tag="fd",
        )
        for j in snapshot_steps(cfg)
    ]


def fd_solve_heat(profile: InitialProfile, cfg: FdConfig) -> list[FieldSlice]:
    """Forward-Euler solution of dn/dv = d2n/du2 with zero-flux walls.

    Each step multiplies mode k by 1 - r*lambda_k (r = dv/du^2). Returns
    one slice per requested snapshot time, tagged "fd", with the snapped
    time recorded in each slice.
    """
    if cfg.eps != 0.0:
        raise InvalidParameterError(
            f"fd_solve_heat requires a heat-mode config (eps == 0), got eps={cfg.eps!r}"
        )
    x = -(cfg.dv / cfg.du**2) * _laplacian_eigenvalues(cfg.nu)
    # log1p keeps slow modes accurate; high modes can have 1 + x <= 0,
    # where the plain power is used instead.
    smooth = x > -1.0

    def delta(j: int) -> np.ndarray:
        out = np.power(1.0 + x, j) - 1.0
        out[smooth] = np.expm1(j * np.log1p(x[smooth]))
        return out

    return _solve(profile, cfg, delta)


def fd_solve_telegraph(profile: InitialProfile, cfg: FdConfig) -> list[FieldSlice]:
    """Three-level explicit solution of eps*d2n/dv2 + dn/dv = d2n/du2.

    The zero initial rate is built into the special first step; afterwards
    the centered three-level update is used. Returns one slice per
    requested snapshot time, tagged "fd".
    """
    if not (cfg.eps > 0):
        raise InvalidParameterError(
            f"fd_solve_telegraph requires eps > 0, got eps={cfg.eps!r}"
        )
    eps, dv, du = cfg.eps, cfg.dv, cfg.du
    # Coefficients of the centered three-level scheme in increment form,
    # new = cur + p_lap*Lap(cur) + p_prev*(cur - prev).
    denom = eps + 0.5 * dv
    p_lap = dv * dv / (du * du) / denom
    p_prev = (eps - 0.5 * dv) / denom
    lam = _laplacian_eigenvalues(cfg.nu)
    # Per unit of mode amplitude, the first step leaves value 1 + d1 and
    # increment d1; each later step maps (value, increment) through the
    # matrix [[1 + a, p_prev], [a, p_prev]] with a = -p_lap*lambda_k,
    # applied j - 1 times by repeated squaring. This also covers p_prev < 0
    # (dv > 2*eps), where closed forms through the matrix roots break down.
    d1 = -(dv * dv / (2.0 * eps)) / (du * du) * lam
    a = -p_lap * lam

    def delta(j: int) -> np.ndarray:
        if j == 0:
            return np.zeros_like(lam)
        value, incr = 1.0 + d1, d1
        m00, m01, m10, m11 = 1.0 + a, p_prev, a, p_prev
        n = j - 1
        while n:
            if n & 1:
                value, incr = m00 * value + m01 * incr, m10 * value + m11 * incr
            n >>= 1
            if n:
                m00, m01, m10, m11 = (
                    m00 * m00 + m01 * m10,
                    m00 * m01 + m01 * m11,
                    m10 * m00 + m11 * m10,
                    m10 * m01 + m11 * m11,
                )
        return value - 1.0

    return _solve(profile, cfg, delta)
