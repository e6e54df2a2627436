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
the exact j-step result of the same explicit scheme, evaluated per mode.
The stability bounds above are still enforced: they keep the scheme, and
hence its exact result, a faithful oracle. The orthonormal DCT-II and its
inverse are each one real FFT of the even-odd reordered vector (J. Makhoul,
"A fast cosine transform in one and two dimensions", IEEE Trans. ASSP 28(1),
1980), so numpy is the only dependency.

Cost of one solve: one forward DCT of the initial data, and per-mode tables
built once. The telegraph table holds the powers M^(2^b) of each mode's 2x2
step matrix for the bits of the largest j - 1: log2(j_max) squarings, kept
as log2(j_max) * 4 * nu doubles (about 190 KB at nu = 400 and j_max =
17,800; 8 MB at nu = 10^4 and MAX_STEPS). Each snapshot then costs at most
log2(j) vector products (telegraph), or one expm1 of the log1p table plus a
power of the modes with 1 + x <= 0 (heat), and one inverse DCT. The
Laplacian eigenvalues and the cell-centre grid are cached per nu and
read-only: every slice of a solve, and of later solves on as many cells,
shares one Grid1D.

Requested snapshot times are snapped to the nearest step boundary; the
actually recorded time j*dv is reported so comparisons use matching times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MIN_FD_CELLS, Grid1D, TimeGrid, check_count, check_eps
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

    core.check_count owns the rule for nu, and core.check_eps the one for
    eps; this class owns the step's stability bounds and its step cap.

    Attributes:
        nu: number of spatial cells (du = 1/nu), an integer >= MIN_FD_CELLS;
            a numpy integer is stored as an int.
        dv: time step; must satisfy the stability bound of the selected
            equation (eps == 0 selects heat, eps > 0 telegraph).
        eps: relaxation ratio of the telegraph equation, finite and >= 0.
        snapshot_times: times at which slices are recorded (snapped to the
            nearest step boundary).
    """

    nu: int
    dv: float
    eps: float
    snapshot_times: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "nu", check_count(self.nu, "nu", MIN_FD_CELLS))
        check_eps(self.eps, 0.0)
        if not (self.dv > 0):
            raise InvalidParameterError(f"dv must be > 0, got {self.dv!r}")
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

@lru_cache(maxsize=8)
def _laplacian_eigenvalues(nu: int) -> np.ndarray:
    """lambda_k = 4 sin^2(pi k / 2 nu), read-only: the mirror Laplacian is -lambda_k on mode k."""
    lam = 4.0 * np.sin(np.pi * np.arange(nu) / (2.0 * nu)) ** 2
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=8)
def _cell_grid(nu: int) -> Grid1D:
    """The grid of cell_centers(nu), its points read-only: every slice of nu cells shares it."""
    grid = Grid1D(points=cell_centers(nu))
    grid.points.flags.writeable = False
    return grid


@lru_cache(maxsize=8)
def _twiddles(nu: int) -> tuple[np.ndarray, np.ndarray]:
    """w_k = s_k*exp(-i*pi*k/(2*nu)), k <= nu/2, s_0 = sqrt(1/nu), else sqrt(2/nu); and 1/w_k."""
    k = np.arange(nu // 2 + 1)
    w = np.exp((-0.5j * np.pi / nu) * k) * np.where(k == 0, math.sqrt(1.0 / nu), math.sqrt(2.0 / nu))
    return w, 1.0 / w


def _dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of x.

    With v = (x_0, x_2, x_4, ..., x_5, x_3, x_1) and z_k = w_k*rfft(v)_k,
    coefficient k is Re z_k and coefficient nu - k is -Im z_k.
    """
    nu = len(x)
    z = _twiddles(nu)[0] * np.fft.rfft(np.concatenate((x[::2], x[1::2][::-1])))
    out = np.empty(nu)
    out[: nu // 2 + 1] = z.real
    out[: nu // 2 : -1] = -z.imag[1 : (nu + 1) // 2]
    return out


def _idct(c: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-III of c, the inverse of _dct."""
    nu = len(c)
    z = c[: nu // 2 + 1].astype(complex)
    z.imag[1:] = -c[: nu - 1 - nu // 2 : -1]
    v = np.fft.irfft(z * _twiddles(nu)[1], nu)
    out = np.empty(nu)
    out[::2] = v[: (nu + 1) // 2]
    out[1::2] = v[: (nu + 1) // 2 - 1 : -1]
    return out


def snapshot_steps(cfg: FdConfig) -> list[int]:
    """Step index j of each snapshot time: the nearest step boundary j*dv."""
    return [int(round(t / cfg.dv)) for t in cfg.snapshot_times.points]


def _solve(profile: InitialProfile, cfg: FdConfig, steps: list[int], delta) -> list[FieldSlice]:
    """One slice per snapshot step j in steps: n0 + idct(delta(j) * dct(n0)).

    delta(j) is the per-mode change after j steps. It is exactly 0 for
    k = 0, so the discrete mass does not drift and uniform data stays fixed.
    """
    grid = _cell_grid(cfg.nu)
    n0 = np.asarray(evaluate_profile(profile, grid.points), dtype=float)
    c0 = _dct(n0)
    return [
        FieldSlice(
            grid=grid,
            v=j * cfg.dv,
            values=n0 + _idct(delta(j) * c0),
            model_tag="fd",
        )
        for j in steps
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
    rough = ~smooth
    log_factor = np.log1p(x[smooth])
    factor = 1.0 + x[rough]

    def delta(j: int) -> np.ndarray:
        out = np.empty_like(x)
        out[smooth] = np.expm1(j * log_factor)
        out[rough] = np.power(factor, j) - 1.0
        return out

    return _solve(profile, cfg, snapshot_steps(cfg), delta)


def fd_solve_telegraph(profile: InitialProfile, cfg: FdConfig) -> list[FieldSlice]:
    """Three-level explicit solution of eps*d2n/dv2 + dn/dv = d2n/du2.

    The zero initial rate is built into the special first step; afterwards
    the centered three-level update is used. Returns one slice per
    requested snapshot time, tagged "fd".
    """
    if cfg.eps == 0.0:
        raise InvalidParameterError(
            "fd_solve_telegraph requires a telegraph-mode config (eps > 0), got eps=0.0"
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
    # matrix M = [[1 + a, p_prev], [a, p_prev]] with a = -p_lap*lambda_k,
    # applied j - 1 times by repeated squaring. This also covers p_prev < 0
    # (dv > 2*eps), where closed forms through the matrix roots break down.
    d1 = -(dv * dv / (2.0 * eps)) / (du * du) * lam
    a = -p_lap * lam
    steps = snapshot_steps(cfg)
    # powers[b] = M^(2^b), squared once per solve for the bits of the
    # largest j - 1; every snapshot applies the powers its own j - 1 selects.
    powers = [(1.0 + a, p_prev, a, p_prev)]
    while (1 << len(powers)) <= max(steps) - 1:
        m00, m01, m10, m11 = powers[-1]
        powers.append((
            m00 * m00 + m01 * m10,
            m00 * m01 + m01 * m11,
            m10 * m00 + m11 * m10,
            m10 * m01 + m11 * m11,
        ))

    def delta(j: int) -> np.ndarray:
        if j == 0:
            return np.zeros_like(lam)
        value, incr = 1.0 + d1, d1
        for b, (m00, m01, m10, m11) in enumerate(powers):
            if (j - 1) >> b & 1:
                value, incr = m00 * value + m01 * incr, m10 * value + m11 * incr
        return value - 1.0

    return _solve(profile, cfg, steps, delta)
