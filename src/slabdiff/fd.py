"""Explicit finite-difference oracles for the heat and telegraph equations.

These solvers share no code with the spectral families and exist to
cross-validate them: fd imports no series code. One call, fd_solve(profile,
cfg), returns (recorded times, cells, table): row i of the (snapshots x
cells) table is the solution at recorded time i. The config picks the
equation, heat at eps == 0 and telegraph above. fd_solve_heat and
fd_solve_telegraph give the same rows as core.FieldSlice views, one per
snapshot, and refuse a config of the other equation; they are kept for
callers of that form, such as the benchmark. Both equations use a
cell-centered uniform grid with mirror ghost cells, which makes the
zero-flux walls exact and lets the discrete mass telescope to a conserved
quantity.

Heat (eps = 0), forward Euler:        stable for dv <= 0.5*du^2,
                                      run at SAFETY times that bound
Telegraph (eps > 0), three-level:     stable for dv <= sqrt(eps)*du,
                                      run at that bound (Courant number 1)

Telegraph stability, per mode. With a = -(dv^2/du^2)*lambda_k/(eps + dv/2)
and p = (eps - dv/2)/(eps + dv/2), each step maps mode k through the matrix
[[1 + a, p], [a, p]] (see _telegraph_delta). Its determinant is p, and
|p| < 1 for every eps > 0 and dv > 0. So its roots lie strictly inside the
unit circle iff -2*(1 + p) < a < 0 (Jury's test), that is, iff
dv^2*lambda_k < 4*eps*du^2. The Laplacian eigenvalues lambda_k =
4 sin^2(pi k / 2 nu) are below 4, so dv <= sqrt(eps)*du is enough, however
small eps: the diffusive term needs no bound of its own. The step is taken
at the wave bound because there the time and space errors of the centred
scheme cancel on the undamped part of each mode, as for the wave equation
(the "magic time step" of A. Taflove and S. C. Hagness, Computational
Electrodynamics). Below it the scheme disperses the high underdamped modes
(L. N. Trefethen, "Group velocity in finite difference schemes", SIAM
Review 24, 1982), which smears the travelling front and its wall echoes.

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
built once. The data and its DCT are cached per (profile, nu), read-only,
so the heat and telegraph solves of one profile share them; a tabulated
profile, whose table is unhashable, is not cached. The telegraph table
holds the powers M^(2^b) of each mode's 2x2 step matrix for the bits of
the largest j - 1: log2(j_max) squarings, kept as log2(j_max) * 4 * nu
doubles (about 90 KB at nu = 400 and j_max = 89, which reaches v = 0.05
at eps = 0.05; 8 MB at nu = 10^4 and MAX_STEPS).
Each snapshot then costs at most log2(j) vector products (telegraph), or
one expm1 of the log1p table plus a power of the modes with 1 + x <= 0
(heat), and one inverse DCT. The Laplacian eigenvalues and the cell-centre
grid are cached per nu and read-only: every solve on as many cells returns
the same cells array, and every slice the same Grid1D. The table is written
row by row into one preallocated array, so a solve holds its solution once.

Requested snapshot times are snapped to the nearest step boundary; the
actually recorded time j*dv is reported so comparisons use matching times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MIN_FD_CELLS, FieldSlice, Grid1D, TimeGrid, check_count, check_eps
from .errors import InvalidParameterError, StabilityError
from .profiles import InitialProfile, TabulatedProfile, evaluate_profile

#: Safety factor applied to the heat bound when choosing a heat step.
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
            if self.dv > wave_bound * slack:
                raise StabilityError(
                    f"telegraph mode requires dv <= sqrt(eps)*du = {wave_bound!r}, "
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
        """The step for the grid: SAFETY * 0.5*du^2 (heat), sqrt(eps)*du (telegraph)."""
        du = 1.0 / nu
        dv = math.sqrt(eps) * du if eps > 0.0 else SAFETY * 0.5 * du * du
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


def _spectrum(profile: InitialProfile, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(n0, c0): the profile on the nu cell centres and its DCT, both read-only."""
    n0 = np.asarray(evaluate_profile(profile, _cell_grid(nu).points), dtype=float)
    c0 = _dct(n0)
    n0.flags.writeable = c0.flags.writeable = False
    return n0, c0


#: _spectrum once per process for each (profile, nu), in 8 entries: the heat
#: and telegraph solves of one profile share it. A tabulated profile holds an
#: unhashable table and is not cached.
_cached_spectrum = lru_cache(maxsize=8)(_spectrum)


def snapshot_steps(cfg: FdConfig) -> list[int]:
    """Step index j of each snapshot time: the nearest step boundary j*dv."""
    return [int(round(t / cfg.dv)) for t in cfg.snapshot_times.points]


def _heat_delta(cfg: FdConfig):
    """delta(j), the per-mode change after j forward-Euler steps of dn/dv = d2n/du2.

    Each step multiplies mode k by 1 - r*lambda_k (r = dv/du^2).
    """
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

    return delta


def _telegraph_delta(cfg: FdConfig, steps: list[int]):
    """delta(j), the per-mode change after j <= max(steps) three-level steps.

    The scheme is that of eps*d2n/dv2 + dn/dv = d2n/du2. The zero initial
    rate is built into the special first step; afterwards the centered
    three-level update is used.
    """
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

    return delta


def fd_solve(profile: InitialProfile, cfg: FdConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The FD solution at every snapshot time, as (recorded times, cells, table).

    The config picks the equation: heat at eps == 0, telegraph above. Row i
    of the (snapshots x cells) table is the solution after j steps, j the
    snapshot's step, and the recorded times are j*dv. The cells are the
    shared, read-only cell_centers(nu). Each row is n0 + idct(delta(j) *
    dct(n0)), where delta(j), the per-mode change after j steps, is exactly
    0 for k = 0: the discrete mass does not drift and uniform data stays
    fixed.
    """
    steps = snapshot_steps(cfg)
    delta = _heat_delta(cfg) if cfg.eps == 0.0 else _telegraph_delta(cfg, steps)
    cells = _cell_grid(cfg.nu).points
    spectrum = _spectrum if isinstance(profile, TabulatedProfile) else _cached_spectrum
    n0, c0 = spectrum(profile, cfg.nu)
    table = np.empty((len(steps), cfg.nu))
    for i, j in enumerate(steps):
        np.add(n0, _idct(delta(j) * c0), out=table[i])
    return np.array(steps) * cfg.dv, cells, table


def _slices(profile: InitialProfile, cfg: FdConfig, equation: str) -> list[FieldSlice]:
    """fd_solve's rows as FieldSlices on the shared cell grid, for a config of `equation`."""
    if (cfg.eps == 0.0) != (equation == "heat"):
        raise InvalidParameterError(
            f"fd_solve_{equation} requires a {equation}-mode config, got eps={cfg.eps!r}"
        )
    recorded, _, table = fd_solve(profile, cfg)
    grid = _cell_grid(cfg.nu)
    return [FieldSlice(grid=grid, v=v, values=row) for v, row in zip(recorded.tolist(), table)]


def fd_solve_heat(profile: InitialProfile, cfg: FdConfig) -> list[FieldSlice]:
    """fd_solve of a heat config (eps == 0), one FieldSlice per snapshot."""
    return _slices(profile, cfg, "heat")


def fd_solve_telegraph(profile: InitialProfile, cfg: FdConfig) -> list[FieldSlice]:
    """fd_solve of a telegraph config (eps > 0), one FieldSlice per snapshot."""
    return _slices(profile, cfg, "telegraph")
