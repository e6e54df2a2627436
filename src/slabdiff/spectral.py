"""Series solutions of the slab diffusion problem with zero-flux walls.

Three families share the cosine-series coefficients of the initial profile:

* parabolic: each mode decays as exp(-(2*m*pi)^2 * v);
* hyperbolic (telegraph): each mode solves
  eps*V'' + V' + (2*m*pi)^2 * V = 0 with V(0)=k_m, V'(0)=0. A mode with
  disc = 1 - (4*m*pi)^2*eps < 0 is underdamped: it decays as
  exp(-v/(2*eps)) and oscillates, through its real cos/sin form. A mode
  with disc >= 0 has two real roots;
* two-timescale (WKB-type): a fast boundary-layer decay exp(-v/eps)
  superposed on the parabolic relaxation. With a = 2*m*pi and
  q_m = eps*a^2, mode m's factor is (exp(-a^2*v) - q_m*exp(-v/eps))/(1 - q_m),
  split into a slow and a fast part, except for the modes with
  |1 - q_m| < 1/2, which lie around m = 1/(2*pi*sqrt(eps)). The split
  cancels there, and divides by 0 at q_m = 1, where the mode has no
  singularity.

The two-timescale family is the exact series solution of
    eps*n_vv + n_v = n_uu + eps*n_uuv,  zero-flux walls, n_v(0) = 0:
mode m's factor has the roots -a^2 and -1/eps, and T_m'(0) = 0. That is
the balance n_v = -q_u with the flux law q + eps*q_v = -(n_u + eps*n_uv),
of Jeffreys type, with equal relaxation and retardation times (D. D.
Joseph and L. Preziosi, "Heat waves", Rev. Mod. Phys. 61, 1989).

Two real roots. A mode of either family with real roots lam2 <= lam1 <= 0,
(-1 -+ sqrt(disc))/(2*eps) for the telegraph family and -max(a^2, 1/eps),
-min(a^2, 1/eps) for the two-timescale family, has the factor
T = (lam2*exp(lam1*v) - lam1*exp(lam2*v))/(lam2 - lam1), T(0) = 1 and
T'(0) = 0. With g = lam1 - lam2 >= 0 it is
    T = exp(lam1*v)*(1 - lam1*v*phi(g*v)),  phi(x) = -expm1(-x)/x,
every term nonnegative: no difference of two decays is formed, and g = 0,
critical damping or q_m = 1, is phi(0) = 1 (Hochbruck & Ostermann,
"Exponential integrators", Acta Numerica 19, 2010). Every telegraph mode
with disc >= 0 and every two-timescale mode with |1 - q_m| < 1/2 takes
this form, so every eps >= 0 is evaluated.

The families differ only in each mode's time factor T_m, and one blocked
evaluator sums all three. It walks the modes in blocks, highest block
first, and evaluates a block only at its live times: those where the
slowest decay exp(-rate*v) of its modes, its first mode's, is not flushed
to 0 at EXP_FLOOR. The rate is (2*m*pi)^2 for the parabolic modes and the
slow part of the two-timescale modes, 1/(2*eps) for the underdamped
telegraph modes, whose decay is shared, and for a telegraph mode with
disc >= 0 its slow rate -lam1 = (4*m*pi)^2/(2*(1 + sqrt(disc))). The
underdamped telegraph modes are walked apart from the lower ones, so none
is evaluated where the shared decay is 0, and at a huge or infinite time
no mode is evaluated at all: the density there is k0. Where the slow decay
of a two-timescale mode is 0 it still adds fast_m*exp(-v/eps),
fast_m = k_m*a^2/(a^2 - 1/eps) (0 where a^2 = 1/eps exactly, as both
decays are then flushed at once), as one rank-one term per block,
(sum_m fast_m*cos(2*m*pi*u))*exp(-v/eps). A block holds
max(BLOCK, min(32*BLOCK, size/L)) modes, L the live times of its first
mode and size BLOCK times the times per position, or BLOCK*P on a
lattice: its terms never exceed max(BLOCK*L, size) values, so peak memory
does not grow with the truncation, and the high modes, live at few times,
take few blocks (a 1201-time trace at M = 500 takes 3). Two paths share
the walk, chosen from the input alone.

Fold and FFT. When the positions of an outer table (positions x times)
are J >= BLOCK points q_j/P of one uniform lattice, cos(2*m*pi*q_j/P)
depends on m only through m mod P. The terms k_m*T_m(v) of the modes
congruent mod P are summed into one row of a (P x times) fold table, and
the real part of its rfft, read at bin min(r_j, P - r_j), r_j = q_j mod P,
is the sum at every position: O(M*N + N*P*log P) work and no
(modes x positions) table. The lattice has P = 2*round(1/h) for the mean
spacing h, at most 4*J, and every position must lie within
np.spacing(HALF_WIDTH) of its q/P; cell centers of nu cells have P = 2*nu,
Grid1D.uniform_grid(n) has P = 2*(n - 1), a half-slab linspace of n points
P = 4*(n - 1). Field tables, FD-comparison slices and the acceptance
gate's slices take this path; every index is an integer, so no phase is
rounded. Each fold row receives its modes highest first, however the
modes are blocked.

Per sample. Everything else is evaluated per sample: each block's time
factors are contracted over the mode axis with its cosines
cos((2*pi*m)*u), one matrix product when u and v form an outer table.
Every table of BLOCK or more positions that the package builds is a
lattice, so this path serves traces of a few positions, (u, v) pairs and
off-lattice tables.

Telegraph contraction. The direct formula of an underdamped telegraph mode
pays a cos and a sin per mode and sample, so on a uniform time row these
modes are instead contracted over the modes before time is expanded, at
the N times where their shared decay is not 0. The N times are reshaped
into blocks of S = max(BLOCK, isqrt(N)) samples, and each time is
evaluated at its nominal time: its block's first time (the anchor a) plus
the offset d = s*h of its place s in the block, h the row's mean step. A
uniform trace of 1201 times has 36 anchors and 34 offsets. Each mode's
factor at v = a + d, divided by the shared decay, is
cos(omega*a)*P(d) + sin(omega*a)*Q(d), with
P = cos(omega*d) + r*sin(omega*d), Q = r*cos(omega*d) - sin(omega*d) and
r = 1/(2*eps*omega). With k_m*cos(2*m*pi*u) folded into the anchor side,
one matrix product per block of modes, G[d, (a, j)] += sum_m
B[m, d]*A[m, (a, j)], replaces the (modes x times) table, and each sample
reads G at its anchor and offset, a reshape of G. A row is contracted only
when it is uniform to within its own rounding: every |(v - a) - s*h| is at
most SPLIT_SPACINGS = 3 spacings of its last time, which a rounded uniform
row meets (the derivation is in _split_times). Each sample's time then
moves by at most that much, and its value by |dn/dv| times it. A row is
also contracted only when the Q anchors and S offsets number at most half
the N times, and only in a table of fewer than BLOCK positions. A block of
modes holds max(BLOCK, BLOCK*N/(Q*J + S)) modes for J positions, so peak
memory does not grow with the truncation. Rows of few times, rows that are
not sorted and uniform to within their rounding (jittered, reversed,
shuffled, irregular or patterned rows), rows holding a non-finite time,
tables of BLOCK or more positions and (u, v) pairs take the per-sample
path, as do the telegraph modes with disc >= 0.

The time factors are the same code on every path, and on every path the
two-timescale family at eps = 0 is the parabolic evaluation, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    HALF_WIDTH,
    FieldSlice,
    Grid1D,
    TimeGrid,
    TimeTrace,
    check_family_eps,
    slab_positions,
)
from .errors import DomainError, InvalidParameterError
from .profiles import SpectralCoefficients

#: The fewest modes per block of the series walk, and times per block of
#: the anchor/offset split of a uniform time row. It bounds the
#: (modes x points) temporaries, so peak memory does not grow with the
#: truncation.
BLOCK = 16

#: The largest |(v - anchor) - s*h| of a time row that the telegraph
#: contraction accepts, in spacings np.spacing(v[-1]) of the row's last
#: time: the rounding of a rounded uniform row (see _split_times).
SPLIT_SPACINGS = 3.0

#: Decay factors exp(x) with x <= EXP_FLOOR (below 3.3e-308, at the edge of
#: the subnormal range that starts at x = -708.4) are taken as 0.
EXP_FLOOR = -708.0

# glibc's malloc hands the free memory at the top of its heap back to the
# system once it exceeds a trim threshold: 128 KiB at start, raised to twice
# the largest block freed from mmap. A series call frees its block
# temporaries, 0.4-0.9 MB for a 1201-time trace and about 10 times that for
# 12001 times, so under a lower threshold every call faults them in again
# (100-1600 minor faults, 15-60% of the call). Freeing one 4 MiB block here
# lifts the threshold to 8 MiB; with another allocator it is one allocation.
np.empty(1 << 19)


def _check_v(v):
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise DomainError(f"v must be >= 0, got {v!r}")
    return v_arr


def _scalarize(value, *inputs) -> float | np.ndarray:
    if all(np.isscalar(x) or np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def _exp(x):
    """exp(x), flushed to 0 for x <= EXP_FLOOR; NaN stays NaN.

    numpy's exp takes about nine times longer per element on arguments
    whose result is subnormal or underflows, and most decay factors of the
    high modes land there.
    """
    return np.exp(x, out=np.zeros_like(x), where=~(x <= EXP_FLOOR))


# ---------------------------------------------------------------------------
# Series evaluator
# ---------------------------------------------------------------------------

def _split_times(v):
    """The anchor/offset split of the time row v, (anchors, offsets), or None.

    The N times are cut into blocks of S = max(BLOCK, isqrt(N)), which
    about minimizes the anchors plus the offsets. The anchors (Q,) are the
    first time of each block and the offsets (S,) the S multiples s*h of
    the mean step h = (v[-1] - v[0])/(N - 1), the same in every block; the
    contraction evaluates each time at its nominal time anchor + s*h.

    None, for the per-sample path, unless h > 0, every |(v - anchor) - s*h|
    is at most SPLIT_SPACINGS spacings U = np.spacing(v[-1]) and the anchors
    Q and the S offsets number at most half the N samples. So only a sorted
    row uniform to within its rounding is split; a row of fewer than BLOCK
    times, or holding a non-finite time, never is.

    The bound is the rounding of a rounded uniform row, each time within
    U/2 of v[0] + j*eta for one exact step eta and all in [0, v[-1]]. The
    time and its anchor carry U/2 each. s*h < v[-1]/2, as S <= N/2, so the
    product rounds within U/4, and s < (N - 1)/2 scales the error of h, the
    roundings of v[0], v[-1] and their difference over N - 1 and its own
    2**-53*h, to under 3U/4 + U/2: 5U/2 in all. The computed residual is
    that shift exactly (Sterbenz), except that v - v[0] in the first block
    of a row with v[0] > 0 rounds within U/4, both ways: a rounded uniform
    row computes within 11U/4, and an accepted row's times move by at most
    SPLIT_SPACINGS*U + U/4. np.linspace rows and their prefixes, whose last
    time is the stop, measured within 2U.
    """
    n = v.size
    if n < BLOCK or not np.all(np.isfinite(v)):
        return None
    span = max(BLOCK, math.isqrt(n))
    count = -(-n // span)
    step = (v[-1] - v[0]) / (n - 1)
    if not step > 0 or count + span > n / 2:
        return None
    blocks = np.pad(v, (0, count * span - n)).reshape(count, span)
    offsets = step * np.arange(span)
    residual = blocks - blocks[:, :1]
    residual -= offsets
    residual.flat[n:] = 0.0
    if not np.all(np.abs(residual) <= SPLIT_SPACINGS * np.spacing(v[-1])):
        return None
    return blocks[:, 0], offsets


def _discriminant(eps: float, m):
    """1 - (4*m*pi)^2*eps: > 0 overdamped, < 0 underdamped telegraph mode m.

    Squared as x*x, which numpy's x**2 of an array is and Python's float
    power is not, for some m by 1 ulp: a scalar m is then classed as its
    row of a block is.
    """
    x = 4.0 * np.pi * m
    return 1.0 - x * x * eps


def _frequency(eps: float, disc):
    """Angular frequency omega of underdamped modes, and r = 1/(2*eps*omega)."""
    omega = np.sqrt(-disc) / (2.0 * eps)
    return omega, 1.0 / (2.0 * eps * omega)


def _slow_rate(model: str, eps: float, m: int) -> float:
    """The slowest decay rate of the time factors of the modes m and up.

    (2*m*pi)^2 for the parabolic family and the slow part of the
    two-timescale family; for the telegraph family 1/(2*eps), the shared
    decay of the underdamped modes (disc < 0), or, for a mode m with
    disc >= 0, its slow rate (4*m*pi)^2/(2*(1 + sqrt(disc))), which rises
    with m to 1/(2*eps) at disc = 0.
    """
    if model != "hyperbolic":
        return (2.0 * math.pi * m) ** 2
    disc = _discriminant(eps, m)
    if disc >= 0:
        # The product form of (1 - sqrt(disc))/(2*eps), which cancels to 0
        # for small eps.
        return (4.0 * math.pi * m) ** 2 / (2.0 * (1.0 + math.sqrt(disc)))
    return 0.5 / eps


def _two_root(slow, gap, v, decay):
    """The time factor of modes with real roots slow = lam1 <= 0 and lam1 - gap.

    T = exp(lam1*v)*(1 - lam1*v*phi(gap*v)), phi(x) = -expm1(-x)/x, which
    is (lam2*exp(lam1*v) - lam1*exp(lam2*v))/(lam2 - lam1) with T(0) = 1 and
    T'(0) = 0. decay = exp(lam1*v) is passed in, since the two-timescale
    walk already holds it. lam1*v*phi(gap*v) = lam1*expm1(-gap*v)/gap takes
    one product per sample and no difference of decays. Where gap is 0 it is taken as
    2**-60*|lam1|, far below any nonzero gap of either family (about
    2**-53*|lam1| at least); there phi(gap*v) is phi(0) = 1 to within
    2**-61*|lam1|*v.
    """
    gap = np.maximum(gap, 2.0**-60 * -slow)
    term = np.expm1(-gap * v)
    term *= slow / gap
    term += 1.0
    term *= decay
    return term


def _telegraph_factor(eps: float, m, v, decay):
    """V_m(v)/k_m of the telegraph modes in column m at the times in v.

    m has shape (R, 1); v and decay = exp(-v/(2*eps)) are one row (1, N),
    shared by every mode. A mode with disc = 1 - (4*m*pi)^2*eps >= 0 has
    real roots and takes _two_root; one with disc < 0 is underdamped, with
    decay 1/(2*eps) and angular frequency omega. _series walks the modes
    with disc >= 0 apart from the underdamped ones, so every mode of m is
    of the class of its first.
    """
    disc = _discriminant(eps, m)
    if disc[0, 0] >= 0:
        sq = np.sqrt(disc)
        # lam1 = (sq - 1)/(2*eps) cancels for small eps; it is formed from
        # the equivalent product form instead. lam1 - lam2 = sq/eps.
        slow = -((4.0 * np.pi * m) ** 2) / (2.0 * (1.0 + sq))
        return _two_root(slow, sq / eps, v, _exp(slow * v))
    omega, r = _frequency(eps, disc)
    phase = omega * v
    # decay*(cos(phase) + r*sin(phase)), formed in place.
    wave = np.sin(phase)
    wave *= r
    wave += np.cos(phase, out=phase)
    wave *= decay
    return wave


def _contracted(coefficients, eps: float, split, lo: int, u):
    """sum_m k_m V_m(v)/exp(-v/(2*eps)) cos(2*m*pi*u) over the underdamped modes lo..M.

    Returned as (Q*S, J) rows over the split's padded row, at the nominal
    times v = a + d (anchor a, offset d) of the split (anchors, offsets):
    cos(omega*v) + r*sin(omega*v) = cos(omega*a)*P(d) + sin(omega*a)*Q(d),
    P = cos(omega*d) + r*sin(omega*d) and Q = r*cos(omega*d) - sin(omega*d).
    The anchor side, times k_m*cos(2*m*pi*u), is contracted with the offset
    tables over the modes of a block, G[d, q, j] += sum_m A[m, q, j] * B[m, d],
    and sample s of block q reads G[s, q]: no (modes x times) table is formed.
    u holds the J < BLOCK positions, and each block forms their cosines
    cos((2*pi*m)*u) directly.
    """
    a, d = (x[None, :] for x in split)
    g = np.zeros((d.size, a.size, u.size))
    # A block's anchor-side table is no larger than a direct block.
    rows = max(BLOCK, BLOCK * a.size * d.size // (a.size * u.size + d.size))
    k = coefficients.modes
    for stop in range(coefficients.truncation, lo - 1, -rows):
        start = max(lo, stop - rows + 1)
        m = np.arange(start, stop + 1, dtype=float)[:, None]
        kb = k[start - 1 : stop, None]
        omega, r = _frequency(eps, _discriminant(eps, m))
        cos_d, sin_d = np.cos(omega * d), np.sin(omega * d)
        p_d, q_d = cos_d + r * sin_d, r * cos_d - sin_d
        b = np.concatenate((p_d, q_d))
        anchor = np.stack((kb * np.cos(omega * a), kb * np.sin(omega * a)))
        cosines = np.cos((2.0 * np.pi * m) * u)
        table = (anchor[..., None] * cosines[:, None, :]).reshape(-1, g[0].size)
        g += (b.T @ table).reshape(g.shape)
    return g.swapaxes(0, 1).reshape(-1, u.size)


def _lattice(u):
    """(P, index) when the positions are points q/P of one uniform lattice, else None.

    P = 2*round(1/h) for the mean spacing h of the J >= BLOCK positions
    must not exceed 4*J, and every position must lie within
    np.spacing(HALF_WIDTH) of its q/P. Cell centers of nu cells have
    P = 2*nu, Grid1D.uniform_grid(n) has P = 2*(n - 1). index holds
    min(r, P - r), r = q mod P, the rfft bin of each position.
    """
    if u.size < BLOCK:
        return None
    span = float(u.max() - u.min())
    cells = (u.size - 1) / span if span > 0 else math.inf
    if not cells <= 2 * u.size + 1:  # also inf and NaN, which round() refuses
        return None
    period = 2 * round(cells)
    if period > 4 * u.size:
        return None
    q = np.rint(u * period)
    if np.any(np.abs(u - q / period) > np.spacing(HALF_WIDTH)):
        return None
    r = np.mod(q, period).astype(np.intp)
    return period, np.minimum(r, period - r)


def _series(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) for one family; u and v broadcast.

    T_m is the family's time factor. An outer table (u of shape (1, Nu), v
    of shape (Nv, 1)) or a scalar u or v is summed by one real FFT on a
    lattice of positions, else by matrix products, with the underdamped
    telegraph modes of a uniform time row at fewer than BLOCK positions
    contracted over the modes; any other broadcast is evaluated point by
    point. An empty broadcast gives an empty array.
    """
    terms = coefficients.truncation
    check_family_eps(model, eps, terms)
    # exp(-v/eps) is never formed for eps = 0, where the fast weights vanish.
    two_scale = model == "wkb" and eps > 0
    u_arr = slab_positions(u)
    v_arr = _check_v(v)
    shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
    if 0 in shape:
        return np.zeros(shape)
    outer = u_arr.size == 1 or v_arr.size == 1 or (
        u_arr.shape == (1, u_arr.size) and v_arr.shape == (v_arr.size, 1)
    )
    if outer:
        u_flat, v_flat = u_arr.ravel(), v_arr.ravel()
    else:
        u_flat = np.broadcast_to(u_arr, shape).ravel()
        v_flat = np.broadcast_to(v_arr, shape).ravel()

    # The time factor shared by every mode: exp(-v/(2*eps)) for the telegraph
    # family, exp(-v/eps) for the two-timescale family. -v/eps overflows to
    # -inf at a huge time or a subnormal eps; exp(-inf) = 0 is the limit.
    if model == "hyperbolic" or two_scale:
        with np.errstate(over="ignore"):
            shared = _exp((-1.0 / (2.0 * eps)) * v_flat if model == "hyperbolic" else -v_flat / eps)
    # The two-timescale modes near[0]..near[1], whose ratio
    # q_m = eps*(2*m*pi)^2 = (m/star)^2 lies within 1/2 of 1, take the
    # two-root form. They number about star/2, and are found in O(1).
    star = 0.5 / (math.pi * math.sqrt(eps)) if two_scale else 0.0
    near = (max(1, math.ceil(star * 0.5**0.5)), min(terms, math.floor(star * 1.5**0.5)))

    k = coefficients.modes

    def live(first: int):
        """Where exp(-rate*v), rate the slowest of the modes first and up, is not flushed.

        NaN times stay live, so that NaN stays in its own sample.
        """
        return ~(v_flat >= -EXP_FLOOR / _slow_rate(model, eps, first))

    def walk(low: int, last: int, size: int, add):
        """Hand the blocks of modes low..last, highest first, to add(first, index, t, row).

        A block is evaluated only at the live times v[index] of its first
        mode: t holds k_m T_m(v) there, (count, times), and row is None. At
        the other times a two-timescale mode still adds fast_m*exp(-v/eps):
        t then holds the fast weights, (count, 1), and row exp(-v/eps) at
        those times. fast_m = k_m*a^2/(a^2 - 1/eps), a = 2*m*pi, or 0 where
        a^2 = 1/eps exactly, since both decays are then flushed at once. A
        block holds max(BLOCK, min(32*BLOCK, size/L)) modes, L the live
        times of its first mode, so its terms never exceed max(BLOCK*L, size)
        values and peak memory does not grow with the truncation, while the
        high modes, live at few times, take few blocks.

        Formed in place where it can: each block-sized temporary is fresh
        memory from the allocator, and its page faults cost as much as the
        arithmetic on a long time row.
        """
        blocks = []
        while low <= last:
            count = max(BLOCK, min(32 * BLOCK, size // max(1, np.count_nonzero(live(low)))))
            blocks.append((low, min(last, low + count - 1)))
            low += count
        for first, stop in reversed(blocks):
            m = np.arange(first, stop + 1, dtype=float)[:, None]
            kb = k[first - 1 : stop, None]
            mask = live(first)
            index = slice(None) if mask.all() else np.flatnonzero(mask)
            a2 = (2.0 * np.pi * m) ** 2
            if two_scale:
                fast = np.divide(kb * a2, a2 - 1.0 / eps, out=np.zeros_like(a2),
                                 where=a2 != 1.0 / eps)
                dead = np.flatnonzero(~mask & (shared != 0))
                if dead.size:
                    add(first, dead, fast, shared[dead])
            v_row = v_flat[None, index]
            if not v_row.size:
                continue
            if model == "hyperbolic":
                t = _telegraph_factor(eps, m, v_row, shared[None, index])
            else:
                t = _exp(-a2 * v_row)
            if two_scale:
                # The block's rows lo..hi - 1 are modes near q = 1, of roots
                # -a^2 and -1/eps: two-root form, on the decay of the slower.
                lo, hi = max(first, near[0]) - first, min(stop, near[1]) - first + 1
                if lo < hi:
                    a2_near = a2[lo:hi]
                    decay = np.where(a2_near <= 1.0 / eps, t[lo:hi], shared[None, index])
                    rows = _two_root(-np.minimum(a2_near, 1.0 / eps),
                                     np.abs(a2_near - 1.0 / eps), v_row, decay)
                # k_m*e_s - fast_m*(e_s - e_f) is k_m exactly at v = 0.
                gap = t - shared[None, index]
                gap *= fast
                t *= kb
                t -= gap
                if lo < hi:
                    np.multiply(rows, kb[lo:hi], out=t[lo:hi])
            else:
                t *= kb
            add(first, index, t, None)

    # The telegraph modes under..M are underdamped and share the decay
    # exp(-v/(2*eps)). The discriminant falls with m, so the other modes are
    # the lowest ones; they decay more slowly and are walked apart, so that
    # no underdamped mode is evaluated where the shared decay is 0.
    under = 1
    if model == "hyperbolic":
        # Found in O(1): mode 1/(4*pi*sqrt(eps)) - 1 and those below it have
        # disc > 0.
        under = min(terms + 1, max(1, math.floor(0.25 / (math.pi * math.sqrt(eps))) - 1))
        while under <= terms and _discriminant(eps, under) >= 0:
            under += 1
    walks = [(under, terms), (1, under - 1)]

    lattice = _lattice(u_flat) if outer else None
    if lattice is not None:
        # cos(2*m*pi*q/P) depends on m only through m mod P: the terms of the
        # modes congruent mod P are summed into one row of a (P x times)
        # fold table, and the real part of its rfft over P is the sum at
        # every lattice position, read at bin min(r, P - r), r = q mod P.
        period, bins = lattice
        fold = np.zeros((period, v_flat.size))

        def fold_in(first: int, index, t, row):
            # The modes low..top between two multiples of P fill contiguous rows.
            top = first + len(t) - 1
            while top >= first:
                low = max(first, top - top % period)
                part = t[low - first : top - first + 1]
                fold[low % period : top % period + 1, index] += part if row is None else part * row
                top = low - 1

        for low, last in walks:
            walk(low, last, BLOCK * period, fold_in)
        total = np.fft.rfft(fold, axis=0).real[bins].T
        return _scalarize((coefficients.mean + total).reshape(shape), u, v)

    total = np.zeros((v_flat.size, u_flat.size) if outer else u_flat.size)
    # The underdamped telegraph modes of a uniform time row, in a table of
    # fewer than BLOCK positions, are contracted over the anchor/offset split
    # of the times where their shared decay is not 0; all other modes are
    # evaluated per sample.
    if outer and model == "hyperbolic" and under <= terms and u_flat.size < BLOCK:
        times = np.flatnonzero(shared)
        split = _split_times(v_flat[times])
        if split is not None:
            values = _contracted(coefficients, eps, split, under, u_flat)[: times.size]
            total[times] += values * shared[times, None]
            del walks[0]
    # Blocks shrink as positions grow: a block's cosines, (count, positions),
    # hold at most max(BLOCK*positions, BLOCK*times) values.
    size = BLOCK * v_flat.size // u_flat.size

    def contract(first: int, index, t, row):
        m = np.arange(first, first + len(t), dtype=float)[:, None]
        c = np.cos((2.0 * np.pi * m) * (u_flat if outer else u_flat[index]))
        s = t.T @ c if outer else np.einsum("jn,jn->n", t, c)
        total[index] += s if row is None else (row[:, None] if outer else row) * s

    for low, last in walks:
        walk(low, last, size, contract)
    return _scalarize((coefficients.mean + total).reshape(shape), u, v)


def parabolic_density(coefficients: SpectralCoefficients, u, v):
    """Density of the instant-flux (parabolic) model at (u, v).

    u and v broadcast together; the truncated series
    k0 + sum k_m exp(-(2*m*pi)^2 v) cos(2*m*pi*u) is returned.
    """
    return _series("parabolic", coefficients, 0.0, u, v)


def hyperbolic_density(coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the finite-speed (telegraph) model at (u, v), eps > 0."""
    return _series("hyperbolic", coefficients, eps, u, v)


# ---------------------------------------------------------------------------
# Two-timescale (WKB-type) family
# ---------------------------------------------------------------------------

def wkb_density(coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the two-timescale approximation at (u, v), eps >= 0.

    Each mode contributes k_m*e_s - fast_m*(e_s - e_f) with
    e_s = exp(-(2*m*pi)^2 v), e_f = exp(-v/eps) and
    fast_m = -q_m/(1 - q_m)*k_m, q_m = eps*(2*m*pi)^2, which equals k_m at
    v = 0. A mode with |1 - q_m| < 1/2 takes the same factor in the
    two-root form of roots -a^2 and -1/eps (_two_root), which has no
    singularity at q_m = 1. For eps = 0 the fast weights vanish, e_f is
    never formed and the result coincides with parabolic_density exactly.
    """
    return _series("wkb", coefficients, eps, u, v)


def family_density(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the named spectral family at (u, v); u and v broadcast.

    eps is ignored by the parabolic family.
    """
    if model == "parabolic":
        return parabolic_density(coefficients, u, v)
    if model == "hyperbolic":
        return hyperbolic_density(coefficients, eps, u, v)
    if model == "wkb":
        return wkb_density(coefficients, eps, u, v)
    raise InvalidParameterError(f"unknown spectral model {model!r}")


def field_slice(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    grid: Grid1D,
    v: float,
) -> FieldSlice:
    """Sample one spectral family over a grid at time v."""
    values = family_density(model, coefficients, eps, grid.points, v)
    return FieldSlice(grid=grid, v=float(v), values=values)


def time_trace(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    u: float,
    times: TimeGrid,
) -> TimeTrace:
    """Sample one spectral family over a time grid at position u."""
    values = family_density(model, coefficients, eps, u, times.points)
    return TimeTrace(u=float(u), times=times, values=values)
