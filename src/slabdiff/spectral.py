"""Series solutions of the slab diffusion problem with zero-flux walls.

Three families share the cosine-series coefficients of the initial profile:

* parabolic: each mode decays as exp(-(2*m*pi)^2 * v);
* hyperbolic (telegraph): each mode solves
  eps*V'' + V' + (2*m*pi)^2 * V = 0 with V(0)=k_m, V'(0)=0, evaluated through
  real closed forms per damping class so the result is real by construction;
* two-timescale (WKB-type): a fast boundary-layer decay exp(-v/eps)
  superposed on the parabolic relaxation.

The families differ only in each mode's time factor T_m, and one blocked
evaluator sums all three, walking the modes in blocks, highest block first.
It takes one of three paths, chosen from the input alone.

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
rounded.

Contraction over the modes. Otherwise, on a long time row the mode sum is
contracted before time is expanded. The N times are cut into blocks of
S = max(BLOCK, isqrt(N)) samples; each time is its block's smallest time
(the anchor a) plus an offset. The distinct offsets of a uniform row are S
multiples of the step and their rounding variants, a few ulps of the time
apart, so offsets merge into groups: an offset joins the group before it
unless it lies more than tau = MERGE_PHASE/R past the group's smallest
member, its representative d, and keeps the residual e = offset - d,
exact, with 0 <= e <= tau. R is the fastest rate an offset table sees:
(2*M*pi)^2 for the parabolic family, also 1/eps for the two-timescale
family, and the top frequency omega or 1/(2*eps), the larger, for the
telegraph family. A uniform trace of 1201 times has 36 anchors and 34
representatives (76 anchors and 105 distinct offsets in blocks of 16
without merging). Each mode's time factor at v = a + d is a sum of
products of an anchor table and an offset table:

* parabolic: exp(-lam*a) * exp(-lam*d), lam = (2*m*pi)^2;
* telegraph, underdamped: cos(omega*a)*P(d) + sin(omega*a)*Q(d), with
  P = cos(omega*d) + r*sin(omega*d) and Q = r*cos(omega*d) - sin(omega*d),
  r = 1/(2*eps*omega); the decay exp(-v/(2*eps)), shared by every mode,
  multiplies the sum, and blocks where it is 0 throughout are dropped;
* two-timescale, eps > 0: k*e_s(a)*e_s(d) - fast*(e_s(a)*D(d) + D(a)*e_f(d))
  with D = e_s - e_f, which is k exactly at v = 0; e_f(d) is common to all
  modes, so the last term is summed over the modes first.

With k_m*cos(2*m*pi*u_j) folded into the anchor side, one matrix product
per block of modes, G[d, (a, j)] += sum_m B[m, d]*A[m, (a, j)], replaces
the (modes x times) table. When some residual is not 0 the offset tables'
closed-form derivatives (omega*Q and -omega*P; -lam*e_s; -lam*e_s + e_f/eps
for D) are appended to B, so the same product also gives dG/dd, and each
sample reads G + e*dG at its anchor and representative. The neglected
second-order term of each mode is at most (R*tau)^2 = MERGE_PHASE^2 = 1e-16
of |k_m| (of |k_m| + 2*|fast_m| for the two-timescale family). Rows whose
residuals are all 0 (no offsets merge: dyadic steps, repeated patterns, or
a subnormal two-timescale eps, where tau is 0) form no derivative columns.
The contraction is taken for an outer table whose anchors Q and
representatives D number at most half the N times and whose J positions
give J*Q*W <= BLOCK*N, W = D, or 2*D with derivative columns, so G is no
larger than one block of the direct path: a 1201-time table of up to 7
positions qualifies. The direct telegraph formula pays a cos and a
sin per mode and sample where the others pay an exp, so for the telegraph
family a table of fewer than BLOCK positions is judged as if it had one: a
1201-time table of up to 15 positions is contracted. A block of modes
holds max(BLOCK, BLOCK*N/(Q*J + W)) modes, so peak memory does not grow
with the truncation.

Direct. Everything else is evaluated per sample in blocks of BLOCK modes,
each block's time factors contracted with its cosine rows over the mode
axis (one matrix product when u and v form an outer table): rows of a few
times at off-lattice positions, rows whose offsets do not repeat, rows
holding a non-finite time, (u, v) pairs, and the overdamped and critical
telegraph modes (m < 1/(4*pi*sqrt(eps))) of a contracted row. The cosines
cos(2*m*pi*u) of a block are built by angle addition from
cos/sin(2*pi*m0*u) of the block's first mode and a shared table of
cos/sin(2*pi*j*u).

The time factors are the same code on every path, and on every path the
two-timescale family at eps = 0 is the parabolic evaluation, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import HALF_WIDTH, Grid1D, TimeGrid, slab_positions
from .errors import (
    DomainError,
    InvalidParameterError,
    ReferenceInvalidError,
    ResonantModeError,
)
from .profiles import GaussianProfile, SpectralCoefficients

#: Discriminant tolerance below which a mode is treated as critically damped;
#: the overdamped formula divides by mu2 - mu1 which vanishes there.
CRITICAL_DISC_TOL = 1e-12

#: |1 - eps*(2*m*pi)^2| below this is a resonant two-timescale mode.
RESONANCE_TOL = 1e-9

#: The wall-free reference requires the Gaussian support to stay this far
#: from the walls: 1/sqrt(sharpness) + sqrt(4*v) <= WALL_CLEARANCE.
WALL_CLEARANCE = 0.25

#: Modes per block of the direct series evaluation, and times per block of
#: the anchor/offset split of a long time row. It bounds the (modes x points)
#: temporaries, so peak memory does not grow with the truncation.
BLOCK = 16

#: In-block offsets within MERGE_PHASE/R of their group's first, R the
#: fastest rate of the contracted modes, share one offset-table column; the
#: first-order correction in the residual e <= MERGE_PHASE/R leaves out at
#: most MERGE_PHASE**2 of each mode's weight.
MERGE_PHASE = 1e-8

#: Decay factors exp(x) with x <= EXP_FLOOR (below 3.3e-308, at the edge of
#: the subnormal range that starts at x = -708.4) are taken as 0.
EXP_FLOOR = -708.0

SPECTRAL_MODELS = ("parabolic", "hyperbolic", "wkb")


def _check_v(v):
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise DomainError(f"v must be >= 0, got {v!r}")
    return v_arr


def _check_telegraph_eps(eps: float):
    if not (eps > 0):
        raise InvalidParameterError(f"eps must be > 0 for the telegraph model, got {eps!r}")


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

class _TimeSplit(NamedTuple):
    """A time row cut into blocks, each time written as anchor + offset + residual.

    anchors (B,) holds the smallest time of each kept block. The distinct
    in-block offsets v - anchor are merged into groups no wider than the
    merge tolerance; offsets holds each group's smallest member, its
    representative, inv (B, S) the group of every sample and residual
    (B, S) the sample's offset minus its representative, so that
    anchor + (representative + residual) is the time, bit for bit. Blocks
    whose decay is 0 throughout are not kept; columns places the kept
    samples in the row padded to whole blocks, and is None when every block
    is kept.
    """

    anchors: np.ndarray
    offsets: np.ndarray
    inv: np.ndarray
    residual: np.ndarray
    columns: np.ndarray | None
    size: int

    def place(self, blocks):
        """Values over the kept blocks, (B, S, J), as rows (N, J) over the time row."""
        rows = blocks.reshape(-1, blocks.shape[-1])
        if self.columns is not None:
            span = self.inv.shape[1]
            rows, kept = np.zeros((-(-self.size // span) * span, rows.shape[1])), rows
            rows[self.columns] = kept
        return rows[: self.size]


def _split_times(v, decay=None, positions: int = 1, tau: float = 0.0):
    """The anchor/offset split of the time row v, or None.

    The N times are cut into blocks of S = max(BLOCK, isqrt(N)), which
    about minimizes the anchors plus the distinct offsets of a uniform row.

    Offsets merge from the smallest, 0, up: an offset joins the group before
    it unless it lies more than tau past that group's first member, which
    is the group's representative. Every group but the first, {0, ...},
    starts above tau, so a representative is at least half of each member
    and member - representative is exact.

    None, for the direct formula, unless the kept anchors Q and the
    representatives D number at most half the N samples and the contracted
    table of positions * Q * D values, twice that when some residual is not
    0, is no larger than BLOCK * N. A row of fewer than BLOCK times never
    qualifies, and a non-finite time takes the direct formula so that it
    stays in its own sample. A block is dropped when decay == 0 at all its
    samples.
    """
    n = v.size
    if n < BLOCK or not np.all(np.isfinite(v)):
        return None
    span = max(BLOCK, math.isqrt(n))
    pad = -n % span
    blocks = np.pad(v, (0, pad), mode="edge").reshape(-1, span)
    live = np.ones(len(blocks), dtype=bool) if decay is None else np.any(
        np.pad(decay, (0, pad), mode="edge").reshape(-1, span) != 0, axis=1)
    kept = blocks[live]
    # The smallest time of a block is its anchor, so that no offset is
    # negative and no decay factor exp(-rate*d) exceeds 1.
    anchors = kept.min(axis=1)
    sample = kept - anchors[:, None]
    distinct, inv = np.unique(sample, return_inverse=True)
    # Start a group at each gap wider than tau, then, while some group is
    # wider than tau, at its first member more than tau past the group's
    # first: for rounding variants of a few nominal offsets one pass.
    first = np.diff(distinct, prepend=-np.inf) > tau
    while True:
        group = np.cumsum(first) - 1
        far = distinct - distinct[first][group] > tau
        if not far.any():
            break
        first |= far & ~np.r_[False, far[:-1]]
    offsets, inv = distinct[first], group[inv].reshape(kept.shape)
    residual = sample - offsets[inv]
    width = offsets.size * (2 if residual.any() else 1)
    if len(kept) + offsets.size > n / 2 or positions * len(kept) * width > BLOCK * n:
        return None
    columns = None if live.all() else (
        np.flatnonzero(live)[:, None] * span + np.arange(span)
    ).ravel()
    return _TimeSplit(anchors, offsets, inv, residual, columns, n)


def _fastest_rate(model: str, eps: float, terms: int) -> float:
    """The largest rate R an offset table of modes up to `terms` sees.

    The parabolic decay (2*M*pi)^2; for the two-timescale family with
    eps > 0 also 1/eps; for the telegraph family the top frequency omega
    and 1/(2*eps), since r*sin(omega*d) with r = 1/(2*eps*omega) grows at
    that rate near the critical modes.
    """
    if model == "hyperbolic":
        return max(float(_frequency(eps, _discriminant(eps, terms))[0]), 0.5 / eps)
    rate = (2.0 * math.pi * terms) ** 2
    return max(rate, 1.0 / eps) if model == "wkb" and eps > 0 else rate


def _discriminant(eps: float, m):
    """1 - (4*m*pi)^2*eps: > 0 overdamped, < 0 underdamped telegraph mode m."""
    return 1.0 - (4.0 * np.pi * m) ** 2 * eps


def _frequency(eps: float, disc):
    """Angular frequency omega of underdamped modes, and r = 1/(2*eps*omega)."""
    omega = np.sqrt(-disc) / (2.0 * eps)
    return omega, 1.0 / (2.0 * eps * omega)


def _telegraph_factor(eps: float, m, v, decay):
    """V_m(v)/k_m of the telegraph modes in column m at the times in v.

    m has shape (R, 1); v and decay = exp(-v/(2*eps)) have one row, or R
    rows (one time per mode). The damping class of each row follows from the
    sign of 1 - (4*m*pi)^2*eps: overdamped (two real decay exponents
    mu2 < mu1 < 0), critical, or underdamped (decay 1/(2*eps), angular
    frequency omega).
    """
    v = np.broadcast_to(v, (len(m), v.shape[1]))
    disc = _discriminant(eps, m)
    out = np.empty(v.shape)
    over = disc[:, 0] > CRITICAL_DISC_TOL
    under = disc[:, 0] < -CRITICAL_DISC_TOL
    crit = ~(over | under)
    if over.any():
        sq = np.sqrt(disc[over])
        # 1 - sq cancels for small eps; the rate is formed from the
        # equivalent product form instead.
        mu1 = -((4.0 * np.pi * m[over]) ** 2) / (2.0 * (1.0 + sq))
        mu2 = -(1.0 + sq) / (2.0 * eps)
        vo = v[over]
        out[over] = (mu2 * _exp(mu1 * vo) - mu1 * _exp(mu2 * vo)) / (mu2 - mu1)
    if under.any():
        omega, r = _frequency(eps, disc[under])
        phase = omega * v[under]
        # decay*(cos(phase) + r*sin(phase)), formed in place.
        wave = np.sin(phase)
        wave *= r
        wave += np.cos(phase, out=phase)
        # A decay row shared by every mode is not copied once per mode.
        wave *= decay if len(decay) == 1 else decay[under]
        out[under] = wave
    if crit.any():
        out[crit] = (decay if len(decay) == 1 else decay[crit]) * (1.0 + v[crit] / (2.0 * eps))
    return out


def hyperbolic_mode_factor(eps: float, m, v):
    """Normalized time factor V_m(v)/k_m of telegraph mode m, eps > 0.

    Equals 1 at v = 0 with zero slope; m and v broadcast together. All three
    damping classes are evaluated through real closed forms, so the result
    is real for every v >= 0.
    """
    _check_telegraph_eps(eps)
    m_arr, v_arr = np.broadcast_arrays(np.asarray(m, dtype=float), _check_v(v))
    m_col, v_col = m_arr.reshape(-1, 1), v_arr.reshape(-1, 1)
    out = _telegraph_factor(eps, m_col, v_col, _exp((-1.0 / (2.0 * eps)) * v_col))
    return _scalarize(out.reshape(m_arr.shape), m, v)


def _mode_cosines(u, rows: int):
    """A function of (first, count) giving cos(2*pi*m*u), (count, J), m = first..first+count-1.

    count <= rows. Built by angle addition from cos/sin(2*pi*first*u) and a
    table of cos/sin(2*pi*j*u), j < rows.
    """
    angle = (2.0 * np.pi * np.arange(rows, dtype=float))[:, None] * u
    cos_j, sin_j = np.cos(angle), np.sin(angle)

    def block(first: int, count: int):
        base = (2.0 * math.pi * first) * u
        return np.cos(base) * cos_j[:count] - np.sin(base) * sin_j[:count]

    return block


def _contracted(model, coefficients, eps, two_scale: bool, split: _TimeSplit, lo: int, u):
    """sum_m k_m T_m(v) cos(2*m*pi*u) over modes lo..M, as (N, J) rows.

    With v = a + d + e (anchor a, representative offset d, residual e) each
    mode's time factor is a sum of products anchor table(a) * offset
    table(d + e), and offset table(d + e) = table(d) + e*table'(d) to first
    order. The anchor side, times cos(2*m*pi*u), is contracted with the
    offset tables and, when some e is not 0, their closed-form derivatives
    over the modes of a block, G[d, q, j] += sum_m A[m, q, j] * B[m, d],
    and each sample reads G at its own representative plus e times the
    derivative rows: no (modes x times) table is formed. The telegraph
    family leaves out the shared decay exp(-v/(2*eps)).
    """
    a, d = split.anchors[None, :], split.offsets[None, :]
    slope = bool(split.residual.any())
    g = np.zeros(((1 + slope) * d.size, a.size, u.size))
    # A block's anchor-side table is no larger than a direct block.
    rows = max(BLOCK, BLOCK * split.size // (a.size * u.size + len(g)))
    cosines = _mode_cosines(u, rows)
    if two_scale:
        # e_f(a + d) = e_f(a)*e_f(d) is common to all modes: its term is
        # summed over the modes first and meets e_f(d) once, at the end.
        with np.errstate(over="ignore"):
            fast_a, fast_d = _exp(-a / eps), _exp(-d / eps)
        # e_f'(d) = -e_f(d)/eps. Offsets merge only where the merge tolerance,
        # at most MERGE_PHASE*eps, is not 0, so 1/eps is finite there.
        fast_slope = fast_d / eps if slope else None
        rank_one = np.zeros(g.shape[1:])
    k = coefficients.modes
    for stop in range(coefficients.truncation, lo - 1, -rows):
        start = max(lo, stop - rows + 1)
        m = np.arange(start, stop + 1, dtype=float)[:, None]
        kb = k[start - 1 : stop, None]
        c = cosines(start, len(m))
        if model == "hyperbolic":
            # cos(omega*(a + d)) + r*sin(omega*(a + d))
            #   = cos(omega*a)*P(d) + sin(omega*a)*Q(d),
            # with P' = omega*Q and Q' = -omega*P.
            omega, r = _frequency(eps, _discriminant(eps, m))
            cos_d, sin_d = np.cos(omega * d), np.sin(omega * d)
            anchor = (kb * np.cos(omega * a), kb * np.sin(omega * a))
            offset = (cos_d + r * sin_d, r * cos_d - sin_d)
            if slope:
                slopes = (omega * offset[1], -omega * offset[0])
        else:
            rate = -((2.0 * np.pi * m) ** 2)
            slow_a, slow_d = _exp(rate * a), _exp(rate * d)
            anchor, offset = (kb * slow_a,), (slow_d,)
            if slope:
                slopes = (rate * slow_d,)
            if two_scale:
                # e_s(v) - e_f(v) = e_s(a)*D(d) + D(a)*e_f(d), D = e_s - e_f:
                # both terms vanish at v = 0, which keeps k_m exact there.
                fb = _wkb_fast(eps, m, kb)
                anchor += (-fb * slow_a,)
                offset += (slow_d - fast_d,)
                if slope:
                    slopes += (rate * slow_d + fast_slope,)
                rank_one -= (fb * (slow_a - fast_a)).T @ c
        table = (np.stack(anchor)[..., None] * c[:, None, :]).reshape(-1, g[0].size)
        b = np.concatenate(offset)
        if slope:
            b = np.concatenate((b, np.concatenate(slopes)), axis=1)
        g += (b.T @ table).reshape(g.shape)
    if two_scale:
        g[: d.size] += fast_d[0][:, None, None] * rank_one
        if slope:
            g[d.size :] -= fast_slope[0][:, None, None] * rank_one
    q = np.arange(a.size)[:, None]
    values = g[split.inv, q]
    if slope:
        values += split.residual[..., None] * g[d.size + split.inv, q]
    return split.place(values)


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


def _folded(mode_terms, terms: int, period: int, index, size: int):
    """sum_m b_m(v) cos(2*m*pi*q/P) over modes 1..terms, as (size, J) rows, by one real FFT.

    cos(2*m*pi*q/P) depends on m only through m mod P, so the terms
    b_m = mode_terms(first, last) of the modes congruent mod P are summed
    into one row of a (P x times) fold table, highest modes first, and the
    real part of its rfft over P is the sum at every lattice position. A
    block holds max(BLOCK, min(32*BLOCK, BLOCK*P/size)) modes, so its terms
    never exceed BLOCK*max(P, size) values and peak memory does not grow
    with the truncation beyond 512 modes; a slice of up to 512 modes is one
    block.
    """
    fold = np.zeros((period, size))
    rows = max(BLOCK, min(32 * BLOCK, BLOCK * period // max(size, 1)))
    for stop in range(terms, 0, -rows):
        start = max(1, stop - rows + 1)
        t = mode_terms(start, stop)
        # The modes low..top between two multiples of P fill contiguous rows.
        top = stop
        while top >= start:
            low = max(start, top - top % period)
            fold[low % period : top % period + 1] += t[low - start : top - start + 1]
            top = low - 1
    return np.fft.rfft(fold, axis=0).real[index].T


def _series(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) for one family; u and v broadcast.

    T_m is the family's time factor. An outer table (u of shape (1, Nu), v
    of shape (Nv, 1)) or a scalar u or v is summed by one real FFT on a
    lattice of positions, contracted over the modes on a long time row, or
    contracted by matrix products; any other broadcast is evaluated point by
    point.
    """
    terms = coefficients.truncation
    if model == "hyperbolic":
        _check_telegraph_eps(eps)
    elif model == "wkb":
        _check_wkb_eps(eps, terms)
    # exp(-v/eps) is never formed for eps = 0, where the fast weights vanish.
    two_scale = model == "wkb" and eps > 0
    u_arr = slab_positions(u)
    v_arr = _check_v(v)
    shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
    outer = u_arr.size == 1 or v_arr.size == 1 or (
        u_arr.shape == (1, u_arr.size) and v_arr.shape == (v_arr.size, 1)
    )
    if outer:
        u_flat, v_flat = u_arr.ravel(), v_arr.ravel()
    else:
        u_flat = np.broadcast_to(u_arr, shape).ravel()
        v_flat = np.broadcast_to(v_arr, shape).ravel()
    v_row = v_flat[None, :]

    # Time-only factors shared by every mode.
    decay = None
    if model == "hyperbolic":
        decay = _exp((-1.0 / (2.0 * eps)) * v_row)
    if two_scale:
        # -v/eps overflows to -inf for a subnormal eps; exp(-inf) = 0 is the limit.
        with np.errstate(over="ignore"):
            e_fast = _exp(-v_row / eps)

    k = coefficients.modes

    def mode_terms(first: int, last: int):
        """k_m T_m(v) of modes first..last at every time, (count, N).

        Formed in place where it can: each block-sized temporary is fresh
        memory from the allocator, and its page faults cost as much as the
        arithmetic on a long time row.
        """
        m = np.arange(first, last + 1, dtype=float)[:, None]
        kb = k[first - 1 : last, None]
        if model == "hyperbolic":
            t = _telegraph_factor(eps, m, v_row, decay)
            t *= kb
            return t
        t = _exp(-((2.0 * np.pi * m) ** 2) * v_row)
        if not two_scale:
            t *= kb
            return t
        # k_m*e_s - fast_m*(e_s - e_f) is k_m exactly at v = 0.
        gap = t - e_fast
        gap *= _wkb_fast(eps, m, kb)
        t *= kb
        t -= gap
        return t

    lattice = _lattice(u_flat) if outer else None
    if lattice is not None:
        total = _folded(mode_terms, terms, *lattice, v_flat.size)
        return _scalarize((coefficients.mean + total).reshape(shape), u, v)

    # Modes lo..M are contracted over the anchor/offset split of a long time
    # row; modes 1..lo-1 (all modes without a split, the overdamped and
    # critical telegraph modes with one) are evaluated per sample. The direct
    # telegraph formula pays a cos and a sin per mode and sample, so tables
    # of fewer than BLOCK positions are split as if they had one.
    lo = 1
    if outer and model == "hyperbolic":
        # The discriminant falls with m: the modes that are not underdamped
        # are the lowest ones.
        disc = _discriminant(eps, np.arange(1, terms + 1, dtype=float))
        lo += int(np.count_nonzero(disc >= -CRITICAL_DISC_TOL))
    split = None
    if outer and lo <= terms:
        positions = 1 if model == "hyperbolic" and u_flat.size < BLOCK else u_flat.size
        split = _split_times(v_flat, None if decay is None else decay[0], positions,
                             MERGE_PHASE / _fastest_rate(model, eps, terms))
    if split is None:
        lo = terms + 1

    total = np.zeros((v_flat.size, u_flat.size) if outer else u_flat.size)
    # A split that keeps no block has zero decay at every time.
    if lo <= terms and split.anchors.size:
        total += _contracted(model, coefficients, eps, two_scale, split, lo, u_flat)
        if decay is not None:
            total *= decay[0][:, None]
    cosines = _mode_cosines(u_flat, BLOCK)
    for first in range(BLOCK * ((lo - 2) // BLOCK) + 1, 0, -BLOCK):
        last = min(first - 1 + BLOCK, lo - 1)
        t = mode_terms(first, last)
        c = cosines(first, len(t))
        total += t.T @ c if outer else np.einsum("jn,jn->n", t, c)
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

@dataclass(frozen=True)
class WkbCoefficients:
    """Mode weights of the two-timescale approximation.

    fast[m-1] multiplies the boundary-layer decay exp(-v/eps) and slow[m-1]
    the parabolic decay exp(-(2*m*pi)^2 v); their sum reproduces k_m, which
    keeps the v = 0 reconstruction identical to the other families.
    """

    fast: np.ndarray
    slow: np.ndarray

    def __post_init__(self):
        fast = np.asarray(self.fast, dtype=float)
        slow = np.asarray(self.slow, dtype=float)
        if fast.shape != slow.shape or fast.ndim != 1:
            raise InvalidParameterError("fast and slow must be 1D arrays of equal length")
        object.__setattr__(self, "fast", fast)
        object.__setattr__(self, "slow", slow)


def _mode_ratios(eps: float, m):
    """q_m = eps*(2*m*pi)^2 of the modes m."""
    return eps * (2.0 * math.pi * m) ** 2


def _check_wkb_eps(eps: float, terms: int):
    """Raise unless eps >= 0 and no mode m <= terms is resonant, in O(1).

    q_m rises with m, so only the modes next to 1/(2*pi*sqrt(eps)) can come
    within RESONANCE_TOL of 1.

    Raises:
        InvalidParameterError: eps < 0 or NaN.
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m <= terms,
            where the two-timescale closed form is singular.
    """
    if not (eps >= 0):
        raise InvalidParameterError(f"eps must be >= 0, got {eps!r}")
    near = math.floor(1.0 / (2.0 * math.pi * math.sqrt(eps))) if eps > 0 else math.inf
    if near > terms + 1:
        return
    m = np.arange(max(1, near - 1), min(terms, near + 2) + 1, dtype=float)
    resonant = np.flatnonzero(np.abs(1.0 - _mode_ratios(eps, m)) < RESONANCE_TOL)
    if resonant.size:
        raise ResonantModeError(int(m[resonant[0]]), eps)


def wkb_mode_ratios(eps: float, terms: int) -> np.ndarray:
    """q_m = eps*(2*m*pi)^2 for m = 1..terms.

    Raises:
        InvalidParameterError: eps < 0 or NaN.
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m, where the
            two-timescale closed form is singular.
    """
    _check_wkb_eps(eps, terms)
    return _mode_ratios(eps, np.arange(1, terms + 1, dtype=float))


def _wkb_fast(eps: float, m, k):
    """Fast weights -q_m/(1 - q_m)*k_m of the modes m with coefficients k."""
    q = _mode_ratios(eps, m)
    return -q / (1.0 - q) * k


def wkb_coefficients(coefficients: SpectralCoefficients, eps: float) -> WkbCoefficients:
    """Split k_m into fast/slow weights:

        fast_m = -eps*(2*m*pi)^2 / (1 - eps*(2*m*pi)^2) * k_m
        slow_m = k_m / (1 - eps*(2*m*pi)^2)

    Raises:
        InvalidParameterError: eps < 0 or NaN.
        ResonantModeError: eps*(2*m*pi)^2 is within 1e-9 of 1 for some
            retained m; the closed form is singular there and silently
            dropping the mode would break the v = 0 reconstruction.
    """
    q = wkb_mode_ratios(eps, coefficients.truncation)
    k = coefficients.modes
    return WkbCoefficients(
        fast=_wkb_fast(eps, np.arange(1, q.size + 1, dtype=float), k), slow=k / (1.0 - q))


def wkb_density(coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the two-timescale approximation at (u, v).

    Each mode contributes k_m*e_s - fast_m*(e_s - e_f) with
    e_s = exp(-(2*m*pi)^2 v) and e_f = exp(-v/eps), which equals k_m at
    v = 0. For eps = 0 the fast weights vanish, e_f is never formed and the
    result coincides with parabolic_density exactly.
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


# ---------------------------------------------------------------------------
# Wall-free short-time reference
# ---------------------------------------------------------------------------

def free_space_reference(profile: GaussianProfile, v: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact evolution of the Gaussian profile with the walls removed.

    Diffusing a Gaussian adds 4*v to the squared-width parameter:
    1/b' = 1/b + 4*v. Valid only while the support stays clear of the walls
    (1/sqrt(b) + sqrt(4*v) <= 1/4); used as a short-time oracle for the
    parabolic series, never as a production solution.

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
# Sampled results
# ---------------------------------------------------------------------------

def _check_samples(sampled, count: int, axis: str):
    """Store sampled.values as a finite float array of `count` samples along `axis`."""
    vals = np.asarray(sampled.values, dtype=float)
    object.__setattr__(sampled, "values", vals)
    if vals.shape != (count,):
        raise InvalidParameterError(f"values shape {vals.shape} does not match {axis}")
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError("values must be finite")


@dataclass(frozen=True)
class FieldSlice:
    """Density sampled over a spatial grid at one time."""

    grid: Grid1D
    v: float
    values: np.ndarray
    model_tag: str

    def __post_init__(self):
        _check_samples(self, len(self.grid), f"grid of {len(self.grid)} points")

    def mass(self) -> float:
        """Trapezoid integral of the slice over its grid."""
        return float(np.trapezoid(self.values, self.grid.points))


@dataclass(frozen=True)
class TimeTrace:
    """Density sampled over time at one spatial point."""

    u: float
    times: TimeGrid
    values: np.ndarray
    model_tag: str

    def __post_init__(self):
        _check_samples(self, len(self.times), f"{len(self.times)} times")


def field_slice(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    grid: Grid1D,
    v: float,
) -> FieldSlice:
    """Sample one spectral family over a grid at time v."""
    values = family_density(model, coefficients, eps, grid.points, v)
    return FieldSlice(grid=grid, v=float(v), values=values, model_tag=model)


def time_trace(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    u: float,
    times: TimeGrid,
) -> TimeTrace:
    """Sample one spectral family over a time grid at position u."""
    values = family_density(model, coefficients, eps, u, times.points)
    return TimeTrace(u=float(u), times=times, values=values, model_tag=model)
