"""Number-to-text for whole float64 arrays: repr's exact texts, in numpy.

joined(values) returns repr(float(x)) + "\\n" of every element, as one str,
and the end offset of each element's text in it. repr prints the shortest
decimal that reads back as the same double, and of several such, the one
closest to it (ties to an even last digit). Here that decimal is found by
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), as
in its reference implementation (DoubleToDecimal), on uint64 lanes:

- x = c * 2**q, with k = floor(log10(2**q)) (of 3/4 * 2**q where the
  spacing below x is half that above). Each of x and the two ends of its
  rounding interval, times 10**-k, is one product with g, a 126-bit
  approximation of 10**-k * 2**-r, as r_o' of the paper: each 64 x 64-bit
  product is formed from four 32 x 32-bit partial products.
- g = ceil(10**-k * 2**-r), from Python ints, for every k a double can
  need (617 values, built on first use): exact for -54 <= k <= 0, where
  that value is an integer, else floor(.) + 1, as in the reference table.
  r_o' keeps only the high 64 bits of g0 * cp, and cp < 2**59, so the
  reference table's 1 more at those k changes no decimal: an exact
  product's dropped bits are 0 or 2**63, to which cp carries nothing.
- Of the one-digit-shorter candidates 10*floor(s/10) and the one above it,
  and of s and s + 1, the first that alone lies in the interval is taken;
  if both of s and s + 1 do, the closer, and at a tie the even one.

The text is laid out as repr lays it out: fixed notation for a decimal
point position decpt (x = 0.d1d2... * 10**decpt) with -4 < decpt <= 16,
"1.0" and "-0.0" for integral values and zeros, and d.ddde-XX below. Each
value's 17 digits (left-aligned, zero-padded) come from 4-digit word tables
as cells of a uint8 row, beside the cells of its exponent and of the
constant characters. Every (decpt, number of digits, sign) has one row of
a layout table, which lists the source cell of each text cell, a cell that
holds 0 where the text is shorter. So a block's text is its gathered cells
with the 0 bytes deleted, decoded once.

The kernel claims +-0.0 and the finite x with 1e-99 <= |x| < 1e16: there
the exponent has two digits and is negative. Every other value (non-finite,
subnormal, tiny or huge) takes repr's own text. Values are rendered in
blocks of BLOCK, to bound the temporaries (about 190 bytes per value).
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

#: Values per kernel block, and rows per gather of a block's text cells.
BLOCK, GATHER = 4096, 1024

#: The kernel's range: +-0.0, and CLAIM_LOW <= |x| < CLAIM_HIGH.
CLAIM_LOW, CLAIM_HIGH = 1e-99, 1e16

#: decpt at and below which repr writes d.ddde-XX.
EXPONENT_BELOW = -4

K_MIN, K_MAX = -324, 292  # every decimal exponent k a double needs
MASK32, MASK63 = np.uint64(0xFFFF_FFFF), np.uint64((1 << 63) - 1)

# The cells of a value's source row: 20 digit cells (3 unused, then the 17
# digits), the two exponent digits, then the constant characters.
DIGIT, TENS, UNITS, POINT, E, MINUS, ZERO, SEP, BLANK = 3, 20, 21, 22, 23, 24, 25, 26, 27
SOURCE_CELLS = 28
#: Text cells per value: the longest text (-0.000 and 17 digits) and "\n".
WIDTH = 24


def _words(cells) -> np.ndarray:
    """Rows of 4 one-byte cells, each as one uint32 word."""
    return np.ascontiguousarray(cells, np.uint8).view(np.uint32).ravel()


def _digits(places: int, lead: int) -> np.ndarray:
    """Row n: the ASCII digits of n at the places 10**(places-1)..1, for n below
    10**places, with 0 in the cells above its leading digit, except those
    below place `lead`."""
    digits = np.indices((10,) * places, dtype=np.uint8).reshape(places, -1).T + ord("0")
    p = 10 ** np.arange(places - 1, -1, -1)
    return digits * ((np.arange(10**places)[:, None] >= p) | (p < lead))


def _flog2pow10(e):
    """floor(log2(10**e)), for |e| <= 5456721."""
    return (e * 913_124_641_741) >> 38


def _layout(decpt: int, n: int, negative: bool) -> list[int]:
    """The source cell of each of the WIDTH text cells of a value whose n
    significant digits are the digit cells from DIGIT on: repr's layout."""
    digits = [DIGIT + i for i in range(n)]
    cells = [MINUS] if negative else []
    if decpt <= EXPONENT_BELOW:
        cells += digits[:1] + ([POINT] + digits[1:] if n > 1 else []) + [E, MINUS, TENS, UNITS]
    elif decpt <= 0:
        cells += [ZERO, POINT] + [ZERO] * -decpt + digits
    elif decpt < n:
        cells += digits[:decpt] + [POINT] + digits[decpt:]
    else:  # integral: the digits, the zero cells after them up to the point, and ".0"
        cells += [DIGIT + i for i in range(decpt)] + [POINT, ZERO]
    return cells + [BLANK] * (WIDTH - 1 - len(cells)) + [SEP]


class _Tables(NamedTuple):
    g: tuple[np.ndarray, ...]  # g1, and the 32-bit halves of g1 and g0, per k - K_MIN
    digits4: np.ndarray  # the 4 ASCII digits of w < 10**4, as a word
    trailing_zeros: np.ndarray  # of w < 10**4 as 4 digits; 4 for w = 0
    exponent: np.ndarray  # per |e| <= 99, the word (tens, units, ".", "e")
    layout: np.ndarray  # per key, the source cell of each text cell
    length: np.ndarray  # per key, the text's length with its "\n"
    offsets: np.ndarray  # SOURCE_CELLS * row, for the rows of a block


@cache
def _tables() -> _Tables:
    """The kernel's tables, built on first use (about 250 KB)."""
    g = []
    for k in range(K_MIN, K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        den = 10 ** max(k, 0) << max(r, 0)
        g.append(-(-num // den))
    g = np.array([(x >> 63, x >> 95, (x >> 63) & 0xFFFF_FFFF, (x >> 32) & 0x7FFF_FFFF,
                   x & 0xFFFF_FFFF) for x in g], np.uint64)
    w = np.arange(10**4)
    trailing_zeros = sum((w % 10**i == 0) for i in range(1, 5)).astype(np.uint8)
    exponent = np.column_stack((_digits(2, lead=100), np.full((100, 2), [ord("."), ord("e")])))
    keys = [(decpt, n, negative) for decpt in range(EXPONENT_BELOW, 17)
            for n in range(1, 18) for negative in (False, True)]
    # The last row, for a lane outside the claim, holds only the "\n".
    rows = [_layout(*key) for key in keys] + [[BLANK] * (WIDTH - 1) + [SEP]]
    layout = np.array(rows, dtype=np.intp)
    return _Tables(
        g=tuple(np.ascontiguousarray(column) for column in g.T),
        digits4=_words(_digits(4, lead=10_000)),
        trailing_zeros=trailing_zeros,
        exponent=_words(exponent),
        layout=layout,
        length=(layout != BLANK).sum(axis=1),
        offsets=SOURCE_CELLS * np.arange(BLOCK)[:, None],
    )


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """floor(a * b / 2**64) of uint64 lanes, given by their 32-bit halves."""
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lh & MASK32) + (hl & MASK32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _rop(g, cp):
    """r_o'(g * cp): floor(g * cp / 2**127), with its last bit set where the
    bits below (as the paper keeps them) are not all 0."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & MASK32
    z = ((g1 * cp) >> 1) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    return (y1 + (z >> 63)) | (((z & MASK63) + MASK63) >> 63)


def _decimal(bits: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """(d, k): the shortest closest decimal d * 10**k of each positive normal
    double, given by its bits. Each temporary is dropped when last used."""
    q = (bits >> 52).astype(np.int64) - 1075
    c = bits & np.uint64((1 << 52) - 1)
    irregular = c == 0
    c |= np.uint64(1 << 52)
    # k = floor(log10(2**q)), or of 3/4 * 2**q at a power of two.
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    del q
    g = [column[k - K_MIN] for column in tables.g]
    out = c & np.uint64(1)
    c <<= np.uint64(2)  # cb
    vb = _rop(g, c << h)
    vbr = _rop(g, (c + np.uint64(2)) << h) - out
    c -= np.uint64(2)
    c += irregular
    vbl = _rop(g, c << h) + out
    del g, c, h, out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 + 10) << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    del vbl, vbr
    # Both of s and s + 1 inside: the closer; at a tie (vb = 4s + 2), the even one.
    mid = (s << 2) + 2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    del vb, mid
    s += up
    return np.where(upin != wpin, sp10 + wpin * np.uint64(10), s), k


def _block(x: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """joined's bytes, in pieces, and text lengths, for one block of float64
    values."""
    tables = _tables()
    magnitude = np.abs(x)
    zero = magnitude == 0
    claimed = zero | ((magnitude >= CLAIM_LOW) & (magnitude < CLAIM_HIGH))
    # Lanes outside the claim, and zeros, are worked as 1.0.
    d, k = _decimal(np.where(claimed & ~zero, magnitude, 1.0).view(np.uint64), tables)
    # 2**52 <= d < 10**17: its digits, left-aligned in 17 places.
    short = d < np.uint64(10**16)
    left = np.where(short, d * np.uint64(10), d)
    decpt = np.where(zero, 1, k + 17 - short)
    # The 17 places as the words w0 (one digit) .. w4 of 4 digits each.
    high, low = np.divmod(left, np.uint64(10**8))
    w0, rest = np.divmod(high.astype(np.uint32), np.uint32(10**8))
    w1, w2 = np.divmod(rest, np.uint32(10**4))
    w3, w4 = np.divmod(low.astype(np.uint32), np.uint32(10**4))
    # n: the digits up to the last that is not 0 (one for a zero).
    tz = tables.trailing_zeros
    blank = tz[w4] + (w4 == 0) * (tz[w3] + (w3 == 0) * (tz[w2] + (w2 == 0) * tz[w1]))
    n = np.where(zero, 1, 17 - blank)
    source = np.empty((len(x), SOURCE_CELLS // 4), np.uint32)
    source[:, 0] = tables.digits4[np.where(zero, 0, w0)]
    for i, word in enumerate((w1, w2, w3, w4), 1):
        source[:, i] = tables.digits4[word]
    source[:, 5] = tables.exponent[np.minimum(np.abs(decpt - 1), 99)]
    source[:, 6] = _CONSTANTS
    key = ((np.clip(decpt, EXPONENT_BELOW, 16) - EXPONENT_BELOW) * 17 + n - 1) * 2
    key = np.where(claimed, key + np.signbit(x), len(tables.layout) - 1)
    del magnitude, d, k, short, left, high, low, rest, w0, w1, w2, w3, w4, blank, decpt, n
    # Each text cell gathered from its source cell, GATHER rows at a time.
    cells = source.view(np.uint8).ravel()
    pieces = []
    for row in range(0, len(x), GATHER):
        index = np.take(tables.layout, key[row:row + GATHER], axis=0)
        index += tables.offsets[row:row + len(index)]
        pieces.append(np.take(cells, index, mode="clip").tobytes().translate(None, b"\0"))
    lengths = tables.length[key]
    misses = np.flatnonzero(~claimed).tolist()
    if misses:
        # A missed lane's text is only its "\n": put repr's text before it.
        text = b"".join(pieces)
        ends = np.cumsum(lengths).tolist()
        written = [repr(float(x[i])).encode("ascii") for i in misses]
        pieces, start = [], 0
        for i, own in zip(misses, written):
            pieces += [text[start:ends[i] - 1], own]
            start = ends[i] - 1
        pieces.append(text[start:])
        lengths[misses] += [len(own) for own in written]
    return pieces, lengths


_CONSTANTS = np.array([ord("-"), ord("0"), ord("\n"), 0], np.uint8).view(np.uint32)


def joined(values: np.ndarray) -> tuple[str, np.ndarray]:
    """repr(float(x)) + "\\n" of every element of a 1-d float array, as one
    str; and the end offset of each element's text (its "\\n" included)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    pieces, lengths = [], [np.zeros(0, np.int64)]
    for i in range(0, len(values), BLOCK):
        block_pieces, block_lengths = _block(values[i:i + BLOCK])
        pieces += block_pieces
        lengths.append(block_lengths)
    return b"".join(pieces).decode("ascii"), np.cumsum(np.concatenate(lengths))
