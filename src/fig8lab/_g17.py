"""Exact "%.17g" formatting of float64 arrays into fixed-width byte cells.

A double x with 1e-4 <= |x| < 1e16 prints under "%.17g" in fixed notation:
its 17 correctly rounded significant digits D in [10^16, 10^17) and decimal
exponent E in [-4, 15] give the digits, the '.', the leading "0.000" and the
stripped trailing zeros of the fraction.  D comes from one exact product:
  - E comes from log10, corrected wherever the floor of the scaled value
    falls outside [10^16, 10^17);
  - Dekker's two-product gives |x| 10^(16-E) (10^k, k <= 22, is an exact
    double) as p + err exactly: p is the rounded product and err its
    rounding error, from Veltkamp's 26-bit halves of both factors;
  - p >= 10^16 > 2^53 is an even integer, so p + floor(err) is the exact
    floor and D = p + rint(err) rounds half to even, as D's parity is
    rint's; the exponent check reads the floor, as D may round up to 10^17
    at the right E (below 2^53 the floor may come out low, but under 10^16);
  - D splits into a lead digit and four 4-digit chunks, each looked up in a
    10,000-row digit table, whose trailing-zero counts give %g's stripping.
One gather from a table of source columns per (E, stripped zeros, sign) then
lays out every cell.  Every other value goes through Python's "%.17g", which
stays the reference: NaN, +-inf, +-0, |x| < 1e-4 (subnormals included) and
|x| >= 1e16.  So a cell is byte-identical to "%.17g" % x either way.

The tables are built here, at import, by numpy arithmetic: built inside a
call they would outlive it and add to a caller's traced peak.
"""

from __future__ import annotations

import numpy as np

# the longest "%.17g": "-1.2345678901234567e-308"
WIDTH = 24

_TEN4, _TEN8, _TEN16, _TEN17 = (np.int64(10 ** k) for k in (4, 8, 16, 17))
# 10^k as exact doubles, k = 0..22, for the guessed exponents E = 16 - k
_POW10 = np.array([float(10 ** k) for k in range(23)])

# ASCII digits of each 4-digit chunk 0000..9999 as one native uint32, and
# its trailing-zero count (4 for 0)
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_CHUNK_WORDS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
_CHUNK_WORDS[..., 0] = _DIGITS[:, None, None, None]
_CHUNK_WORDS[..., 1] = _DIGITS[:, None, None]
_CHUNK_WORDS[..., 2] = _DIGITS[:, None]
_CHUNK_WORDS[..., 3] = _DIGITS
_CHUNK_WORDS = _CHUNK_WORDS.view(np.uint32).ravel()
del _DIGITS
_CHUNK_ZEROS = np.zeros(10_000, dtype=np.int8)
for _step in (10, 100, 1000, 10_000):
    _CHUNK_ZEROS[::_step] += 1
del _step

# A cell's 24 source columns: the digits d1..d16 (four chunk words), d0,
# then '.', '0', '-' and NUL padding.
_SOURCE = 24
_LEAD, _POINT, _ZERO, _MINUS, _PAD = 16, 17, 18, 19, 20
_PUNCT = np.array([ord("."), ord("0"), ord("-"), 0, 0, 0, 0], dtype=np.uint8)


def _layout_table() -> np.ndarray:
    """Source columns of each output byte, per (E + 4, stripped zeros t, sign).

    Read the digits as V = "0000" d0..d16.  The integer part is V[4..4+E]
    for E >= 0 and the single '0' V[4+E] for E < 0; the kept fraction is the
    next max(0, 16 - E - t) entries of V, after a '.' if there are any.  A
    negative cell is '-' and then the positive one.
    """
    e = np.arange(-4, 17)[:, None, None]
    frac = np.maximum(0, 16 - e - np.arange(17)[:, None])
    whole = np.where(e >= 0, e + 1, 1)
    j = np.arange(WIDTH - 1)
    v = np.minimum(e, 0) + 4 + j - (j > whole)
    digit = np.where(v < 4, _ZERO, (v - 5) % 17)    # d0 sits in column 16
    plain = np.where((j < whole) | ((whole < j) & (j <= whole + frac)), digit,
                     np.where((j == whole) & (frac > 0), _POINT, _PAD))
    table = np.full((21, 17, 2, WIDTH), _PAD, dtype=np.int8)
    table[:, :, 0, :-1] = plain
    table[:, :, 1, 0] = _MINUS
    table[:, :, 1, 1:] = plain
    return table.reshape(-1, WIDTH)


_LAYOUT = _layout_table()


def text_cells(texts) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded uint8 array, as wide as the longest."""
    width = max(map(len, texts))
    joined = "".join(text.ljust(width, "\0") for text in texts)
    return np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(len(texts), width)


def _scaled(a, e):
    """floor(a 10^(16 - e)) and a 10^(16 - e) rounded half to even, exact from 2^53 up."""
    b = _POW10.take(16 - e)
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b       # Veltkamp's split, 2^27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    whole = p.astype(np.int64)
    return whole + np.floor(err).astype(np.int64), whole + np.rint(err).astype(np.int64)


def format_cells(values: np.ndarray) -> np.ndarray:
    """The (n, WIDTH) NUL-padded uint8 cells of "%.17g" % v for a flat float64 array."""
    a = np.abs(values)
    with np.errstate(invalid="ignore"):
        fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0      # a placeholder, so that every lane's arithmetic is defined
    e = np.floor(np.log10(a)).astype(np.int64)
    floor, digits = _scaled(a, e)
    # log10 puts e off by one at most, next to a power of ten
    wrong = fast & ((floor < _TEN16) | (floor >= _TEN17))
    if wrong.any():
        at = np.flatnonzero(wrong)
        e[at] += np.where(floor[at] >= _TEN17, 1, -1)
        floor[at], digits[at] = _scaled(a[at], e[at])
    # no double in [1e-4, 1e16) rounds up to the next power of ten, but a
    # cell whose digits left [10^16, 10^17) would go to Python all the same
    fast &= (digits >= _TEN16) & (digits < _TEN17)

    n = values.size
    src = np.empty((n, _SOURCE), dtype=np.uint8)
    src[:, _POINT:] = _PUNCT
    lead, rest = np.divmod(digits, _TEN16)
    src[:, _LEAD] = lead + ord("0")
    words = src.view(np.uint32)
    zeros = np.zeros(n, dtype=np.int8)
    high, low = np.divmod(rest, _TEN8)
    for col, chunk in enumerate((*np.divmod(high, _TEN4), *np.divmod(low, _TEN4))):
        words[:, col] = _CHUNK_WORDS.take(chunk)
        z = _CHUNK_ZEROS.take(chunk)
        zeros = np.where(z == 4, zeros + 4, z)
    code = ((np.where(fast, e, 0) + 4) * 17 + zeros) * 2 + np.signbit(values)
    at = _LAYOUT.take(code, axis=0) + np.arange(0, n * _SOURCE, _SOURCE, dtype=np.int32)[:, None]
    cells = src.ravel().take(at)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = 0
        texts = text_cells(["%.17g" % v for v in values[slow].tolist()])
        cells[slow, :texts.shape[1]] = texts
    return cells
