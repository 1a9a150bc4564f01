"""Decimal text of float64 columns, digit for digit as "%.16e" % x and float.__repr__ give it.

The CLI table writer's cells. ``csv_cells(x, seps)`` and ``json_cells(x,
seps)`` return one uint8 row per value of x, its column's separator and then
the value's text, with NUL in the bytes a row does not use; the writer
deletes them. The digits come from one vectorised kernel. The rare value it
cannot certify is spelt by the standard library, so every cell is the
standard library's text.

Kernel. For a finite nonzero x, split |x| = m 2**e with 1/2 <= m < 1
(``np.frexp``; exact, subnormals included), estimate k = floor(log10 |x|)
and form y = |x| 10**(16 - k), which lies in [1e16, 1e17) when k is right.
10**p is held as (h + l) 2**E with 1 <= h < 2, h the double nearest to
10**p 2**-E and l the double nearest to the rest, both from exact integers
(``_powers``, built on first use). Then

    m h = ph + pl exactly (Dekker's TwoProduct, halves split by 2**27 + 1),
    s = fl(pl + fl(m l)),
    y ~ Y = (ph + s) 2**(e + E).

|10**p 2**-E - h - l| <= 2**-106, |fl(m l) - m l| <= 2**-106 and the sum
that forms s errs by at most 2**-105, so |(ph + s) - m 10**p 2**-E| <=
2**-104. Since m 10**p 2**-E >= 1/2 and y < 2**57, 2**(e + E) <= 2**57 and

    |Y - y| <= 2**-47.

ph 2**(e + E) >= 2**53 is an integer, so F = floor(Y) and frac = Y - F are
exact in int64 and float64. Where F falls outside [1e16, 1e17), k moves by
one and y is formed again; the estimate is never off by more. For k in
[-6, 16], 10**(16 - k) is a double, l = 0 and Y = y exactly.

Certificate. A rounding decision is taken only when the quantity it tests is
more than _MARGIN = 2**-30 from its threshold, or when Y is exact; what it
compares is known to within 2**-44, so every decision taken is right. A
value with a decision inside the margin is declined and goes to the
standard library.

* "%.16e": the significand is F or F + 1 as frac is below or above 1/2,
  ties to even where Y is exact (a result of 1e17 carries into k + 1).
  Declined: |frac - 1/2| <= _MARGIN where Y is not exact, which holds the
  ties there, such as 2**-25 = 2.98023223876953125e-08.
* repr: the shortest decimal that reads back as x, the nearest to x among
  those. A decimal reads back as x when it lies strictly inside x's rounding
  interval, which for a normal x is x - g_lo .. x + g_hi with g_hi = ulp(x)/2
  = y 2**-54 / m in units of y, so 0.555 < g_hi < 11.2, and g_lo = g_hi but
  for a power of two, where it is g_hi / 2. The candidates are the
  multiples of 10**j just below and just above y, for j = 2, 1, 0 in that
  order. The interval holds at most one multiple of 100, and when it holds
  one, that one's trailing zeros give the length; otherwise the nearer of
  the multiples of 10 within it is taken, and otherwise the nearer integer,
  which always lies within it. Declined: a distance within _MARGIN of its
  gap (unless another candidate, certainly within and nearer, decides), two
  multiples of 10 within it and within _MARGIN of equidistant, the integer
  case as for "%.16e", subnormals and the least normal double (whose
  neighbours are not as above).

Zeros are spelt directly; NaN and +-inf always go to the standard library.
"""

from __future__ import annotations

import functools
import json

import numpy as np

# Bytes per JSON cell: sign, 17 digits (or "0.000"), ".0", 17 digits, "e-ddd".
_JSON_WIDTH = 42

_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1
_TINY = 2.2250738585072014e-308  # the least normal double
_LO, _HI = 10**16, 10**17
_MODULI = np.array([[100.0], [10.0]])
# 10**p for p = 16 - k, k in [-325, 309]: one step past the extreme exponents either way.
_P_MIN, _P_MAX = 16 - 309, 16 + 325
# k of every row of the frame tables: the range above, one more for a carry.
_K_MIN, _K_MAX = -325, 310
_K_ROWS = _K_MAX - _K_MIN + 1


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """Rows h, h's high half, h's low half and l, and E, of 10**p = (h + l) 2**E, 1 <= h < 2, by p - _P_MIN."""
    rows, exps = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            num, den = 10**p, 1 << (10**p).bit_length() - 1
            exp = den.bit_length() - 1
        else:
            bits = (10**-p).bit_length()  # 2**-bits < 10**p < 2**(1 - bits)
            num, den, exp = 1 << bits, 10**-p, -bits
        h = num / den  # int / int is correctly rounded
        h_num, h_den = h.as_integer_ratio()
        c = _SPLIT * h
        hh = c - (c - h)
        rows.append((h, hh, h - hh, (num * h_den - h_num * den) / (den * h_den)))
        exps.append(exp)
    return np.array(rows).T.copy(), np.array(exps, dtype=np.int32)


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(Y) in int64 and Y - floor(Y), Y within 2**-47 of m 2**e 10**(16 - k) where that is below 1e17."""
    table, exps = _powers()
    row = (16 - _P_MIN) - k
    h, hh, hl, l = np.take(table, row, axis=1)
    c = _SPLIT * m
    mh = c - m
    np.subtract(c, mh, out=mh)
    ml = np.subtract(m, mh, out=c)
    # pl = ((mh hh - ph) + mh hl + ml hh) + ml hl + m l, in that order.
    ph = m * h
    pl = mh * hh
    pl -= ph
    pl += np.multiply(mh, hl, out=mh)
    pl += np.multiply(ml, hh, out=hh)
    pl += np.multiply(ml, hl, out=hl)
    pl += np.multiply(m, l, out=l)
    scale = np.take(exps, row)
    scale += e
    frac = np.ldexp(pl, scale, out=pl)
    whole = np.floor(frac)
    frac -= whole
    F = np.ldexp(ph, scale, out=ph).astype(np.int64)
    F += whole.astype(np.int64)
    return F, frac


def _decompose(x: np.ndarray):
    """(F, frac, k, m, finite, zero) of |x|: y = |x| 10**(16 - k) in [1e16, 1e17), F = floor(y), m from frexp.

    Entries that are zero or not finite get F = frac = k = 0 and m = 1/2 and
    are flagged; `finite` also fails where k could not be brought into range.
    """
    ax = np.abs(x)
    finite = ax < np.inf  # NaN fails
    zero = ax == 0.0
    special = not finite.all() or zero.any()
    if special:
        blank = ~finite | zero
        ax[blank] = 1.0
    m, e = np.frexp(ax)
    k = np.log10(ax, out=ax)
    k = np.floor(k, out=k).astype(np.int64)
    F, frac = _scaled(m, e, k)
    again = np.flatnonzero((F < _LO) | (F >= _HI))
    if again.size:
        k[again] += np.where(F[again] < _LO, -1, 1)
        F[again], frac[again] = _scaled(m[again], e[again], k[again])
        finite &= (F >= _LO) & (F < _HI)
        blank = ~finite | zero
        special = True
    if special:
        F[blank], frac[blank], k[blank], m[blank] = 0, 0.0, 0, 0.5
    return F, frac, k, m, finite, zero


def _round_up(F: np.ndarray, frac: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether the integer nearest to y = F + frac, ties to even, is F + 1; where that is certain.

    For k in [-6, 16], 10**(16 - k) is a double, l = 0 and Y = y exactly, so
    a tie is a tie; elsewhere frac must clear 1/2 by _MARGIN.
    """
    up = frac > 0.5
    half = np.abs(frac - 0.5) <= _MARGIN
    if not half.any():
        return up, ~half
    up |= (frac == 0.5) & (F & 1 == 1)
    return up, ~half | ((k >= -6) & (k <= 16))


def digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, ok): "%.16e" % |x| is D's 17 digits, the point after the first, then e and k.

    D is in [1e16, 1e17), or 0 for a zero. Where ok is False (NaN, +-inf and
    the values the certificate declines) D and k mean nothing.
    """
    F, frac, k, _, finite, _ = _decompose(x)
    up, certain = _round_up(F, frac, k)
    D = F + up
    _carry(D, k)
    return D, k, finite & certain


def _carry(D: np.ndarray, k: np.ndarray) -> None:
    """Write a D of 1e17 as 1e16 with k one up."""
    carry = D == _HI
    if carry.any():
        D[carry] = _LO
        k += carry


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, ok): repr(|x|) has the digits of D without its trailing zeros, and exponent k.

    D is in [1e16, 1e17), or 0 for a zero; ok is False where D and k mean
    nothing: NaN, +-inf, subnormals, the least normal double and declined values.
    """
    F, frac, k, m, finite, zero = _decompose(x)
    # ulp(x)/2 in units of y is y 2**-54 / m, here within 2**-49 of it; below a power of two, half that.
    above_gap = F.astype(np.float64) * (2.0**-54) / m
    below_gap = above_gap.copy()
    power = m == 0.5
    if power.any():
        below_gap[power] *= 0.5
    ok = finite & (np.abs(x) > _TINY)
    # Multiples of 100, then of 10, within the interval (of width < 17, so it
    # holds at most one multiple of 100): their distances below and above y.
    r100 = (F - F // 100 * 100).astype(np.float64)
    r10 = r100 - 10.0 * np.floor(r100 / 10.0)
    rem = np.stack([r100, r10])
    below = rem + frac
    above = _MODULI - below
    down, up = below < below_gap, above < above_gap
    near100, near10 = down[0] | up[0], ~(down[0] | up[0]) & (down[1] | up[1])
    # Of two multiples of 10 within it, the nearer: lean > 0 where the one above is.
    lean = below[1] - above[1]
    up[1] &= ~down[1] | (lean > 0.0)
    step = up * _MODULI - rem
    # Otherwise the nearer integer, within 1/2 < 0.555 < either gap.
    last, certain = _round_up(F, frac, k)
    D = F + np.where(near100, step[0], np.where(near10, step[1], last)).astype(np.int64)
    ok &= near100 | near10 | certain
    # Certain where no distance lies within _MARGIN of its gap, but for a
    # multiple of 10 that the other, certainly within and nearer, outranks;
    # and where two multiples of 10 within are not within _MARGIN of equidistant.
    sure_down = np.abs(below - below_gap) > _MARGIN
    sure_up = np.abs(above - above_gap) > _MARGIN
    if not (sure_down.all() and sure_up.all() and (np.abs(lean) > _MARGIN).all()):
        both = down[1] & (above[1] < above_gap)
        fine_down = sure_down[1] | (up[1] & sure_up[1] & (lean > _MARGIN))
        fine_up = sure_up[1] | (down[1] & sure_down[1] & (lean < -_MARGIN))
        ok &= sure_down[0] & sure_up[0]
        ok &= near100 | (fine_down & fine_up & ~(both & (np.abs(lean) <= _MARGIN)))
    _carry(D, k)
    if zero.any():
        D[zero] = 0
        ok |= zero
    return D, k, ok


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII of 0..9999 as four digits, one uint32 each; then again with trailing zeros as NUL."""
    n = np.arange(10000)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + ord("0")
    stripped = chars.copy()
    trailing = np.ones(len(n), dtype=bool)
    for col in range(3, -1, -1):
        trailing &= chars[:, col] == ord("0")
        stripped[trailing, col] = 0
    return np.concatenate([chars, stripped]).view(np.uint32).ravel()


def _put(out: np.ndarray, at: int, chars: np.ndarray) -> None:
    """out[:, at : at + w] = chars, an (n, w) uint8 array, copied as n items of w bytes."""
    width = chars.shape[1]
    out[:, at : at + width].view(f"V{width}")[...] = chars.view(f"V{width}")


def _digit_chars(D: np.ndarray, strip: bool) -> np.ndarray:
    """The 17 ASCII digits of each D < 1e17 as an (n, 20) uint8 array, after three leading "0"s.

    With strip, D's trailing zeros are NUL, and a zero D is all NUL.
    """
    top = D // 10**16
    rest = D - top * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    hi_hi, lo_hi = hi // 10**4, lo // 10**4
    groups = [top, hi_hi, hi - hi_hi * 10**4, lo_hi, lo - lo_hi * 10**4]  # base 10**4
    if strip:
        # A group takes the stripped spelling where every group after it is zero.
        zeros_after = np.ones(len(D), dtype=bool)
        for i in range(4, -1, -1):
            group = groups[i]
            groups[i] = group + zeros_after * 10000
            zeros_after &= group == 0
    return _quads()[np.stack(groups, axis=1)].view(np.uint8)


def _fallback(out: np.ndarray, x: np.ndarray, ok: np.ndarray, texts: list[bytes]) -> None:
    """Overwrite the cells of out (a view of their columns) where ok fails with texts, NUL-padded."""
    for i, text in zip(np.flatnonzero(~ok), texts):
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)


Separators = tuple[bytes, ...]


def _framed(cells: np.ndarray, seps: Separators) -> tuple[np.ndarray, int]:
    """Cell frames after each separator: one block of rows per separator; the cell's offset.

    Separators are NUL-padded on the left to one width.
    """
    pre = max(map(len, seps))
    out = np.zeros((len(seps), len(cells), pre + cells.shape[1]), dtype=np.uint8)
    for framed, sep in zip(out, seps):
        framed[:, pre - len(sep) : pre] = np.frombuffer(sep, dtype=np.uint8)
        framed[:, pre:] = cells
    return out.reshape(-1, out.shape[2]), pre


@functools.cache
def _blocks(seps: Separators) -> tuple[Separators, np.ndarray]:
    """The distinct separators of seps, sorted, and the first frame row of each column's block among theirs."""
    distinct = tuple(sorted(set(seps)))
    return distinct, np.array([distinct.index(sep) for sep in seps]) * (2 * _K_ROWS)


@functools.cache
def _csv_frames(seps: Separators, signed: int, width: int) -> tuple[np.ndarray, int]:
    """Per separator, sign and k, the bytes of a CSV unit that do not depend on D; the cell's offset.

    Row k - _K_MIN + _K_ROWS (sign + 2 j) holds separator seps[j], the sign,
    the point and the exponent, NUL where a digit goes. Without signed
    there is no sign byte; a width of 22 + signed leaves out the third
    exponent digit, and a wider one pads the cell with NUL.
    """
    k = np.arange(_K_MIN, _K_MAX + 1)
    cells = np.zeros((2, len(k), 24), dtype=np.uint8)
    cells[1, :, 0] = ord("-")
    cells[:, :, 2] = ord(".")
    cells[:, :, 19] = ord("e")
    cells[:, :, 20] = np.where(k < 0, ord("-"), ord("+"))
    for col, place in ((21, 100), (22, 10), (23, 1)):
        cells[:, :, col] = np.abs(k) // place % 10 + ord("0")
    cells[:, np.abs(k) < 100, 21] = 0
    wide = width > 22 + signed
    columns = [c for c in range(24) if (signed or c != 0) and (wide or c != 21)]
    cells = cells[:, :, columns].reshape(-1, len(columns))
    return _framed(np.pad(cells, ((0, 0), (0, width - len(columns)))), seps)


def csv_cells(x: np.ndarray, seps: Separators) -> np.ndarray:
    """Each value of x as its column's separator + "%.16e" % v, one uint8 row each, NUL where unused.

    x holds rows of len(seps) columns, row-major, and column j follows
    seps[j]. Rows hold a sign only where some value is negative, and a third
    exponent digit only where some exponent needs it.
    """
    D, k, ok = digits17(x)
    texts = [("%.16e" % v).encode() for v in x[~ok].tolist()]
    sign = np.signbit(x) & ok
    signed = int(sign.any())
    width = max([22 + signed + int((ok & (np.abs(k) >= 100)).any()), *map(len, texts)])
    distinct, blocks = _blocks(seps)
    frames, pre = _csv_frames(distinct, signed, width)
    rows = (k - _K_MIN) + sign * _K_ROWS
    rows.reshape(-1, len(seps))[:] += blocks
    out = np.take(frames, rows, axis=0)
    digits = _digit_chars(D, strip=False)
    out[:, pre + signed] = digits[:, 3]
    _put(out, pre + signed + 2, digits[:, 4:])
    _fallback(out[:, pre : pre + width], x, ok, texts)
    return out


@functools.cache
def _json_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per k: JSON cell frames (then again signed), digit masks and the column of the next digit.

    A frame holds the sign, the point of a whole number (0 <= k <= 15) and
    the exponent of one in exponent form (k < -4 or k > 15). On rows of
    _digit_chars, what comes before the point is (digits & keep) | fill: the
    first digit in exponent form, digits 0..k of a whole number with "0"
    where D has none, and "0." with -k - 1 zeros for -4 <= k < 0; what comes
    after it is digits & ~keep. `after` is the column of the first digit
    after the point.
    """
    k = np.arange(_K_MIN, _K_MAX + 1)
    whole, small = (k >= 0) & (k <= 15), (k >= -4) & (k < 0)
    exponent = ~whole & ~small
    cells = np.zeros((2, len(k), _JSON_WIDTH), dtype=np.uint8)
    cells[1, :, 0] = ord("-")
    cells[:, whole, 18] = ord(".")
    cells[:, exponent, 37] = ord("e")
    cells[:, exponent, 38] = np.where(k < 0, ord("-"), ord("+"))[exponent]
    a = np.abs(k)
    three = a >= 100
    digits = np.stack([np.where(three, a // 100, a // 10 % 10), np.where(three, a // 10 % 10, a % 10),
                       np.where(three, a % 10, -ord("0"))], axis=1) + ord("0")
    cells[:, exponent, 39:42] = digits[exponent]
    split = np.where(whole, k, np.where(small, -1, 0))
    at = np.arange(20) - 3
    keep = (at >= 0) & (at <= split[:, None])
    fill = (keep & whole[:, None]) * ord("0")
    for j, char in enumerate(b"0.000"):
        fill[small & (k <= min(-1, -j)), 3 + j] = char
    return (cells.reshape(-1, _JSON_WIDTH), fill.astype(np.uint8), (keep * 0xFF).astype(np.uint8),
            np.where(small, 4, split + 4))


@functools.cache
def _json_frames(seps: Separators) -> tuple[np.ndarray, int]:
    """Per separator, sign and k, the JSON cell frames after the separator; the cell's offset."""
    return _framed(_json_tables()[0], seps)


def json_cells(x: np.ndarray, seps: Separators) -> np.ndarray:
    """Each value of x as its column's separator + json.dumps(v), one uint8 row each, NUL where unused.

    x holds rows of len(seps) columns, row-major, and column j follows
    seps[j]. Cell layout: sign; the digits before the point, or "0.000" for
    -4 <= k < 0; the point and the "0" of a whole number; the digits after
    the point; "e-ddd" for k < -4 or k > 15. The digits on either side of
    the point are D's digits under two masks.
    """
    D, k, ok = shortest(x)
    texts = [json.dumps(v).encode() for v in x[~ok].tolist()]
    digits = _digit_chars(D, strip=True)
    _, fill, keep, after = _json_tables()
    distinct, blocks = _blocks(seps)
    frames, pre = _json_frames(distinct)
    row = k - _K_MIN
    rows = row + np.signbit(x) * _K_ROWS
    rows.reshape(-1, len(seps))[:] += blocks
    out = np.take(frames, rows, axis=0)
    keep = np.take(keep, row, axis=0)
    _put(out, pre + 1, ((digits & keep) | np.take(fill, row, axis=0))[:, 3:])
    _put(out, pre + 20, (digits & ~keep)[:, 3:])
    # A point in exponent form, and the "0" of a whole number, where no digit follows the point.
    follows = np.take(digits.ravel(), np.arange(len(D)) * 20 + np.take(after, row)) != 0
    whole = out[:, pre + 18] != 0
    out[:, pre + 18] |= (follows & (out[:, pre + 37] != 0)).view(np.uint8) * ord(".")
    out[:, pre + 19] = (whole & ~follows).view(np.uint8) * ord("0")
    _fallback(out[:, pre : pre + _JSON_WIDTH], x, ok, texts)
    return out
