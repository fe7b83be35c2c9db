"""Shortest round-trip text of float64 values, computed over numpy arrays.

For every finite value v, `text_slots` gives exactly the characters of
`repr(float(v))`, without a Python call per value.

Digits: the Schubfach algorithm (R. Giulietti, "The Schubfach way to render
doubles", 2020), whose output is Ryu's (U. Adams, PLDI 2018). For
v = c 2^q it takes the decimal exponent k from floor(log10 2^q), scales 4c and
the two ends of v's rounding interval by 10^-k with one 128-bit ceiling of a
power of ten each, rounded to odd so that every comparison with an even
integer is exact, and keeps the one multiple of 10^(k+1) in the interval if
there is exactly one, else the multiple of 10^k closest to v, ties to an even
digit. The ends are included when c is even (round half to even reads them
back as v). Where c = 2^52 the next value below is closer than the next one
above, and the interval is lopsided.

Layout: Python's `repr` rules. With the decimal point at position `decpt`
(v = 0.d1d2... 10^decpt), the text is scientific when decpt <= -4 or
decpt > 16, with a signed exponent of at least two digits and no dot after a
single digit; otherwise it is positional, with "0." and up to three zeros in
front of a small value and ".0" after an integral one.
"""

from __future__ import annotations

import numpy as np

# decimal exponents -k of the scale factors 10^-k that doubles need:
# k = floor(log10(2^q)) over q in [-1074, 971] (normal and subnormal)
_E_MIN, _E_MAX = -292, 324
_DIGITS = 17

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=np.uint64)


def _scale_table():
    """Per e in [_E_MIN, _E_MAX]: floor(log2 10^e), and the 128-bit ceiling of
    10^e 2^(127 - floor(log2 10^e)), a number in [2^127, 2^128), split into
    four 32-bit words, most significant first."""
    logs, words = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            log2 = (10**e).bit_length() - 1
            shift = 127 - log2
            g = 10**e << shift if shift >= 0 else -(-(10**e) >> -shift)
        else:
            log2 = -(10**-e).bit_length()  # 10^-e is no power of two
            g = -(-(1 << (127 - log2)) // 10**-e)
        logs.append(log2)
        words.append([(g >> s) & 0xFFFFFFFF for s in (96, 64, 32, 0)])
    return np.array(logs, dtype=np.int64), np.array(words, dtype=np.uint64).T.copy()


_LOG2_POW10, _G_WORDS = _scale_table()

# Text slots of one value, 15 uint32 words: the sign; "0." and three zeros
# that lead a small value; the 17 digits before the decimal point and again
# after it, each copy as words of 4, 4, 1 (and three NULs), 4 and 4 digits;
# the point; the zero of ".0"; "e", the exponent's sign and its three digits.
# A table row per layout keeps the slots that the layout shows.
_SLOTS = 60
_BEFORE, _POINT, _AFTER, _TAIL, _EXP = 8, 28, 32, 52, 53


def _digit_words(width, count):
    """0..count-1 as `width` decimal digits, NUL-padded to 4 bytes, one word each."""
    number = np.arange(count, dtype=np.uint16)
    chars = np.zeros((count, 4), dtype=np.uint8)
    for place in range(width):
        chars[:, place] = ord("0") + number // 10 ** (width - 1 - place) % 10
    return chars.view(np.uint32).ravel()


def _shown_table():
    """Per layout: 1 on the slots it shows. Layout 0 is scientific with a
    three-digit exponent, 1 scientific with two, and 2 + (decpt + 3) is
    positional with the decimal point at decpt in -3..16; each comes with
    1..17 significant digits."""
    place = [t if t <= 8 else t + 3 for t in range(_DIGITS)]  # digit t in a copy
    rows = []
    for layout in range(22):
        decpt = layout - 5
        for used in range(1, _DIGITS + 1):
            row = np.zeros(_SLOTS, dtype=np.uint8)
            row[0] = 1  # the sign, "-" or nothing
            if layout < 2:
                split, row[_POINT] = 1, used > 1
                row[_EXP:_EXP + 2] = 1  # "e" and the sign
                row[_EXP + 3 + layout:_EXP + 6] = 1
            elif decpt <= 0:
                split = 0
                row[1:3 - decpt] = 1  # "0." and -decpt zeros
            else:
                split, row[_POINT] = decpt, 1
                row[_TAIL] = decpt >= used
            row[[_BEFORE + place[t] for t in range(split)]] = 1
            row[[_AFTER + place[t] for t in range(split, used)]] = 1
            rows.append(row)
    return np.array(rows)


_QUADS = _digit_words(4, 10**4)
_TRIPLES = _digit_words(3, 10**3)
_SINGLES = _digit_words(1, 10)
_TRAILING = sum(np.arange(10**4, dtype=np.uint16) % 10**d == 0 for d in range(1, 5)).astype(
    np.int8)  # trailing zeros of a 4-digit group, 4 for 0000
_TEMPLATE = np.zeros(_SLOTS, dtype=np.uint8)
_TEMPLATE[[1, 3, 4, 5, _TAIL]] = ord("0")
_TEMPLATE[[2, _POINT]] = ord(".")
_TEMPLATE[_EXP] = ord("e")
_TEMPLATE = _TEMPLATE.view(np.uint32)
_SHOWN = _shown_table()


def _round_to_odd(g3, g2, g1, g0, cp):
    """floor(g cp / 2^128) for the 128-bit g = (g3 g2 g1 g0) in 32-bit words
    and cp < 2^64, rounded to odd: its lowest bit is set unless the middle
    64-bit word of g cp is 0 or 1, which for the g and cp that doubles give
    happens exactly when the quotient is exact (Giulietti 2020)."""
    c1, c0 = cp >> _U(32), cp & _M32
    # x1 = high 64 bits of (g1 g0) cp
    ll, lh, hl = g0 * c0, g0 * c1, g1 * c0
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    x1 = g1 * c1 + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    # (y1 y0) = (g3 g2) cp
    ll, lh, hl = g2 * c0, g2 * c1, g3 * c0
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    y1 = g3 * c1 + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    y0 = (mid << _U(32)) | (ll & _M32)
    z = y0 + x1  # middle word of g cp, modulo 2^64
    return (y1 + (z < x1)) | (z > 1)


def _scaled(magnitude):
    """For each positive finite double v = c 2^q given by its bits: c, the
    decimal exponent k, and x 10^-k rounded to odd for x = 4v and for x = 4
    times each end of v's rounding interval, 4v -+ 2^(q+1) (4v - 2^q below
    where the next value below is the closer one)."""
    field = magnitude >> _U(52)
    fraction = magnitude & _FRACTION
    normal = field != 0
    c = np.where(normal, fraction | _HIDDEN, fraction)
    q = np.where(normal, field.astype(np.int64) - 1075, -1074)
    closer = (fraction == 0) & (field > 1)
    # floor(log10 2^q) and floor(log10 (3/4) 2^q), exact for |q| <= 1650
    k = (q * 1262611 - closer * 524031) >> 22
    row = -k - _E_MIN
    g3, g2, g1, g0 = _G_WORDS[:, row]
    h = (q + _LOG2_POW10[row] + 1).astype(np.uint64)  # 1..4
    cb = c << _U(2)
    vb = _round_to_odd(g3, g2, g1, g0, cb << h)
    vbl = _round_to_odd(g3, g2, g1, g0, (cb - _U(2) + closer) << h)
    vbr = _round_to_odd(g3, g2, g1, g0, (cb + _U(2)) << h)
    return c, k, vbl, vb, vbr


def _shortest(magnitude):
    """Shortest-closest decimal (s, k), v = s 10^k, for each positive finite
    double given by its bits; s may carry trailing zeros."""
    c, k, vbl, vb, vbr = _scaled(magnitude)
    odd = c & _U(1)
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    # the one multiple of 10^(k+1) in the interval, if only one end has it
    sp = s // _U(10)
    lo_in, hi_in = lower <= sp * _U(40), sp * _U(40) + _U(40) <= upper
    coarse = (s >= _U(10)) & (lo_in != hi_in)
    # else the multiple of 10^k: the one inside, or the closer, ties to even
    u_in, w_in = lower <= s * _U(4), s * _U(4) + _U(4) <= upper
    mid = s * _U(4) + _U(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    s = np.where(coarse, sp + hi_in, s + up)
    return s, k + coarse


def text_slots(values):
    """(len(values), 60) uint8: the bytes of repr(float(v)) for each finite
    float64 v, spread over fixed slots in text order, 0 in the unused ones.
    Row by row, `slots[slots != 0]` is the text."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    magnitude = bits & _U((1 << 63) - 1)
    zero = magnitude == 0
    s, k = _shortest(magnitude)
    s[zero], k[zero] = 0, 0  # "0.0": one digit, the decimal point after it
    n = np.maximum(np.searchsorted(_POW10, s, side="right"), 1)
    decpt = n + k
    # all 17 digits left-aligned, in five groups: 4, 4, 1, 4 and 4 digits
    s = (s * _POW10[_DIGITS - n]).astype(np.int64)
    high = s // 10**9
    a = high // 10**4
    b = high - a * 10**4
    low = s - high * 10**9
    d = low // 10**8
    low -= d * 10**8
    c = low // 10**4
    e = low - c * 10**4
    # trailing zeros of the 17 digits; 17 (no digit) for a zero
    zeros = _TRAILING[e] + (e == 0) * (_TRAILING[c] + (c == 0) * (
        (d == 0) * (1 + _TRAILING[b] + (b == 0) * _TRAILING[a])))
    used = np.maximum(_DIGITS - zeros, 1)
    exponent = decpt - 1
    size = np.abs(exponent)
    sci = (decpt <= -4) | (decpt > 16)
    layout = np.where(sci, size < 100, decpt + 5) * _DIGITS + used - 1
    words = np.empty((len(s), _SLOTS // 4), dtype=np.uint32)
    words[:] = _TEMPLATE
    for first in (_BEFORE // 4, _AFTER // 4):  # the two copies of the digits
        words[:, first] = _QUADS[a]
        words[:, first + 1] = _QUADS[b]
        words[:, first + 2] = _SINGLES[d]
        words[:, first + 3] = _QUADS[c]
        words[:, first + 4] = _QUADS[e]
    words[:, (_EXP + 3) // 4] = _TRIPLES[size]
    out = words.view(np.uint8)
    out[:, 0] = (bits >> _U(63)) * ord("-")
    out[:, _EXP + 1] = np.where(exponent < 0, ord("-"), ord("+"))
    return np.multiply(out, _SHOWN[layout], out=out)
