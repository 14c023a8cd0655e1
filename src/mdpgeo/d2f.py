"""Decimal text to float64 at array speed: ``read`` turns a block of number fields
into the very floats ``float`` gives, or says that one of them is outside its class.

The class is a JSON number ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][-+]?[0-9]{1,3})?``
of at most 32 bytes whose digits w (at most 24 of them, and w < 10**19) and
exponent give w * 10**q with q in ``Q`` (the exponents of Eisel and Lemire's
table), and whose value is 0 or a finite normal double.  Per field, numpy finds the
point, the exponent mark and the bytes that are no digit from bit masks of the
block (``packbits``), and checks the grammar from them: the bytes that are no digit
must be the first point, the first exponent mark and the signs that may stand where
they do.  It reads q next, so a block holding a field with q outside ``Q`` is
refused before any significand is built.  The 24 bytes before the exponent, the
point taken out, make three words of eight ASCII digits; ``_eight_digits`` gives w.
Eisel and Lemire's algorithm (Lemire, *Number Parsing at a Gigabyte per Second*,
2021) multiplies w, shifted to its top bit, by the high word of a 128-bit 5**q,
from 32-bit halves; where the product's 9 bits below the 55 it keeps are all ones,
the low word's product may carry into them and is added.  Those 55 bits round to
the double, half to even; Mushtak and Lemire (*Fast Number Parsing Without
Fallback*, 2023) prove that this is exact for every w < 2**64.  A block holding a
value below 2**-1022 (a subnormal) or one that rounds to infinity is refused at
the binary exponent.  No Python loop runs per field, no numpy function newer than
1.24 is used, and no output depends on numpy's SIMD target.
"""

from __future__ import annotations

import numpy as np

Q = range(-342, 309)  # the decimal exponents q of w * 10**q that ``read`` takes
_U = np.uint64


def _tables() -> tuple:
    """``read``'s tables: per q of the window, Eisel and Lemire's 128-bit 5**q (top bit
    set; truncated, or 2**b // 5**-q + 1 below q = 0) as two words, and the binary
    exponent it brings; per word of a 24-byte window and per (p, d) = (byte after the
    point, first digit), the bytes kept from the window, those kept from it moved up a
    byte, and the ASCII zeros that fill the bytes before the first digit."""
    t = []
    for q in Q:
        p5 = 5 ** abs(q)
        z = p5.bit_length()
        c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p5 + 1 if q < 0 else p5 << 128
        t.append(c >> (c.bit_length() - 128))
    keep = np.array([[((1 << 192) - (1 << 8 * k)) >> 64 * i & (2**64 - 1) for k in range(25)]
                     for i in range(3)], np.uint64)  # bytes >= k of the window, per word
    q = np.arange(Q.start, Q.stop)
    return (np.array([c >> 64 for c in t], np.uint64), np.array([c % 2**64 for c in t], np.uint64),
            ((217706 * q) >> 16) + 1085, (keep[:, :, None] & keep[:, None, :]).reshape(3, -1),
            (~keep[:, :, None] & keep[:, None, :]).reshape(3, -1),
            np.repeat(_U(0x3030303030303030) & ~keep[:, None, :], 25, axis=1).reshape(3, -1))


_T5HI, _T5LO, _POW2, _FROM_X, _FROM_Y, _ZEROS = _tables()


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of each 128-bit product a * b, from 32-bit halves; ``a`` is reused."""
    m = _U(0xFFFFFFFF)
    bh, bl = b >> _U(32), b & m
    al = a & m
    a >>= _U(32)
    mid, x, t = a * bl, al * bh, al * bl
    t >>= _U(32)
    t += mid & m
    t += x & m
    t >>= _U(32)
    a *= bh
    a += mid >> _U(32)
    a += x >> _U(32)
    a += t
    return a


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """Each word of eight ASCII digits as its number, the first byte the leading digit
    (fast_float's ``parse_eight_digits``); ``v`` is reused."""
    v -= _U(0x3030303030303030)
    x = v >> _U(8)
    v *= _U(10)
    v += x
    m = _U(0x000000FF000000FF)
    x = v >> _U(16)
    x &= m
    x *= _U(0x0000271000000001)  # 1 + 10000 << 32
    v &= m
    v *= _U(0x000F424000000064)  # 100 + 1000000 << 32
    v += x
    v >>= _U(32)
    return v


def _fields_at(a: np.ndarray, size: np.ndarray) -> tuple:
    """For fields of at most 32 bytes at ``a``, what ``_marks`` takes: the 32-bit words of
    a bit mask that hold their first bytes and the next, the shifts and the field masks."""
    at, sh = a >> 5, (a & 31).astype(np.uint32)
    below = (np.uint32(1) << np.minimum(size, 32).astype(np.uint32)) - np.uint32(1)
    return at, at + 1, sh, np.uint32(32) - sh, below


def _marks(hit: np.ndarray, fields: tuple) -> np.ndarray:
    """Per field (``_fields_at``), bit j set where its byte j is a ``hit``; ``hit`` has
    a multiple of 32 entries, 32 or more past the last field's start."""
    at, at1, sh, back, below = fields
    bits = np.packbits(hit, bitorder="little").view("<u4")
    mark, high = bits.take(at), bits.take(at1)
    mark >>= sh
    high <<= back
    mark |= high
    mark &= below
    return mark


def _lowest(mark: np.ndarray) -> tuple:
    """Each mask's lowest set bit (0 where none is), and its place (32 where none is)."""
    low = np.negative(mark)
    low &= mark
    return low, np.frexp((low - np.uint32(1)).astype(np.float64))[1].astype(np.int16)


def read(data: bytes, first: np.ndarray, last: np.ndarray, plain=None):
    """The float64 of each field ``data[first[i]:last[i]]`` as ``float`` reads it, or None
    when a field is outside the class (see the module's docstring) or, where ``plain[i]``,
    holds anything but ASCII digits."""
    lo, hi = int(first[0]), int(last[-1])
    buf = np.zeros(-(-(hi - lo + 40) // 64) * 64 + 64, np.uint8)  # 24 bytes before the text
    buf[24:24 + hi - lo] = np.frombuffer(data, np.uint8, hi - lo, lo)
    a, size = first - (lo - 24), last - first
    n16 = np.minimum(size, 64).astype(np.int16)
    hits, fields = np.empty(buf.size, bool), _fields_at(a, n16)
    np.equal(buf, 46, out=hits)
    allowed, p = _lowest(_marks(hits, fields))  # the first "."
    np.equal(buf | 32, 101, out=hits)
    mark, e = _lowest(_marks(hits, fields))  # the first "e" or "E"
    np.greater(buf - 48, 9, out=hits)
    no_digit = _marks(hits, fields)
    del hits, fields
    has_p, has_e = p < 32, e < 32
    end = np.minimum(e, n16)  # of the digits before any exponent
    neg = buf.take(a) == 45
    after_e = buf.take(a + np.minimum(e + 1, n16))
    signed = ((after_e == 45) | (after_e == 43)) & has_e
    # the bytes that may be no digit: the first point, the first exponent mark, a sign
    # before the number and one after the mark; none in a plain field
    allowed |= mark
    allowed |= neg
    mark <<= signed.astype(np.uint32)
    allowed |= mark
    if plain is not None:
        allowed[plain] = 0
    ok = no_digit == allowed
    whole = np.minimum(p, end)  # end of the integer part
    ok &= (whole > neg) & ((buf.take(a + neg) != 48) | (whole == neg + 1)) & (n16 <= 32)
    ok &= ~has_p | (end > p + 1)
    exp_digits = n16 - e - 1 - signed
    ok &= ~has_e | ((exp_digits >= 1) & (exp_digits <= 3))
    digits = end - neg - has_p
    ok &= digits <= 24
    if not ok.all():
        return None
    del ok, allowed, mark, no_digit, whole
    A, q = buf.view("<u8"), -np.where(has_p, end - p - 1, 0).astype(np.int64)
    at = np.flatnonzero(has_e)
    if at.size:  # the exponent: the word before the field's end
        exp_end = a[at] + size[at] - 8
        i, s = exp_end >> 3, ((exp_end & 7) << 3).astype(_U)
        x = A.take(i) >> s
        x |= A.take(i + 1) << (_U(64) - s)
        pick = 24 - exp_digits[at].astype(np.intp)
        x &= _FROM_X[2].take(pick)
        x |= _ZEROS[2].take(pick)
        ev = _eight_digits(x).view(np.int64)
        np.negative(ev, out=ev, where=after_e[at] == 45)
        q[at] += ev
    if not ((q >= Q.start) & (q < Q.stop)).all():
        return None
    del at, size, e, after_e, exp_digits
    # the 24 bytes before ``end`` as three words, the point taken out (the bytes before it
    # move up a byte) and ASCII zeros before the digits
    o = a + (end - 24)
    del a
    s = ((o & 7) << 3).astype(_U)
    i, r = o >> 3, _U(64) - s
    pick = np.where(has_p, 25 - (end - p), 0).astype(np.intp) * 25 + (24 - digits)
    words, touched, below = np.empty((3, len(o)), _U), A.take(i), None
    for k in range(3):  # from the four aligned words the window touches
        word = touched >> s
        i += 1
        A.take(i, out=touched)
        word |= touched << r
        moved = word << _U(8)
        if k:
            moved |= below
        below = word >> _U(56)
        word &= _FROM_X[k].take(pick)
        moved &= _FROM_Y[k].take(pick)
        word |= moved
        np.bitwise_or(word, _ZEROS[k].take(pick), out=words[k])
    del o, s, r, i, touched, word, moved, below, pick
    g = _eight_digits(words)
    w = g[0] * _U(10**16)
    w += g[1] * _U(10**8)
    w += g[2]
    if (g[0] >= 1000).any():  # w < 10**19
        return None
    del g, words, buf, A, p, end, digits
    zero = w == 0
    # Eisel-Lemire: w normalized times 5**q, its top 55 bits rounded to 53, half to even
    idx = q - Q.start
    lz = (64 - np.frexp(w.astype(np.float64))[1]).astype(_U)
    w <<= lz
    short = (w >> _U(63)) ^ _U(1)  # the float rounded w up past a power of two
    w <<= short
    lz += short
    t5 = _T5HI.take(idx)
    low = w * t5
    high = _mul_high(w.copy(), t5)
    at = np.flatnonzero((high & _U(0x1FF)) == _U(0x1FF))  # the low word may carry in
    if at.size:
        second = _mul_high(w[at], _T5LO.take(idx[at]))
        carried = low[at] + second
        high[at] += (second > carried).astype(_U)
        low[at] = carried
    upper = high >> _U(63)
    bits = _POW2.take(idx) + (upper - lz).view(np.int64)  # the exponent, less 1: mant adds it
    if ((bits < 0) & ~zero).any():  # a value below 2**-1022: no normal double
        return None
    mant = high >> (upper + _U(9))
    at = np.flatnonzero(low <= 1)
    if at.size:  # an exact product that ends halfway rounds to even
        m, shift = mant[at], upper[at] + _U(9)
        mant[at] = m - ((q[at] >= -4) & (q[at] <= 23) & ((m & _U(3)) == 1)
                        & ((m << shift) == high[at]))
    mant += mant & _U(1)
    over = mant >> _U(54)
    mant >>= over + _U(1)
    bits += over.view(np.int64)
    if (bits > 2045).any():  # a value that rounds to infinity
        return None
    bits <<= 52
    bits += mant.view(np.int64)
    bits *= ~zero
    bits |= neg.astype(np.int64) << 63
    return bits.view(np.float64)
