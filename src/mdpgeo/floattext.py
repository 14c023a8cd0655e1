"""Float64 and decimal text both ways, at array speed and bit for bit: ``read`` turns
number fields into the floats ``float`` gives, ``reprs`` prints floats as ``repr`` (so
also ``json``) prints them, and ``g17`` prints rows of them as ``'%.17g'`` does.  No
Python loop runs per number, no numpy function newer than 1.24 is used, and no output
depends on numpy's SIMD target.  All three take their powers of five from one table,
built on import with Python integers.

``read``'s class is a JSON number ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][-+]?[0-9]{1,3})?``
of at most 32 bytes whose digits w (at most 24 of them, and w < 10**19) and
exponent give w * 10**q with q in ``Q`` (the exponents of Eisel and Lemire's
table), and whose value is 0 or a finite normal double.  Per field, numpy finds the
point, the exponent mark and the bytes that are no digit from bit masks of the
block (``packbits``), and checks the grammar from them: the bytes that are no digit
must be the first point, the first exponent mark and the signs that may stand where
they do.  It reads q next, so a block holding a field with q outside ``Q``, or one
whose digits bound it below 10**-308 (so below 2**-1022: a subnormal) and whose
first digit is no 0, is refused before any significand is built.  The 24 bytes before the
exponent, the point taken out, make three words of eight ASCII digits;
``_eight_digits`` gives w.  Eisel and Lemire's algorithm (Lemire, *Number Parsing at
a Gigabyte per Second*, 2021) multiplies w, shifted to its top bit, by the high word
of a 128-bit 5**q, from 32-bit halves; where the product's 9 bits below the 55 it
keeps are all ones, the low word's product may carry into them and is added.  Those
55 bits round to the double, half to even; Mushtak and Lemire (*Fast Number Parsing
Without Fallback*, 2023) prove that this is exact for every w < 2**64.  A block
holding any other value below 2**-1022 or one that rounds to infinity is refused at
the binary exponent.

``reprs`` is Giulietti's Schubfach (*The Schubfach way to render doubles*, 2020):
for x = c * 2**q, k = floor(log10) of the gap below x (3/4 of 2**q just above a
power of two, whose lower gap is half the upper one), and x, its lower and its upper
rounding bound, times 4 * 10**-k, are rounded to odd from the 126-bit 10**-k, so
that integer comparisons decide which of the multiples of 10**(k+1), then of 10**k,
next to x read back as x: a bound counts only for an even c.  One such multiple of
10**(k+1) is the shortest; else the one of s and s + 1 that reads back, or the
closer of both, the even one on a tie.  That is CPython's choice (Gay's ``dtoa``
mode 0) for every finite double, ``5e-324`` included.

``g17`` takes 17 digits from the same table and rounding: for x = c * 2**q, c in [2**52,
2**53) (a subnormal's shifted up) and k = floor(log10(2**q)) - 1, 4 * x * 10**-k rounded
to odd is 4 * s + r: s holds the 17 or 18 digits of x * 10**-k, r says if the rest is 0,
below a half, a half or above.  17 digits round half to even; of 18 the last goes, up
above 5 or at 5 when more follows or the digit before is odd.  The rop is exact unless
the product's error (below 2**-64) takes the fraction below 2**-63 or to 1: for every q,
``scripts/g17_exactness.py`` finds the three doubles where it does and checks their
digits.  Both printers place digits, point, sign and exponent alike (``_text``): fixed
for 10**-4 <= |x| < 10**16 (``repr``, ``.0`` after an integer) or 10**17 (``'%.17g'``),
else ``d.ddde-XX``; ``g17`` prints a row holding an infinity or a NaN by ``%``.
"""

from __future__ import annotations

import numpy as np

Q = range(-342, 309)  # the decimal exponents q of w * 10**q that ``read`` takes
_E = range(Q.start, 341)  # the table's exponents: Q, and -k for both printers' k
_U = np.uint64


def _tables() -> tuple:
    """``read``'s tables: per e of the window, Eisel and Lemire's 128-bit 5**e (top bit
    set; truncated, or 2**b // 5**-e + 1 below e = 0) as two words, and the binary
    exponent it brings; per word of a 24-byte window and per (p, d) = (byte after the
    point, first digit), the bytes kept from the window, those kept from it moved up a
    byte, and the ASCII zeros that fill the bytes before the first digit.  Then the
    printers' Schubfach g = floor(5**e * 2**r) + 1 in [2**125, 2**126), from the same
    quotient, as its top 63 bits and its low 63."""
    t, g = [], []
    for e in _E:
        p5 = 5 ** abs(e)
        z = p5.bit_length()
        c = (1 << (z + 127 if e >= -27 else 2 * z + 128)) // p5 + 1 if e < 0 else p5 << 128
        t.append(c >> (c.bit_length() - 128))
        g.append(((c - (e < 0)) >> (c.bit_length() - 126)) + 1)  # c - 1: the floor of 5**e
    keep = np.array([[((1 << 192) - (1 << 8 * k)) >> 64 * i & (2**64 - 1) for k in range(25)]
                     for i in range(3)], np.uint64)  # bytes >= k of the window, per word
    e = np.arange(_E.start, _E.stop)
    return (np.array([c >> 64 for c in t], np.uint64), np.array([c % 2**64 for c in t], np.uint64),
            ((217706 * e) >> 16) + 1085, (keep[:, :, None] & keep[:, None, :]).reshape(3, -1),
            (~keep[:, :, None] & keep[:, None, :]).reshape(3, -1),
            np.repeat(_U(0x3030303030303030) & ~keep[:, None, :], 25, axis=1).reshape(3, -1),
            np.array([c >> 63 for c in g], np.uint64), np.array([c % 2**63 for c in g], np.uint64))


_T5HI, _T5LO, _POW2, _FROM_X, _FROM_Y, _ZEROS, _G1, _G0 = _tables()


def _high(ah, al, bh, bl) -> np.ndarray:
    """The high word of each 128-bit a * b, from the 32-bit halves of a and b."""
    m = _U(0xFFFFFFFF)
    mid, x, t = ah * bl, al * bh, al * bl
    t >>= _U(32)
    t += mid & m
    t += x & m
    t >>= _U(32)
    a = ah * bh
    a += mid >> _U(32)
    a += x >> _U(32)
    a += t
    return a


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of each 128-bit product a * b."""
    m = _U(0xFFFFFFFF)
    return _high(a >> _U(32), a & m, b >> _U(32), b & m)


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
    if ((q + digits <= -308) & (buf.take(a + neg) != 48)).any():  # below 10**-308 and not 0
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
    high = _mul_high(w, t5)
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


def _print_tables() -> tuple:
    """The printers' tables: 4-digit groups in ASCII and their last nonzero digits; per
    class c (0: exponent notation, else X + 5 for the first digit's exponent X) the point's
    words and per sign the prefix's; per style, class and significant digits the bytes
    kept; 10**j; per X, ``e``, X's sign and two or three digits, and their length; per
    word, the bytes before each end; per length, the bytes of a ``g17`` record."""
    g = np.arange(10000, dtype=np.uint32)
    four = (g // 1000 | g // 100 % 10 << 8 | g // 10 % 10 << 16 | g % 10 << 24) + 0x30303030
    sig = np.full(10000, 4, np.int8)  # a group's digits up to its last nonzero one
    for j in (1, 2, 3):
        sig[::10**j] = 4 - j
    sig[0] = 0
    dots, heads = np.zeros((22, 72), np.uint8), np.zeros((2, 44), np.uint64)
    for c in range(22):
        t = c - 4 if c > 4 else 24 if c else 1  # the point's byte: after digit X, or d0
        dots[c, :t], dots[c, 25 + t:48], dots[c, 48 + t:49 + t] = 255, 255, ord(".")
        for neg in (0, 1):
            pre = b"-" * neg + b"0.000"[:6 - c] * (0 < c < 5)
            heads[:, 22 * neg + c] = 8 * len(pre), int.from_bytes(pre, "little")
    kept = [[d + (d > 1) if c == 0 else d if c < 5 else max(d, c - 3) + 1 if style == 0
             else max(d, c - 4) + (d > c - 4) for c in range(22) for d in range(18)]
            for style in (0, 1)]
    exps = [b"e%+03d" % X for X in range(-324, 309)]
    below = np.array([[(1 << 8 * max(0, min(end - 8 * i, 8))) - 1 for end in range(25)]
                      for i in range(3)], np.uint64)
    return (four.astype(np.uint64), (np.arange(0, 16, 4, dtype=np.int8)[:, None] + sig) * (sig > 0),
            dots.view("<u8").T.copy(), heads, np.array(kept),
            np.array([10**j for j in range(18)], np.uint64),
            np.array([int.from_bytes(e, "little") for e in exps], np.uint64),
            np.array([len(e) for e in exps]), below,
            np.arange(32) <= np.arange(25)[:, None])


_DIGITS, _SIGS, _DOTS, _HEADS, _KEPT, _P10, _EXPS, _EXP_SIZES, _BELOW, _MASKS = _print_tables()


def _ascii17(q: np.ndarray, c: np.ndarray) -> tuple:
    """The 17 digits of each q < 10**17 (int64, reused) as three little-endian words, the
    point at class c's byte and the digits from it on a byte up; and q's significant
    digits, leading zeros counted."""
    g = []
    for d in (10**16, 10**12, 10**8, 10**4):  # not %: floor division by a constant is SIMD
        g.append(q // d)
        q -= g[-1] * d
    lead, g = g[0], g[1:] + [q]
    t1, t2, t3, t4 = (_DIGITS.take(gi) for gi in g)
    nd = np.max([sig.take(gi) for sig, gi in zip(_SIGS, g)], axis=0)
    s = [(lead.view(np.uint64) + 48) | (t1 << 8) | (t2 << 40),  # digits 0-7, 8-15, 16
         (t2 >> 24) | (t3 << 8) | (t4 << 40), t4 >> 24]
    for i in (2, 1, 0):  # the point at byte t: the digits from t on move up a byte
        up = (s[i] << 8) | (s[i - 1] >> 56) if i else s[0] << 8
        s[i] = (s[i] & _DOTS[i].take(c)) | (up & _DOTS[3 + i].take(c)) | _DOTS[6 + i].take(c)
    return s, nd + 1


def _text(x: np.ndarray, d: np.ndarray, X: np.ndarray, style: int, first: int) -> tuple:
    """Each value of sign x's, digits d (17 of them, int64, reused; 0 for ±0) and first
    digit's exponent X as ``repr`` (style 0) or ``'%.17g'`` (style 1) prints it: fixed
    for -4 <= X < 16 (``repr``, with ``.0`` after an integer) or X < 17 (``'%.17g'``),
    else ``d.ddde-XX``, trailing zeros dropped.  Little-endian in words ``first`` to
    ``first + 2`` of four a value, and the length."""
    fixed = (X >= -4) & (X < 16 + style)
    c = np.where(fixed, X + 5, 0)
    s, nd = _ascii17(d, c)
    end = _KEPT[style].take(c * 18 + nd)
    at = np.flatnonzero(~fixed)
    if at.size:  # e, X's sign and digits from byte ``end`` on
        tail, e = _EXPS.take(X[at] + 324), end[at]
        for i in range(3):
            place = 8 * (e - 8 * i)  # the tail's place in this word, in bits
            s[i][at] = (s[i][at] & _BELOW[i].take(e)) | (
                tail >> np.maximum(-place, 0).astype(_U) << np.maximum(place, 0).astype(_U))
        end[at] += _EXP_SIZES.take(X[at] + 324)
    c += np.signbit(x) * 22  # the prefix's row: per sign and class
    sh, pre = (head.take(c) for head in _HEADS)
    end += (sh >> _U(3)).view(np.int64)
    w, back = np.empty((len(x), 4), _U), _U(64) - sh
    for i in (0, 1, 2):  # the prefix goes first
        w[:, first + i] = (s[i] << sh) | (s[i - 1] >> back if i else pre)
    return w, end


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: cp * g / 2**127 rounded to odd, g = g1 * 2**63 + g0, from the high
    words of g1 * cp and g0 * cp and the low word of g1 * cp."""
    m = _U(0xFFFFFFFF)
    bh, bl = cp >> _U(32), cp & m
    y1 = _high(g1 >> _U(32), g1 & m, bh, bl)
    z = g1 * cp
    z >>= _U(1)
    z += _high(g0 >> _U(32), g0 & m, bh, bl)
    y1 += z >> _U(63)
    z &= _U(2**63 - 1)
    z += _U(2**63 - 1)
    z >>= _U(63)
    y1 |= z
    return y1


def _parts(x: np.ndarray) -> tuple:
    """Each double |x| as c * 2**q, c < 2**53 and q >= -1074, c >= 2**52 where q > -1074
    (infinities and NaNs give q = 972)."""
    bits = x.view(_U)
    be = (bits >> _U(52)).view(np.int64) & 0x7FF
    return bits & _U(2**52 - 1) | (be > 0).astype(_U) << _U(52), np.maximum(be, 1) - 1075


def _power(q: np.ndarray, k: np.ndarray) -> tuple:
    """10**-k as the table's g1 and g0, and h = q + floor(log2(10**-k)) + 2: ``_rop(g1, g0,
    b << h)`` is b * 2**q * 10**-k rounded to odd for the pairs both printers take."""
    i = -k - _E.start
    return _G1.take(i), _G0.take(i), (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)


def _round17(x: np.ndarray) -> tuple:
    """Per double its 17 digits d (0 for ±0) and the exponent X of the first: ±d *
    10**(X - 16) is x rounded to 17 significant digits, half to even."""
    c, q = _parts(x)
    at = np.flatnonzero(c < _U(2**52))  # ±0 and subnormals: c normalized, q lowered
    if at.size:
        lz = 53 - np.frexp((c[at] | _U(1)).astype(np.float64))[1]  # c | 1: 0 keeps q in range
        c[at] <<= lz.astype(_U)
        q[at] -= lz
    k = ((q * 661_971_961_083) >> 41) - 1  # floor(log10(2**q)) - 1
    g1, g0, h = _power(q, k)
    vb = _rop(g1, g0, c << (h + _U(2)))  # 4 * |x| * 10**-k, rounded to odd
    s = vb >> _U(2)  # 17 or 18 digits
    long = s >= _U(10**17)
    d = np.where(long, s // _U(10), s)  # 18: the last one goes
    half = np.where(long, _U(20), _U(2))  # half the last digit kept, in quarters
    rest = vb - d * (half + half)
    d += rest + (d & _U(1)) > half  # above half, or at half when d is odd
    carry = d == _U(10**17)
    d[carry] = 10**16
    return d.view(np.int64), (k + 16 + long + carry) * (d > 0)


def g17(values: np.ndarray) -> list:
    """Each row of ``values`` as ``'%.17g'`` prints its numbers, ``,`` between and a newline
    after (see the module's docstring); ``%`` prints a row holding an infinity or a NaN.
    A value takes at most 24 bytes, so it and its separator fit in 32."""
    x, n = values.ravel(), values.shape[1]
    w, end = _text(x, *_round17(x), 1, 0)
    text, at = w.view(np.uint8).ravel(), np.arange(0, 32 * len(x), 32) + end
    text[at] = ord(",")  # right after the value: a record is a prefix of its 32 bytes
    text[at[n - 1::n]] = ord("\n")
    body = text[_MASKS.take(end, axis=0).ravel()]
    bounds = [0] + np.cumsum(end.reshape(-1, n).sum(axis=1) + n).tolist()
    rows = [body[a:b] for a, b in zip(bounds, bounds[1:])]
    inf_nan = np.flatnonzero(~np.isfinite(x)) // n
    for r in dict.fromkeys(inf_nan.tolist()):  # not np.unique: it imports numpy.ma
        rows[r] = (",".join(["%.17g"] * n) + "\n").encode() % tuple(values[r].tolist())
    return rows


REPR_VALUES = 8192  # values ``reprs`` prints at a time: bounds its arrays


def _shortest(x: np.ndarray) -> tuple:
    """Per double its digits d, zeros after them up to 17 (0 for ±0), and the exponent X of
    the first: ±d * 10**(X - 16) is the closest of the shortest decimals that read back as
    x (see the module's docstring)."""
    c, q = _parts(x)
    narrow = (c == _U(2**52)) & (q > -1074)  # its lower gap is half the upper one
    k = (q * 661_971_961_083 - narrow * 274_743_187_321) >> 41  # floor(log10 of the gap)
    g1, g0, h = _power(q, k)
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    low = _rop(g1, g0, (cb - _U(2) + narrow.astype(_U)) << h)  # bounds count for an even c
    low += c & _U(1)
    high = _rop(g1, g0, (cb + _U(2)) << h)
    high -= c & _U(1)
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    up10 = (s10 + _U(10)) << _U(2) <= high
    coarse = (low <= s10 << _U(2)) != up10  # one of s10 and s10 + 10 reads back
    on_s, on_t = low <= s << _U(2), (s + _U(1)) << _U(2) <= high
    vb &= _U(3)  # 4 * (x * 10**-k - s), rounded to odd: 2 on a tie
    on_t &= ~on_s | (vb == 3) | (vb == 2) & (s & _U(1) == 1)  # the closer, the even on a tie
    s += on_t
    d = np.where(coarse, s10 + _U(10) * up10, s) * (c > 0)
    nd = np.searchsorted(_P10, d, side="right")  # d's digits; 0 for 0
    d *= _P10.take(17 - nd)
    return d.view(np.int64), (k + nd - 1) * (c > 0)


_KEEP = (np.arange(32) >= 7) & (np.arange(32) < 8 + np.arange(25)[:, None])


def reprs(x: np.ndarray, sep: bytes, cut: np.ndarray) -> list:
    """The pieces of the finite float64 ``x``, one starting at 0 and one at each i where
    ``cut[i]``: each its values as ``repr`` prints them, ``sep`` between them.  ``sep``
    holds no NUL."""
    texts = []
    for a in range(0, len(x), REPR_VALUES):
        part = x[a:a + REPR_VALUES]
        w, size = _text(part, *_shortest(part), 0, 1)
        mark = np.where(cut[a:a + REPR_VALUES], _U(0), _U(ord(",") << 56))  # NUL: a piece starts
        mark[0] *= a > 0
        w[:, 0] = mark
        texts.append(w.view(np.uint8).reshape(-1, 32)[_KEEP.take(size, axis=0)])
    text = b"".join(texts)
    return (text if sep == b"," else text.replace(b",", sep)).split(b"\0")[1:]
