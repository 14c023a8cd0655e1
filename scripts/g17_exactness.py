"""Checks that ``floattext.g17``'s one product per value is exact, for every double.

    python scripts/g17_exactness.py [--src DIR]

``g17`` writes a double as x = c * 2**q with c in [2**52, 2**53) (a subnormal's c
shifted up, so q runs from -1126 to 971), takes k = floor(log10(2**q)) - 1 and reads
V = 4 * c * 2**q * 10**-k, rounded to odd, from ``_rop(g1, g0, c << (h + 2))`` with
the table's g = g1 * 2**63 + g0 for 10**-k.  For every q this script checks what
makes that result exact:

- g lies in (G, G + 1] for G = 10**-k * 2**(127 + q - h), the real number for which
  cp * G / 2**127 = V with cp = 4 * c * 2**h, and g < 2**126;
- cp < 2**63 for every c < 2**53 (h <= 8).

Then the product cp * g / 2**127 is V + e with 0 < e = c * t < cp / 2**127 < 2**-64,
t = 2**(h + 2) * (g - G) / 2**127.  ``_rop`` drops the product's low word (cp is even,
so g1 * cp is too and no other bit is dropped): what it keeps is V + e truncated to a
multiple of 2**-63, its sticky bit whether that has a fraction.  That is V itself where V
is an integer; where V has a fraction f, it is V rounded to odd wherever f + e lies in
[2**-63, 1).  So for every q the script finds each c in [2**52, 2**53) whose f + c * t
leaves that range: with V = c * N / D in lowest terms, the c whose c * N mod D lies in
[1, ceil(D * (2**-63 - c' * t)) - 1], c' the least c not yet passed, or in
[floor(D * (1 - 2**53 * t)) + 1, D - 1].  Each is a search for the least i >= 0 with
a * i mod m in an interval, in the manner of Euclid's algorithm (Ryu's min/max modular
search, Adams, PLDI 2018, asks the same of its own products), first checked against
brute force on small moduli; each c it finds is checked alone.  For each double among
those that miss, it checks the digits ``_round17`` gives against x rounded to 17
digits exactly; so it does for three doubles at every q (the least c, the largest and
a random one), which ties the k, table and rounding checked here to the module's.  It
prints what it found.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from pathlib import Path


def first(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least x >= 0 with lo <= a * x mod m <= hi (0 <= lo <= hi < m), or None.

    If no multiple of a mod m lands in [lo, hi] before the first wrap, x belongs to
    the least y >= 1 for which [lo + m * y, hi + m * y] holds a multiple of a, that is
    m * y mod a in [-hi mod a, -lo mod a]: the same question for (m mod a, a)."""
    frames = []
    while True:
        a %= m
        if lo == 0:
            x = 0
            break
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        frames.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    for a, m, lo in reversed(frames):
        x = -(-(lo + m * x) // a)
    return x


def hits(n: int, d: int, lo: int, hi: int, c0: int, c1: int) -> bool:
    """Whether some c in [c0, c1] has lo <= c * n mod d <= hi (lo <= hi < d)."""
    if lo > hi:
        return False
    a, b = n % d, c0 * n % d
    lo, hi = (lo - b) % d, (hi - b) % d
    spans = [(lo, hi)] if lo <= hi else [(lo, d - 1), (0, hi)]
    return any((x := first(a, d, s, e)) is not None and x <= c1 - c0 for s, e in spans)


def misses(n: int, d: int, t: Fraction, c0: int, c1: int) -> tuple:
    """For V = c * n / d and the product V + c * t, how many c in [c0, c1] come near
    enough to an integer that the bounds over the range cannot tell, and those of them
    whose fraction the product loses or carries.  Each near c is checked alone, and the
    bound then moves on from it, so every c that misses is among them."""
    near, missed = 0, []
    for side in (0, 1):
        c = c0
        while c <= c1:
            if side == 0:  # the fraction f: f + c * t >= 2**-63 for every c >= this one
                edge = d * (Fraction(1, 2**63) - c * t)
                lo, hi = 1, -(-edge.numerator // edge.denominator) - 1
            else:  # f + c * t < 1 for every c <= c1
                edge = d * (1 - (c1 + 1) * t)
                lo, hi = edge.numerator // edge.denominator + 1, d - 1
            if lo > hi:
                break
            a, b = n % d, c * n % d
            lo, hi = (lo - b) % d, (hi - b) % d
            spans = [(lo, hi)] if lo <= hi else [(lo, d - 1), (0, hi)]
            found = [x for s, e in spans if (x := first(a, d, s, e)) is not None]
            if not found or c + min(found) > c1:
                break
            c += min(found)
            near += 1
            if not Fraction(1, 2**63) <= Fraction(c * n % d, d) + c * t < 1:
                missed.append(c)
            c += 1
    return near, missed


def rounded(x: Fraction) -> tuple:
    """x > 0 rounded to 17 significant digits, half to even: the digits and the first
    one's exponent."""
    X = len(str(x.numerator)) - len(str(x.denominator))  # floor(log10(x)), or one more
    X -= Fraction(10)**X > x
    d = round(x / Fraction(10)**(X - 16))
    return (d // 10, X + 1) if d == 10**17 else (d, X)


def self_test() -> None:
    rng = random.Random(5)
    for _ in range(3000):
        m = rng.randrange(1, 200)
        a, lo = rng.randrange(0, 3 * m), rng.randrange(0, m)
        hi = rng.randrange(lo, m)
        want = next((x for x in range(2 * m) if lo <= a * x % m <= hi), None)
        assert first(a, m, lo, hi) == want, (a, m, lo, hi)
        c0 = rng.randrange(0, 300)
        c1 = c0 + rng.randrange(0, 300)
        assert hits(a, m, lo, hi, c0, c1) == any(
            lo <= c * a % m <= hi for c in range(c0, c1 + 1)), (a, m, lo, hi, c0, c1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np

    from mdpgeo import floattext

    self_test()
    q = np.arange(-1126, 972)
    k = ((q * 661_971_961_083) >> 41) - 1
    g1, g0, h = floattext._power(q, k)
    c0, c1 = 2**52, 2**53 - 1
    exact = near = 0
    missed = []
    for qi, ki, g, hi in zip(q.tolist(), k.tolist(),
                             (g1.astype(object) * 2**63 + g0.astype(object)).tolist(),
                             h.tolist()):
        k0 = next(j for j in range(ki - 2, ki + 4) if Fraction(10)**(j + 1) > Fraction(2)**qi)
        assert ki == k0 - 1, (qi, ki, k0)
        assert 0 <= hi <= 8 and g < 2**126, (qi, hi)
        big = Fraction(10)**-ki * Fraction(2)**(127 + qi - hi)
        assert big < g <= big + 1, qi
        v = 4 * Fraction(2)**qi * Fraction(10)**-ki
        exact += v.denominator <= c1
        n, far = misses(v.numerator, v.denominator, Fraction(2)**(hi + 2 - 127) * (g - big),
                        c0, c1)
        near += n
        missed += [(qi, c) for c in far if qi >= -1074 or c % 2**(-1074 - qi) == 0]
    print(f"q {q[0]}..{q[-1]} ({q.size} binary exponents), k {k.min()}..{k.max()}, "
          f"h {h.min()}..{h.max()}: g in (G, G + 1] and cp < 2**63 for each; "
          f"{exact} exponents whose products are integers for some c; {near} c near an "
          f"integer checked alone; f + e leaves [2**-63, 1) for {len(missed)} doubles:")
    for qi, c in missed:
        x = math.ldexp(c, qi)
        d, X = floattext._round17(np.array([x]))
        want = rounded(c * Fraction(2)**qi)
        assert (int(d[0]), int(X[0])) == want, (qi, c)
        print(f"  {c} * 2**{qi} = {x!r}: 17 digits {want[0]}, X = {want[1]}, as printed")
    rng = random.Random(7)
    spots = [(qi, c >> s << s) for qi in q.tolist() for s in [max(0, -1074 - qi)]
             for c in (c0, c1, rng.randrange(c0, c1 + 1))]  # a subnormal's low bits are 0
    d, X = floattext._round17(np.array([math.ldexp(c, qi) for qi, c in spots]))
    assert list(zip(d.tolist(), X.tolist())) == [rounded(c * Fraction(2)**qi) for qi, c in spots]
    print(f"{len(spots)} doubles, three at each q, print their 17 digits rounded exactly")


if __name__ == "__main__":
    main()
