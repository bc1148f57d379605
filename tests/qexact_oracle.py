"""Test-only oracle: canonical form by Euclid's algorithm over Fraction.

This is the straightforward canonicalizer that ``qexact.QRational`` is
checked against.  It works on ``HalfLaurent`` values and dense lists of
Fractions, shares no code with the integer arithmetic of ``qexact``, and is
far too slow for the library itself.
"""

from fractions import Fraction
from math import gcd, lcm

from qcactus.qexact import HalfLaurent


def _to_list(h: HalfLaurent) -> list:
    out = [Fraction(0)] * (h.degree() + 1)
    for e, c in h.items():
        out[e] = c
    return out


def _from_list(cs) -> HalfLaurent:
    return HalfLaurent({e: c for e, c in enumerate(cs) if c})


def _trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _poly_divmod(a, b):
    a = list(a)
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    return _trim(q), _trim(a)


def _poly_gcd(a, b):
    """Monic gcd over the rationals."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def canonical(num: HalfLaurent, den: HalfLaurent):
    """(numerator, denominator) of num / den in canonical form.

    Both are polynomials in Q, not both divisible by Q, coprime over the
    rationals; the denominator is integer-primitive with positive lead.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return HalfLaurent(), HalfLaurent(1)
    shift = -min(num.valuation(), den.valuation())
    a = _to_list(num.shift(shift))
    b = _to_list(den.shift(shift))
    g = _poly_gcd(a, b)
    if len(g) > 1:
        a, _ = _poly_divmod(a, g)
        b, _ = _poly_divmod(b, g)
    denoms = lcm(*(c.denominator for c in b if c))
    numers = gcd(*(c.numerator * (denoms // c.denominator) for c in b if c))
    scale = Fraction(denoms, numers)
    if b[-1] < 0:
        scale = -scale
    return _from_list([c * scale for c in a]), _from_list([c * scale for c in b])


def canonical_str(num: HalfLaurent, den: HalfLaurent) -> str:
    n, d = canonical(num, den)
    if d == HalfLaurent(1):
        return str(n)
    return f"({n})/({d})"
