"""Test-only oracle: canonical form by Euclid's algorithm over Fraction.

This is the straightforward canonicalizer that ``qexact.QRational`` is
checked against.  It works on {Q-exponent: coefficient} dicts and dense
lists of Fractions, imports nothing from ``qcactus`` (its arithmetic and
its printer are its own), and is far too slow for the library itself.
"""

from fractions import Fraction
from math import gcd, lcm


def clean(p: dict) -> dict:
    """p with Fraction coefficients and its zero terms dropped."""
    return {e: Fraction(c) for e, c in p.items() if c}


def add(p: dict, r: dict) -> dict:
    out = clean(p)
    for e, c in r.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def neg(p: dict) -> dict:
    return {e: -c for e, c in clean(p).items()}


def mul(p: dict, r: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + Fraction(c1) * c2
    return clean(out)


def product(polys) -> dict:
    out = {0: Fraction(1)}
    for p in polys:
        out = mul(out, p)
    return out


def _to_list(p: dict, shift: int) -> list:
    out = [Fraction(0)] * (max(p) + shift + 1)
    for e, c in p.items():
        out[e + shift] = c
    return out


def _from_list(cs) -> dict:
    return {e: c for e, c in enumerate(cs) if c}


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


def canonical(num: dict, den: dict):
    """(numerator, denominator) dicts of num / den in canonical form.

    Both are polynomials in Q, not both divisible by Q, coprime over the
    rationals; the denominator is integer-primitive with positive lead.
    """
    num, den = clean(num), clean(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: Fraction(1)}
    shift = -min(min(num), min(den))
    a, b = _to_list(num, shift), _to_list(den, shift)
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


def _monomial_str(c: Fraction, e: int) -> str:
    if e == 0:
        return str(c)
    power = "Q" if e == 1 else f"Q^{e}"
    if c == 1:
        return power
    if c == -1:
        return "-" + power
    return f"{c}*{power}"


def poly_str(p: dict) -> str:
    """The printed form: terms by descending exponent, signs between them."""
    text = ""
    for e in sorted(p, reverse=True):
        c = p[e]
        if text:
            text += " - " if c < 0 else " + "
            c = abs(c)
        text += _monomial_str(c, e)
    return text or "0"


def canonical_str(num: dict, den: dict) -> str:
    n, d = canonical(num, den)
    if d == {0: 1}:
        return poly_str(n)
    return f"({poly_str(n)})/({poly_str(d)})"
