"""Cross-check of QRational's reduced form against sympy.cancel."""

import random
from fractions import Fraction

import pytest

from qcactus.qexact import QRational
from qexact_oracle import mul

sympy = pytest.importorskip("sympy")
Q = sympy.Symbol("Q")


def _to_sympy(h: dict):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * Q**e for e, c in h.items()),
        sympy.Integer(0),
    )


def _random_laurent(rng, terms):
    return {rng.randint(-4, 5): Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
            for _ in range(terms)}


def _random_pair(rng):
    common = {0: 1}
    for _ in range(rng.randint(0, 2)):
        common = mul(common, {0: rng.randint(-3, 3), 1: rng.randint(1, 3)})
    common = mul(common, {rng.randint(-2, 2): 1})
    den = {}
    while not any(den.values()):
        den = _random_laurent(rng, rng.randint(1, 4))
    return mul(_random_laurent(rng, rng.randint(1, 4)), common), mul(den, common)


def test_reduced_form_agrees_with_sympy_cancel():
    rng = random.Random(2008)
    for _ in range(150):
        num, den = _random_pair(rng)
        x = QRational(num, den)
        sym_num, sym_den = sympy.fraction(sympy.cancel(_to_sympy(num) / _to_sympy(den)))
        ours_num, ours_den = _to_sympy(x.numerator), _to_sympy(x.denominator)
        if x.is_zero():
            assert sym_num == 0
            continue
        # the reduced quotient is unique up to a constant, so the monic forms agree
        for ours, theirs in ((ours_num, sym_num), (ours_den, sym_den)):
            assert sympy.Poly(ours, Q).monic() == sympy.Poly(theirs, Q).monic()
        assert sympy.expand(ours_num * sym_den - sym_num * ours_den) == 0
