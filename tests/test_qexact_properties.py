"""Property tests of QRational against the Fraction-Euclid oracle.

Polynomials are {Q-exponent: coefficient} dicts, the input type of
``QRational(num, den)``; the oracle multiplies and adds them on its own.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qcactus.qexact import ONE, ZERO, QRational, Qpow, parse_qrational
import qexact_oracle
from qexact_oracle import add, canonical, canonical_str, mul, neg, product

settings.register_profile("qexact", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("qexact")

coefficients = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4])
)
dense = st.dictionaries(st.integers(-4, 6), coefficients, max_size=4)


@st.composite
def graded(draw):
    """Q^k * p(Q^s) for s in {1, 2, 4}: the shape of a braiding's entries."""
    s, k = draw(st.sampled_from([1, 2, 4])), draw(st.integers(-4, 4))
    p = draw(st.dictionaries(st.integers(0, 3), coefficients, max_size=3))
    return {k + s * i: c for i, c in p.items()}


# random dicts almost always have stride 1, so graded values are drawn as often
laurent = st.one_of(dense, graded())
def _nonzero(p):
    return any(p.values())


nonzero_laurent = laurent.filter(_nonzero)


# common factors that canonicalization has to find and cancel
q_powers = st.integers(-3, 3).map(lambda k: {k: 1})
scalars = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)).map(lambda c: {0: c})
linear = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
    lambda ab: {0: ab[0], 1: ab[1]}
)
factors = st.lists(st.one_of(q_powers, scalars, linear, graded().filter(_nonzero)),
                   max_size=3).map(product)


@st.composite
def fraction_pairs(draw):
    """(num, den) dicts, often sharing a nontrivial common factor."""
    common = draw(factors)
    return mul(draw(laurent), common), mul(draw(nonzero_laurent), common)


values = fraction_pairs().map(lambda nd: QRational(*nd))


@given(fraction_pairs(), coefficients, st.sampled_from(["dict", "QRational", "Fraction"]),
       st.sampled_from(["dict", "QRational"]))
def test_constructor_matches_oracle(pair, c, num_type, den_type):
    # each side as a dict or as a QRational read on its own; a Fraction
    # numerator stands for the constant dict {0: c}
    num, den = pair
    if num_type == "Fraction":
        num = {0: c}
    as_type = {"dict": lambda p: p, "QRational": QRational, "Fraction": lambda p: c}
    x = QRational(as_type[num_type](num), as_type[den_type](den))
    n, d = canonical(num, den)
    assert x.numerator == n
    assert x.denominator == d
    assert str(x) == canonical_str(num, den)


@given(fraction_pairs(), fraction_pairs())
def test_arithmetic_matches_oracle(p, r):
    (an, ad), (bn, bd) = p, r
    a, b = QRational(an, ad), QRational(bn, bd)
    expected = {
        "add": canonical(add(mul(an, bd), mul(bn, ad)), mul(ad, bd)),
        "sub": canonical(add(mul(an, bd), neg(mul(bn, ad))), mul(ad, bd)),
        "mul": canonical(mul(an, bn), mul(ad, bd)),
    }
    got = {"add": a + b, "sub": a - b, "mul": a * b}
    if b:
        expected["div"] = canonical(mul(an, bd), mul(ad, bn))
        got["div"] = a / b
    for op, (n, d) in expected.items():
        assert (got[op].numerator, got[op].denominator) == (n, d), op


@given(values)
def test_string_round_trip(x):
    assert parse_qrational(str(x)) == x


@given(values, values, values)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE
        assert (b / a) * a == b


@given(fraction_pairs(), factors)
def test_equal_values_have_equal_hashes(pair, common):
    num, den = pair
    x = QRational(num, den)
    y = QRational(mul(num, common), mul(den, common))
    assert x == y
    assert hash(x) == hash(y)
    if x:
        z = (x * x) / x
        assert z == x
        assert hash(z) == hash(x)


# integer polynomials (index = Q-exponent) whose gcd is not found at the
# first evaluation point of the heuristic gcd, so it has to retry
RETRY_PAIRS = [
    ((2, 6, 4, 2, 3, 6, -4, 6), (2, 8, 12, 10, 3, 3, 3, 9)),
    ((0, -2, 3, 0, -3, 2), (-6, 3, 5, -9, 2)),
    ((-6, 7, -9, 7, -4, 2), (4, 4, -1, -1, -2, -1, 1)),
    ((4, 0, -9, 4, 2, -4, 3), (-4, 8, -9, 7, -3, 1)),
]


def test_gcd_retry_pairs_match_oracle():
    for a, b in RETRY_PAIRS:
        num, den = dict(enumerate(a)), dict(enumerate(b))
        x = QRational(num, den)
        assert (x.numerator, x.denominator) == canonical(num, den)
        assert max(x.denominator) < max(den)


def _matches_oracle(x, num, den):
    assert (x.numerator, x.denominator) == canonical(num, den)
    assert x == QRational(num, den) and hash(x) == hash(QRational(num, den))


def test_sum_and_product_of_mixed_strides_match_oracle():
    # stride 4 over stride 2 meets stride 2 shifted by one: the common stride is 1
    an, ad = {0: 1, 8: -3}, {0: 2, 4: 1}
    bn, bd = {1: 1, 5: 2}, {0: 1, 2: 1}
    a, b = QRational(an, ad), QRational(bn, bd)
    _matches_oracle(a + b, add(mul(an, bd), mul(bn, ad)), mul(ad, bd))
    _matches_oracle(a - b, add(mul(an, bd), neg(mul(bn, ad))), mul(ad, bd))
    _matches_oracle(a * b, mul(an, bn), mul(ad, bd))
    _matches_oracle(a / b, mul(an, bd), mul(ad, bn))


def test_a_cancelled_constant_term_moves_into_the_exponent():
    x = QRational({0: 1, 4: 1}) - 1
    assert x == Qpow(4) and str(x) == "Q^4" and hash(x) == hash(Qpow(4))
    y = QRational({0: 2, 4: 1, 12: 1}, {0: 1, 8: 1}) - 2
    _matches_oracle(y, {4: 1, 12: 1, 8: -2}, {0: 1, 8: 1})
    assert str(y) == "(Q^12 - 2*Q^8 + Q^4)/(Q^8 + 1)"


def test_a_product_can_have_a_larger_stride_than_its_factors():
    x = QRational({0: 1, 2: 1}) * QRational({0: 1, 2: -1})
    assert x == QRational({0: 1, 4: -1}) and str(x) == "-Q^4 + 1"
    y = QRational({0: 1, 1: 1}, {0: 1, 4: 1}) * QRational({0: 1, 1: -1})
    _matches_oracle(y, {0: 1, 2: -1}, {0: 1, 4: 1})


def test_the_oracle_imports_nothing_from_the_library():
    # an oracle that printed or reduced through qexact would share its bugs
    tree = ast.parse(Path(qexact_oracle.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "qcactus"], modules
