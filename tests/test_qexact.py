import os
from pathlib import Path
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qcactus.qexact import (
    ONE,
    ZERO,
    QRational,
    Qpow,
    is_regular_at_infinity,
    monomial_sqrt,
    parse_qrational,
    qpow,
    quantum_factorial,
    quantum_int,
    reduce_mod_qhalf,
)

q = qpow(1)
qi = qpow(-1)
Q = Qpow(1)


@pytest.mark.parametrize("k", [0.5, 1.0, Fraction(1, 2), Fraction(2), True, "1", None])
def test_q_powers_take_int_exponents_only(k):
    with pytest.raises(TypeError, match="int exponents"):
        Qpow(k)
    with pytest.raises(TypeError, match="int exponents"):
        qpow(k)


@pytest.mark.parametrize("k", [True, False, 1.0, 2.0, "2", None])
def test_exponents_and_quantum_integers_take_ints_only(k):
    # a bool is an int to isinstance, but not an exponent: Qpow refuses it too
    for call in (lambda: QRational({k: 1}), lambda: QRational(1, {k: 1}),
                 lambda: QRational(2) ** k, lambda: quantum_int(k),
                 lambda: quantum_factorial(k)):
        with pytest.raises(TypeError, match=re.escape(repr(k))):
            call()


def test_bool_values_are_the_numbers_they_equal():
    # only exponents refuse bools; as values True and False stay 1 and 0
    assert QRational(True) == ONE and QRational(False) == ZERO
    assert QRational({0: True}) == ONE and QRational(True, 2)._parts() == QRational(1, 2)._parts()
    assert type(QRational(True)._a) is int


def test_inverse_of_q_minus_qinv():
    x = q - qi
    assert x * (ONE / x) == ONE


def test_half_power_squares_to_q():
    assert Q * Q == q


def test_addition_with_common_denominator():
    lhs = (q * q - 1) / (1 + q * q) + (2 * q) / (1 + q * q)
    rhs = (q * q + 2 * q - 1) / (1 + q * q)
    assert lhs == rhs
    # cross-check by exact evaluation at two sample points
    for x in (Fraction(2), Fraction(3)):
        assert lhs.evaluate(x) == rhs.evaluate(x)


def test_quantum_int_small_values():
    assert quantum_int(0) == ZERO
    assert quantum_int(1) == ONE
    assert quantum_int(2) == q + qi
    # [3] must agree with the defining quotient (q^3 - q^-3)/(q - q^-1)
    assert quantum_int(3) == q * q + 1 + qi * qi
    assert quantum_int(3) == (qpow(3) - qpow(-3)) / (q - qi)
    assert quantum_int(-2) == -quantum_int(2)


def test_quantum_int_classical_limit():
    for n in range(-6, 7):
        assert quantum_int(n).evaluate(1) == n


def test_quantum_int_is_the_sum_of_its_q_powers():
    # [n] is built from its canonical parts at once; the reference adds the
    # powers one by one, [n + 2] = q^(n+1) + [n] + q^(-n-1)
    total = {0: ZERO, 1: ONE}
    for n in range(2, 201):
        total[n] = qpow(n - 1) + total[n - 2] + qpow(1 - n)
    for n in range(-50, 201):
        assert quantum_int(n) == (total[n] if n >= 0 else -total[-n])
    # built at once, not as a sum whose cost grows with the square of n
    assert quantum_int(10 ** 5).evaluate(1) == 10 ** 5


def test_quantum_factorial():
    assert quantum_factorial(0) == ONE
    assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)


def test_regularity_at_infinity():
    assert is_regular_at_infinity((2 * q) / (1 + q * q))
    assert not is_regular_at_infinity(Q)
    assert not is_regular_at_infinity((q - qi) * Qpow(-1))
    assert is_regular_at_infinity(ZERO)
    assert is_regular_at_infinity(QRational(7))


def test_reduce_mod_qhalf_values():
    assert reduce_mod_qhalf((q * q - 1) / (1 + q * q)) == 1
    assert reduce_mod_qhalf((2 * q) / (1 + q * q)) == 0
    assert reduce_mod_qhalf(QRational(7)) == 7
    with pytest.raises(ValueError):
        reduce_mod_qhalf(Q)


def _random_regular(rng):
    # regular elements are fractions with numerator degree <= denominator degree
    num = {k: rng.randint(-3, 3) for k in range(rng.randint(1, 3))}
    den = ONE
    for _ in range(rng.randint(0, 2)):
        den = den * QRational({0: rng.randint(1, 3), 1: rng.randint(-2, 2)})
    a = QRational(num, den)
    if not is_regular_at_infinity(a):
        return QRational(1, 1 + rng.randint(1, 3)) * (ONE / a if a else ONE)
    return a


def test_reduce_mod_qhalf_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        a, b = _random_regular(rng), _random_regular(rng)
        if not (is_regular_at_infinity(a) and is_regular_at_infinity(b)):
            continue
        assert reduce_mod_qhalf(a * b) == reduce_mod_qhalf(a) * reduce_mod_qhalf(b)
        assert reduce_mod_qhalf(a + b) == reduce_mod_qhalf(a) + reduce_mod_qhalf(b)


def test_monomial_sqrt():
    assert monomial_sqrt(q) == Q
    assert monomial_sqrt(qpow(-3)) == Qpow(-3)
    assert monomial_sqrt(4 * q * q) == 2 * q
    for bad in (q + 1, -q, Q):
        with pytest.raises(ValueError):
            monomial_sqrt(bad)
    assert monomial_sqrt(QRational(Fraction(9, 4)) * q) == QRational(Fraction(3, 2)) * Q
    for bad, message in ((QRational(Fraction(2, 9)), "2/9 is not the square"),
                         (QRational(Fraction(4, 3)) * q, "4/3 is not the square"),
                         (-4 * q, "negative coefficient")):
        with pytest.raises(ValueError, match=message):
            monomial_sqrt(bad)


def test_monomial_sqrt_squares_back():
    rng = random.Random(3)
    for _ in range(30):
        c = Fraction(rng.randint(1, 9) ** 2, rng.randint(1, 9) ** 2)
        e = 2 * rng.randint(-5, 5)
        a = QRational({e: c})
        r = monomial_sqrt(a)
        assert r * r == a


def _random_qrational(rng):
    def poly():
        return {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}

    den = poly()
    while not any(den.values()):
        den = poly()
    return QRational(poly(), den)


def test_field_axioms_on_random_triples():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (_random_qrational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError, match="division by zero QRational"):
        ONE / ZERO
    # the constructor names its own error, whatever form the zero denominator takes
    for den in (0, False, Fraction(0), {}, {0: 0, 3: 0}, QRational({2: 0}), ZERO):
        for num in (1, Fraction(1, 2), {1: 1}, Q, ZERO):
            with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
                QRational(num, den)


def test_dict_input_must_be_exact():
    # exponents count powers of Q, so they are ints; coefficients are exact
    for bad in ({0.5: 1}, {1: 0.5}, {"1": 1}):
        with pytest.raises(TypeError):
            QRational(bad)
        with pytest.raises(TypeError):
            QRational(1, bad)
    with pytest.raises(TypeError):
        QRational(0.5)
    # one rule for every exact input: an operand is an int or a Fraction
    for bad in (lambda: ONE + 0.5, lambda: 0.5 * ONE, lambda: ONE / "1", lambda: ONE - None):
        with pytest.raises(TypeError, match="unsupported operand"):
            bad()
    assert (ONE == 0.5) is False
    assert ONE + True == 2
    assert 2 - ONE == ONE
    assert Fraction(1, 2) / ONE == QRational(Fraction(1, 2))
    # and so is the point of evaluate
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        Qpow(1).evaluate(0.5)
    assert Qpow(3).evaluate(True) == 1
    assert (Qpow(3) + 1).evaluate(Fraction(1, 2)) == Fraction(9, 8)


def test_zero_denominator_in_text_is_malformed_text():
    # parsed text is outside input: a zero denominator is a ValueError naming
    # the text, not a ZeroDivisionError leaked from Fraction or QRational
    from qcactus.uqsl2 import QMatrix

    for text in ("1/0", "0/0", "(Q)/(0)"):
        with pytest.raises(ValueError, match="zero denominator in .*" + re.escape(text)):
            parse_qrational(text)
    entries = '{"rows": 1, "cols": 2, "entries": [["1", "1/0"]]}'
    with pytest.raises(ValueError, match="zero denominator in term '1/0'"):
        QMatrix.from_json(entries)


@pytest.mark.parametrize("bad", [None, 1, b"Q", ["Q"], Q])
def test_parser_reads_only_text(bad):
    with pytest.raises(TypeError, match="reads a str"):
        parse_qrational(bad)


def test_canonical_form_is_reduced():
    a = QRational(
        {2: 2, 0: -2},  # 2Q^2 - 2
        {2: 4, 1: 4},  # 4Q^2 + 4Q
    )
    # common factor Q+1 cancels; the denominator is made integer-primitive
    assert a.denominator == {1: 1}
    assert a.numerator == {1: Fraction(1, 2), 0: Fraction(-1, 2)}
    for poly in (a.numerator, a.denominator, ZERO.numerator, ZERO.denominator):
        assert type(poly) is dict
        assert all(type(e) is int and type(c) is Fraction for e, c in poly.items())
    assert (ZERO.numerator, ZERO.denominator) == ({}, {0: 1})
    # zero terms are dropped from the input, and no terms at all is zero
    padded = QRational({2: 2, 0: -2, 5: 0}, {2: 4, 1: 4, 0: Fraction(0), -3: 0})
    assert padded._parts() == a._parts()
    assert QRational({}, {0: 1}) == ZERO and QRational({}) == ZERO
    assert QRational({3: 0, 0: 7}) == QRational(7) and str(QRational({4: 0})) == "0"


def test_canonical_string_round_trip():
    samples = [
        (q * q - 1) / (q * q + 1),
        QRational(7),
        QRational(Fraction(-3, 2)),
        Qpow(-5) * (1 + q),
        ZERO,
        quantum_int(4),
        -Q,
    ]
    for a in samples:
        assert parse_qrational(str(a)) == a


def test_documented_string_form():
    assert str((q * q - 1) / (q * q + 1)) == "(Q^4 - 1)/(Q^4 + 1)"
    assert str(quantum_int(2)) == "(Q^4 + 1)/(Q^2)"
    assert str(QRational(7)) == "7"


def test_qrational_rejects_mutation():
    a = QRational(1)
    with pytest.raises(AttributeError):
        a._n = (2,)
    with pytest.raises(AttributeError):
        a._num = {1: 1}
    assert a == ONE


def test_hashable_and_structural_equality():
    a = (q * q - 1) / (q * q + 1)
    b = ((q - qi) * q) / ((q + qi) * q)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_that_compare_equal_hash_equal():
    half = Fraction(1, 2)
    pairs = [(QRational(3), 3), (ZERO, 0), (QRational(half), half), (QRational({0: 3}), 3),
             (QRational({1: 1}), Qpow(1)), (QRational({-2: half, 0: 1}), 1 + Qpow(-2) / 2)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    assert {3: "x"}[QRational(3)] == "x"
    assert QRational(3) in {3}
    assert ZERO in {0} and QRational({0: 3}) in {3}


# Call one Fraction edge of qexact first thing in a fresh interpreter, after
# checking that importing the quantum layers did not load fractions; print
# the result's repr and the type names of its values.
_FIRST_CALL = """
import sys
import qcactus.qexact, qcactus.uqsl2
from qcactus.qexact import QRational, Qpow, monomial_sqrt, parse_qrational, qpow, reduce_mod_qhalf
print("fractions" in sys.modules)
if {needs_fraction}:
    from fractions import Fraction
result = {expr}
print(repr(result))
print(*sorted({{type(v).__name__ for v in (result.values() if type(result) is dict else [result])}}))
"""


@pytest.mark.parametrize("expr, value, kind", [
    ("QRational(Fraction(1, 2))", "QRational('1/2')", "QRational"),
    ("QRational({0: Fraction(1, 3), 2: 1})", "QRational('Q^2 + 1/3')", "QRational"),
    ("QRational({2: 2, 0: -2}, {2: 4, 1: 4})", "QRational('(1/2*Q - 1/2)/(Q)')", "QRational"),
    ("((Qpow(2) + 1) / 3).numerator", "{0: Fraction(1, 3), 2: Fraction(1, 3)}", "Fraction"),
    ("(Qpow(1) / (Qpow(2) + 1)).denominator", "{0: Fraction(1, 1), 2: Fraction(1, 1)}",
     "Fraction"),
    ("((Qpow(2) + 1) / 3).evaluate(2)", "Fraction(5, 3)", "Fraction"),
    ("reduce_mod_qhalf((2 * Qpow(2) + 1) / (3 * Qpow(2)))", "Fraction(2, 3)", "Fraction"),
    ("reduce_mod_qhalf(Qpow(0) * 0)", "Fraction(0, 1)", "Fraction"),
    ("monomial_sqrt(4 * qpow(1) / 9)", "QRational('2/3*Q')", "QRational"),
    ("parse_qrational('1/2*Q')", "QRational('1/2*Q')", "QRational"),
    ("hash(QRational(1, 2)) == hash(1 / QRational(2)) == hash(Fraction(1, 2))", "True", "bool"),
])
def test_each_fraction_edge_works_as_the_first_call(expr, value, kind):
    # the test process has long loaded fractions, so an edge that lost its
    # import of Fraction would pass here and fail only in a fresh launch
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = _FIRST_CALL.format(expr=expr, needs_fraction="Fraction" in expr)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.stdout.splitlines() == ["False", value, kind], proc.stderr
