"""Exact arithmetic in the field of rational functions of q^(1/2).

Everything is stored in the variable Q = q^(1/2) with integer exponents,
so "half powers of q" never need fractional bookkeeping.  Two types carry
the values:

  HalfLaurent -- a Laurent polynomial in Q with exact rational coefficients,
                 kept as a sparse exponent -> Fraction map; it is the
                 input and output type (numerators, denominators, parsing);
  QRational   -- a rational function c * N / D, where c is one Fraction and
                 N, D are dense tuples of ints, index i holding the
                 coefficient of Q^i.

Canonical form: N and D are primitive (coefficient gcd 1) with positive
leading coefficients, coprime over the rationals, and not both divisible
by Q; zero is c = 0, N = (), D = (1,).  The numerator c * N and the
integer-primitive denominator D are therefore unique, so equality of
values is structural equality of the stored data, which is what every
verification routine in this package relies on.

Field arithmetic never leaves the integers.  Products are int
convolutions; sums are integer combinations over the cofactors of the
two denominators; common factors are found by the heuristic integer gcd
(evaluation at a power of two, accepted only when exact division proves
it) and divided out.  The gcd is skipped when either side is a
monomial in Q, which covers every Laurent polynomial.

The subring of elements regular at q = infinity consists of the fractions
whose numerator Q-degree does not exceed the denominator Q-degree; on it,
``reduce_mod_qhalf`` evaluates the power series in q^(-1/2) at zero.
There is no floating point anywhere.

All values are immutable after construction and every operation is a pure
function, so they are safe to share between threads.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
import re

from . import Record

__all__ = [
    "HalfLaurent",
    "QRational",
    "ZERO",
    "ONE",
    "Qpow",
    "qpow",
    "quantum_int",
    "quantum_factorial",
    "is_regular_at_infinity",
    "reduce_mod_qhalf",
    "monomial_sqrt",
    "parse_qrational",
]


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class HalfLaurent:
    """Laurent polynomial in Q = q^(1/2) with Fraction coefficients.

    The coefficient map never stores zeros, so equality and hashing are
    structural.  Exponents count powers of Q; the exponent of q is half
    the stored key.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs is None:
            pass
        elif isinstance(coeffs, HalfLaurent):
            data = dict(coeffs._coeffs)
        elif isinstance(coeffs, dict):
            for k, v in coeffs.items():
                if not isinstance(k, int):
                    raise TypeError("exponents must be integers (powers of Q)")
                v = _fr(v)
                if v:
                    data[k] = v
        else:
            v = _fr(coeffs)
            if v:
                data[0] = v
        object.__setattr__(self, "_coeffs", data)

    __setattr__ = __delattr__ = Record.__setattr__

    @classmethod
    def monomial(cls, coeff, exp: int = 0) -> "HalfLaurent":
        return cls({exp: _fr(coeff)})

    def items(self):
        return self._coeffs.items()

    def coefficient(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def degree(self) -> int:
        """Largest Q-exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    def valuation(self) -> int:
        """Smallest Q-exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self._coeffs)

    def leading_coefficient(self) -> Fraction:
        return self._coeffs[self.degree()]

    def shift(self, k: int) -> "HalfLaurent":
        """Multiply by Q^k."""
        return HalfLaurent({e + k: c for e, c in self._coeffs.items()})

    def __add__(self, other):
        other = other if isinstance(other, HalfLaurent) else HalfLaurent(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return HalfLaurent(out)

    def __neg__(self):
        return HalfLaurent({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = other if isinstance(other, HalfLaurent) else HalfLaurent(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, HalfLaurent) else HalfLaurent(other)
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return HalfLaurent(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HalfLaurent(other)
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # equal values hash equal across HalfLaurent, QRational and numbers
        return hash(QRational(self))

    def evaluate(self, x) -> Fraction:
        """Value at Q = x for a nonzero exact rational x (exact)."""
        x = _fr(x)
        if x == 0 and self._coeffs and min(self._coeffs) < 0:
            raise ZeroDivisionError("negative exponent at Q = 0")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x ** e
        return total

    def __str__(self):
        return _terms_str(sorted(self._coeffs.items(), reverse=True))

    def __repr__(self):
        return f"HalfLaurent({dict(sorted(self._coeffs.items()))!r})"


# -- dense integer polynomials: nonempty int tuples, index = Q-exponent -----

def _mul(a, b):
    """Product of two nonzero polynomials (int convolution)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        x = b[0]
        return a if x == 1 else tuple(x * y for y in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return tuple(out)


def _primitive(a):
    """(content, primitive part) of a nonzero polynomial.

    The content carries the sign that makes the primitive part's leading
    coefficient positive.
    """
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return 1, tuple(a)
    return g, tuple(x // g for x in a)


def _quotient(a, g):
    """a / g if g divides a over Z, else None."""
    dg = len(g) - 1
    if not dg:
        return a
    r = list(a)
    lg = g[-1]
    out = [0] * (len(a) - dg)
    for i in range(len(out) - 1, -1, -1):
        c = r[i + dg]
        if c:
            k, rem = divmod(c, lg)
            if rem:
                return None
            out[i] = k
            for j in range(dg):
                r[i + j] -= k * g[j]
    if any(r[:dg]):
        return None
    return tuple(out)


def _at_power_of_two(a, k):
    """a(2^k) as one integer."""
    acc = 0
    for c in reversed(a):
        acc = (acc << k) + c
    return acc


def _from_power_of_two(v, k):
    """The polynomial with value v at 2^k and coefficients in (-2^(k-1), 2^(k-1)]."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        c = v & mask
        if c > half:
            c -= 1 << k
        out.append(c)
        v = (v - c) >> k
    return out


def _gcd_quotients(a, b):
    """(a / g, b / g, g) for g the gcd of two primitive polynomials (GCDHEU).

    The heuristic gcd of Char, Geddes and Gonnet (1989): evaluate at
    xi = 2^k >= 2 min(|a|, |b|) + 2 (max-norms), take the integer gcd h,
    and read a polynomial back from the digits of h in base xi, each in
    (-xi/2, xi/2].  If its primitive part g divides both a and b (checked
    by exact division), g is the gcd: were it a proper divisor D / R of the
    gcd D, the content of the digit polynomial would be a multiple of
    R(xi), and |R(xi)| > xi/2 because R's roots lie inside the Cauchy
    bound 1 + min(|a|, |b|).  A failed division only means xi was too
    small, so xi is squared and the step repeated.
    """
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    while True:
        h = gcd(_at_power_of_two(a, k), _at_power_of_two(b, k))
        g = _primitive(_from_power_of_two(h, k))[1]
        qa = _quotient(a, g)
        if qa is not None:
            qb = _quotient(b, g)
            if qb is not None:
                return qa, qb, g
        k *= 2


def _cancel(a, b):
    """(a / g, b / g, g) for g the gcd of two primitive polynomials.

    The common power of Q is split off first; after that a monomial on
    either side is coprime to the other, so the gcd is only computed when
    both sides have two or more terms.
    """
    v = 0
    while not (a[v] or b[v]):
        v += 1
    if v:
        a, b = a[v:], b[v:]
    g = (1,)
    if any(a[:-1]) and any(b[:-1]):
        a, b, g = _gcd_quotients(a, b)
    return a, b, (0,) * v + g


def _lincomb(ka, a, kb, b):
    """ka * a + kb * b, or None when it vanishes."""
    if len(a) < len(b):
        ka, a, kb, b = kb, b, ka, a
    out = [ka * x for x in a]
    for i, y in enumerate(b):
        out[i] += kb * y
    while out and not out[-1]:
        out.pop()
    return out or None


def _integer_poly(h: HalfLaurent, shift: int):
    """(c, P) with h = c * Q^shift * P and P a primitive int tuple."""
    scale = lcm(*(c.denominator for c in h._coeffs.values()))
    out = [0] * (h.degree() - shift + 1)
    for e, c in h._coeffs.items():
        out[e - shift] = c.numerator * (scale // c.denominator)
    content, p = _primitive(out)
    return Fraction(content, scale), p


class QRational:
    """A rational function of q^(1/2) in canonical form.

    Construct from ints, Fractions, HalfLaurents or another QRational;
    an optional second argument is the denominator.  Arithmetic is exact
    field arithmetic; two values are equal iff their canonical forms
    coincide.
    """

    __slots__ = ("_c", "_n", "_d")

    def __init__(self, num=0, den=1):
        if isinstance(num, QRational) or isinstance(den, QRational):
            a = num if isinstance(num, QRational) else QRational(num)
            b = den if isinstance(den, QRational) else QRational(den)
            value = a / b
            c, n, d = value._c, value._n, value._d
        elif isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
            if not den:
                raise ZeroDivisionError("zero denominator")
            c = _fr(num) / den
            n, d = ((1,), (1,)) if c else ((), (1,))
        else:
            num = num if isinstance(num, HalfLaurent) else HalfLaurent(num)
            den = den if isinstance(den, HalfLaurent) else HalfLaurent(den)
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            if num.is_zero():
                c, n, d = Fraction(0), (), (1,)
            else:
                shift = min(num.valuation(), den.valuation())
                cn, n = _integer_poly(num, shift)
                cd, d = _integer_poly(den, shift)
                c = cn / cd
                n, d, _ = _cancel(n, d)
        _set_c(self, c)
        _set_n(self, n)
        _set_d(self, d)

    __setattr__ = __delattr__ = Record.__setattr__

    @property
    def numerator(self) -> HalfLaurent:
        c = self._c
        return HalfLaurent({e: c * x for e, x in enumerate(self._n) if x})

    @property
    def denominator(self) -> HalfLaurent:
        return HalfLaurent({e: x for e, x in enumerate(self._d) if x})

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRational):
            return x
        if isinstance(x, (int, Fraction, HalfLaurent)):
            return QRational(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        dx, dy = self._d, other._d
        if dx == dy:
            ex = ey = (1,)
            g = dx
        else:
            ex, ey, g = _cancel(dx, dy)
        # self + other = (kx * Nx * ey + ky * Ny * ex) / (l * g * ex * ey);
        # Nx * ey + Ny * ex is coprime to ex and ey, so only g can cancel
        cx, cy = self._c, other._c
        l = lcm(cx.denominator, cy.denominator)
        kx = cx.numerator * (l // cx.denominator)
        ky = cy.numerator * (l // cy.denominator)
        s = _lincomb(kx, _mul(self._n, ey), ky, _mul(other._n, ex))
        if s is None:
            return ZERO
        k, s = _primitive(s)
        n, g, _ = _cancel(s, g)
        return _make(Fraction(k, l), n, _mul(_mul(g, ex), ey))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(-self._c, self._n, self._d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not (self._n and other._n):
            return ZERO
        # both factors are reduced, so only the cross pairs can cancel
        nx, dy, _ = _cancel(self._n, other._d)
        ny, dx, _ = _cancel(other._n, self._d)
        return _make(self._c * other._c, _mul(nx, ny), _mul(dx, dy))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero QRational")
        return self * _make(1 / other._c, other._d, other._n)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c and self._n == other._n and self._d == other._d

    def __hash__(self):
        if self._d == (1,) and self._n in ((), (1,)):
            return hash(self._c)  # a constant hashes as the number it equals
        return hash((self._c, self._n, self._d))

    def evaluate(self, x) -> Fraction:
        """Exact value at Q = x.

        Canonical form has coprime numerator and denominator, so any
        removable singularity has already been cancelled; a vanishing
        denominator therefore means the value genuinely diverges.
        """
        v = _fr(x)
        d = _horner(self._d, v)
        if d == 0:
            raise ZeroDivisionError(f"pole at Q = {x}")
        return self._c * _horner(self._n, v) / d

    def __str__(self):
        if not self._n:  # zero, canonically over (1,): most entries of a braiding
            return "0"
        num = _terms_str(_dense_terms(self._c, self._n))
        if self._d == (1,):
            return num
        return f"({num})/({_terms_str(_dense_terms(1, self._d))})"

    def __repr__(self):
        return f"QRational({str(self)!r})"


_set_c = QRational._c.__set__
_set_n = QRational._n.__set__
_set_d = QRational._d.__set__


def _make(c, n, d) -> QRational:
    """A QRational from parts already in canonical form."""
    out = object.__new__(QRational)
    _set_c(out, c)
    _set_n(out, n)
    _set_d(out, d)
    return out


def _horner(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


ZERO = QRational(0)
ONE = QRational(1)


def Qpow(k: int) -> QRational:
    """Q^k = q^(k/2) as a QRational."""
    if k >= 0:
        return _make(Fraction(1), (0,) * k + (1,), (1,))
    return _make(Fraction(1), (1,), (0,) * -k + (1,))


def qpow(n: int) -> QRational:
    """q^n as a QRational."""
    return Qpow(2 * n)


def quantum_int(n: int) -> QRational:
    """The balanced q-integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n).

    [0] = 0 and [-n] = -[n]; the substitution q -> 1 sends [n] to n.
    """
    if n < 0:
        return -quantum_int(-n)
    out = ZERO
    for i in range(n):
        out = out + qpow(n - 1 - 2 * i)
    return out


def quantum_factorial(n: int) -> QRational:
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * quantum_int(k)
    return out


def is_regular_at_infinity(a: QRational) -> bool:
    """True iff ``a`` stays finite as q -> infinity.

    Equivalently, ``a`` can be written as g1(q^(-1/2)) / g2(q^(-1/2))
    with g2(0) != 0; in canonical form this is just a degree comparison.
    """
    return a.is_zero() or len(a._n) <= len(a._d)


def reduce_mod_qhalf(a: QRational) -> Fraction:
    """Constant term of ``a`` as a power series in q^(-1/2).

    Defined only on elements regular at infinity, where it is a ring
    homomorphism onto the exact rationals.
    """
    if a.is_zero():
        return Fraction(0)
    dn, dd = len(a._n), len(a._d)
    if dn > dd:
        raise ValueError(f"{a} is not regular at q = infinity")
    if dn < dd:
        return Fraction(0)
    return a._c * a._n[-1] / a._d[-1]


def _fraction_sqrt(c: Fraction) -> Fraction:
    if c < 0:
        raise ValueError("square root of a negative coefficient")
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        raise ValueError(f"{c} is not the square of a rational")
    return Fraction(rn, rd)


def monomial_sqrt(a: QRational) -> QRational:
    """Square root of a monomial c * Q^(2k) with c a positive rational square.

    Returns the root with positive coefficient; anything that is not such
    a monomial is rejected.  The library no longer calls it: the
    unitarization takes Drinfeld's ribbon formula instead.  The test-only
    oracle of block-by-block unitarization and the arithmetic demo use it.
    """
    # a primitive monomial with positive lead is Q^e itself, so c is the coefficient
    if a.is_zero() or any(a._n[:-1]) or any(a._d[:-1]):
        raise ValueError(f"{a} is not a monomial")
    exp = len(a._n) - len(a._d)
    if exp % 2:
        raise ValueError(f"{a} has odd Q-exponent {exp}")
    return _fraction_sqrt(a._c) * Qpow(exp // 2)


# -- canonical string form -------------------------------------------------

def _term_str(c: Fraction, e: int) -> str:
    if e == 0:
        return str(c)
    qpart = "Q" if e == 1 else f"Q^{e}"
    if c == 1:
        return qpart
    if c == -1:
        return f"-{qpart}"
    return f"{c}*{qpart}"


def _dense_terms(c, p):
    """(exponent, coefficient) pairs of c * p, exponents descending."""
    return [(e, c * p[e]) for e in range(len(p) - 1, -1, -1) if p[e]]


def _terms_str(terms) -> str:
    """Canonical string of (exponent, coefficient) pairs, exponents descending."""
    parts = []
    for e, c in terms:
        if parts:
            parts.append(" - " if c < 0 else " + ")
            parts.append(_term_str(abs(c), e))
        else:
            parts.append(_term_str(c, e))
    return "".join(parts) or "0"


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?P<q>Q(?:\^(?P<exp>-?\d+))?)?$"
)


def _parse_poly(s: str) -> HalfLaurent:
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace(" - ", " + -").replace(" + ", "\x00")
    out = HalfLaurent()
    for raw in s.split("\x00"):
        raw = raw.strip()
        m = _TERM_RE.match(raw)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse term {raw!r}")
        try:
            c = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {raw!r}") from None
        if m.group("sign") == "-":
            c = -c
        if m.group("q"):
            e = int(m.group("exp")) if m.group("exp") else 1
        else:
            e = 0
        out = out + HalfLaurent.monomial(c, e)
    return out


def parse_qrational(s: str) -> QRational:
    """Parse the canonical string form, e.g. ``"(Q^4 - 1)/(Q^4 + 1)"``.

    Malformed text, a zero denominator included, raises ValueError.
    """
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        idx = s.index(")/(")
        den = _parse_poly(s[idx + 3:-1])
        if den.is_zero():
            raise ValueError(f"zero denominator in {s!r}")
        return QRational(_parse_poly(s[1:idx]), den)
    return QRational(_parse_poly(s))
