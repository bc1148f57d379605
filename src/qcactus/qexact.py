"""Exact arithmetic in the field of rational functions of q^(1/2).

Everything is stored in the variable Q = q^(1/2) with integer exponents,
so "half powers of q" never need fractional bookkeeping.  One type
carries the values: QRational, a rational function
a/b * Q^e * n(Q^s) / d(Q^s), stored graded: a/b is an integer content,
e the net Q-exponent, and n, d dense tuples of ints in x = Q^s, index i
holding the coefficient of x^i.  Laurent polynomials in Q go in and come
out as plain {Q-exponent: coefficient} dicts: ``QRational(num, den)``
reads each argument as one and divides, ``numerator`` and
``denominator`` return them with Fraction coefficients, and the parser
fills one.  One reader, ``_read``, decides what an exact input is: a
QRational, an int, a Fraction, or such a dict of ints and Fractions.  The
constructor, the operands of the arithmetic (where a dict is not a
number) and the point of ``evaluate`` all go through it.  Strings are
printed from the integer parts, each coefficient a*p[i]/b reduced by one
integer gcd, so arithmetic and printing never build a Fraction.
``fractions`` is imported only at the edges where a Fraction goes in or
out: any input but an int or a QRational, ``numerator``,
``denominator``, ``evaluate``, ``reduce_mod_qhalf``, the parser and the
hash of a constant.  A launch that only computes with ints and
QRationals and prints them never loads it.

Canonical form: b > 0 and gcd(a, b) = 1; n and d have nonzero constant
terms, are primitive (coefficient gcd 1) with positive leading
coefficients, and are coprime; the stride s is the gcd of the exponents
of the nonzero terms of n(Q^s) and d(Q^s) together, and 1 when both are
constant.  Zero is a = 0, b = 1, e = 0, s = 1, n = (), d = (1,).  Every
value has exactly one such form, so equality of values is structural
equality of the stored data, which is what every verification routine in
this package relies on.

The grading pays because the operands of a braiding are powers of Q
times polynomials in Q^2 or Q^4: stored densely in Q they would be mostly
zeros, and a monomial is just (a, b, e, 1, (1,), (1,)), so multiplying by
one is O(1).  Field arithmetic never leaves the integers.  Products are
int convolutions, taken at the gcd of the two strides; sums are integer
combinations over the cofactors of the two denominators, with the
exponents aligned and a cancelled constant term moved into e; common
factors are found by the heuristic integer gcd (evaluation at a power of
two, accepted only when exact division proves it) and divided out.  A
product or sum can have a larger stride than its operands, as
(1 + Q^2)(1 - Q^2) = 1 - Q^4 has, so each result is decimated again.
The gcd is skipped when either side is constant, which covers every
Laurent polynomial.

The subring of elements regular at q = infinity consists of the fractions
whose numerator Q-degree does not exceed the denominator Q-degree; on it,
``reduce_mod_qhalf`` evaluates the power series in q^(-1/2) at zero.
There is no floating point anywhere.

All values are immutable after construction and every operation is a pure
function, so they are safe to share between threads.
"""

from math import gcd, isqrt, lcm
import re

from . import Record

__all__ = [
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


# -- dense integer polynomials: nonempty int tuples, index = exponent of x --

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

    Both have nonzero constant terms, so a constant on either side is
    coprime to the other, and the gcd is only computed when both sides
    have two or more terms.
    """
    if len(a) > 1 and len(b) > 1:
        return _gcd_quotients(a, b)
    return a, b, (1,)


def _lincomb(ka, a, kb, b, k):
    """ka * a + kb * x^k * b, or None when it vanishes."""
    out = [ka * y for y in a]
    if len(out) < len(b) + k:
        out.extend([0] * (len(b) + k - len(out)))
    for i, y in enumerate(b, k):
        out[i] += kb * y
    while out and not out[-1]:
        out.pop()
    return out or None


def _inflate(p, k):
    """p(x^k) for a polynomial p(x)."""
    if k == 1 or len(p) == 1:
        return p
    out = [0] * ((len(p) - 1) * k + 1)
    out[::k] = p
    return tuple(out)


def _joint_stride(n, d):
    """The gcd of the exponents of the nonzero terms of n and d; 0 when both are constant."""
    t = 0
    for p in (n, d):
        for i in range(1, len(p)):
            if p[i]:
                t = gcd(t, i)
                if t == 1:
                    return 1
    return t


class QRational:
    """A rational function of q^(1/2) in canonical form.

    Construct from ints, Fractions, {Q-exponent: coefficient} dicts or
    another QRational; an optional second argument is the denominator,
    and the value is num / den by the field division, so the arithmetic
    is the one route to the canonical form.  Arithmetic is exact field
    arithmetic; two values are equal iff their canonical forms coincide.
    ``numerator`` and ``denominator`` give the canonical quotient back as
    {Q-exponent: Fraction} dicts.
    """

    __slots__ = ("_a", "_b", "_e", "_s", "_n", "_d")

    def __init__(self, num=0, den=1):
        num, den = _read(num), _read(den)
        if not den._a:
            raise ZeroDivisionError("zero denominator")
        _store(self, *(num / den)._parts())

    __setattr__ = __delattr__ = Record.__setattr__

    def _parts(self):
        return self._a, self._b, self._e, self._s, self._n, self._d

    def __reduce__(self):
        return _make, self._parts()

    @property
    def numerator(self) -> dict:
        from fractions import Fraction
        a, b, s, top = self._a, self._b, self._s, max(self._e, 0)
        return {top + i * s: Fraction(a * x, b) for i, x in enumerate(self._n) if x}

    @property
    def denominator(self) -> dict:
        from fractions import Fraction
        s, top = self._s, max(-self._e, 0)
        return {top + i * s: Fraction(x) for i, x in enumerate(self._d) if x}

    def is_zero(self) -> bool:
        return not self._a

    def __bool__(self):
        return bool(self._a)

    @staticmethod
    def _coerce(x):
        """An operand as a QRational: itself, an int or a Fraction; None for anything else."""
        if isinstance(x, QRational):
            return x
        try:
            return None if isinstance(x, dict) else _read(x)
        except TypeError:
            return None

    def __add__(self, other):
        if not isinstance(other, QRational):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other._a:
            return self
        if not self._a:
            return other
        x, y = (self, other) if self._e <= other._e else (other, self)
        shift = y._e - x._e
        nx, dx, ny, dy = x._n, x._d, y._n, y._d
        # the common stride; a monomial fits every stride
        sx = x._s if len(nx) > 1 or len(dx) > 1 else 0
        sy = y._s if len(ny) > 1 or len(dy) > 1 else 0
        s = gcd(sx, sy, shift) or 1
        if sx > s:
            nx, dx = _inflate(nx, sx // s), _inflate(dx, sx // s)
        if sy > s:
            ny, dy = _inflate(ny, sy // s), _inflate(dy, sy // s)
        if dx == dy:
            cx = cy = (1,)
            g = dx
        else:
            cx, cy, g = _cancel(dx, dy)
        # with X = Q^s and k = shift / s, x + y is
        # Q^(x._e) (kx * nx * cy + ky * X^k * ny * cx) / (l * g * cx * cy);
        # the sum is coprime to cx and cy, so only g can cancel
        bx, by = x._b, y._b
        l = lcm(bx, by)
        total = _lincomb(x._a * (l // bx), _mul(nx, cy), y._a * (l // by), _mul(ny, cx), shift // s)
        if total is None:
            return ZERO
        v = 0
        while not total[v]:  # a cancelled constant term, only when shift == 0
            v += 1
        k, n = _primitive(total[v:] if v else total)
        n, g, _ = _cancel(n, g)
        h = gcd(k, l)
        return _make(k // h, l // h, x._e + v * s, *_decimate(s, n, _mul(_mul(g, cx), cy)))

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
        return _make(-self._a, self._b, self._e, self._s, self._n, self._d)

    def __mul__(self, other):
        if not isinstance(other, QRational):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        ax, ay = self._a, other._a
        if not (ax and ay):
            return ZERO
        bx, by = self._b, other._b
        if bx == by == 1:
            a, b = ax * ay, 1
        else:
            gx, gy = gcd(ax, by), gcd(ay, bx)
            a, b = (ax // gx) * (ay // gy), (bx // gy) * (by // gx)
        e = self._e + other._e
        nx, dx, ny, dy = self._n, self._d, other._n, other._d
        if len(ny) == 1 == len(dy):
            return _make(a, b, e, self._s, nx, dx)
        if len(nx) == 1 == len(dx):
            return _make(a, b, e, other._s, ny, dy)
        sx, sy = self._s, other._s
        s = sx
        if sx != sy:
            s = gcd(sx, sy)
            nx, dx = _inflate(nx, sx // s), _inflate(dx, sx // s)
            ny, dy = _inflate(ny, sy // s), _inflate(dy, sy // s)
        # both factors are reduced, so only the cross pairs can cancel
        nx, dy, _ = _cancel(nx, dy)
        ny, dx, _ = _cancel(ny, dx)
        return _make(a, b, e, *_decimate(s, _mul(nx, ny), _mul(dx, dy)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = other._a
        if not a:
            raise ZeroDivisionError("division by zero QRational")
        b = other._b if a > 0 else -other._b
        return self * _make(b, abs(a), -other._e, other._s, other._d, other._n)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int:
            raise TypeError(f"QRational takes int exponents, got {n!r}")
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
        return (self._a == other._a and self._b == other._b and self._e == other._e
                and self._s == other._s and self._n == other._n and self._d == other._d)

    def __hash__(self):
        if not self._e and len(self._n) <= 1 and len(self._d) == 1:
            from fractions import Fraction
            return hash(Fraction(self._a, self._b))  # a constant hashes as the number it equals
        return hash(self._parts())

    def evaluate(self, x) -> "Fraction":
        """Exact value at Q = x.

        Canonical form has coprime numerator and denominator, so any
        removable singularity has already been cancelled; a vanishing
        denominator therefore means the value genuinely diverges.
        """
        from fractions import Fraction
        _read({0: x})  # TypeError unless the point is an int or a Fraction
        e, vs = self._e, x ** self._s
        d = _horner(self._d, vs) * x ** max(-e, 0)
        if d == 0:
            raise ZeroDivisionError(f"pole at Q = {x}")
        return Fraction(self._a, self._b) * _horner(self._n, vs) * x ** max(e, 0) / d

    def __str__(self):
        if not self._a:  # zero: most entries of a braiding
            return "0"
        e, s = self._e, self._s
        num = _terms_str(self._a, self._b, self._n, max(e, 0), s)
        if e >= 0 and len(self._d) == 1:
            return num
        return f"({num})/({_terms_str(1, 1, self._d, max(-e, 0), s)})"

    def __repr__(self):
        return f"QRational({str(self)!r})"


_set_a, _set_b, _set_e, _set_s, _set_n, _set_d = (
    getattr(QRational, name).__set__ for name in QRational.__slots__)


def _store(out, a, b, e, s, n, d):
    """Fill the slots of a QRational under construction."""
    _set_a(out, a)
    _set_b(out, b)
    _set_e(out, e)
    _set_s(out, s)
    _set_n(out, n)
    _set_d(out, d)


def _read(x) -> QRational:
    """An exact input as a QRational: the one rule for what is exact.

    A QRational is kept as it is.  An int is built from its int part, so no
    Fraction is made for it.  A Fraction, or a {Q-exponent: coefficient}
    dict with int exponents and int or Fraction coefficients, is the Laurent
    polynomial a/b * Q^v * p(Q), p primitive, rewritten at its stride.
    Anything else raises TypeError.
    """
    if isinstance(x, QRational):
        return x
    if isinstance(x, int):
        return _make(int(x), 1, 0, 1, (1,), (1,)) if x else ZERO
    from fractions import Fraction
    h = {}
    for e, c in x.items() if isinstance(x, dict) else ((0, x),):
        if type(e) is not int:
            raise TypeError(f"Q takes int exponents, got {e!r}")
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(c).__name__}")
        if c:
            h[e] = c
    if not h:
        return ZERO
    v, b = min(h), lcm(*(c.denominator for c in h.values()))
    p = [0] * (max(h) - v + 1)
    for e, c in h.items():
        p[e - v] = c.numerator * (b // c.denominator)
    a, p = _primitive(p)
    g = gcd(a, b)
    return _make(a // g, b // g, v, *_decimate(1, p, (1,)))


def _make(a, b, e, s, n, d) -> QRational:
    """A QRational from parts already in canonical form."""
    out = object.__new__(QRational)
    _store(out, a, b, e, s, n, d)
    return out


def _decimate(s, n, d):
    """(stride, n, d) once n(x) and d(x) at stride s are rewritten in x^t for their joint stride t."""
    t = _joint_stride(n, d)
    if t == 1:
        return s, n, d
    if not t:
        return 1, n, d
    return s * t, n[::t], d[::t]


def _horner(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


ZERO = _make(0, 1, 0, 1, (), (1,))
ONE = _make(1, 1, 0, 1, (1,), (1,))


def Qpow(k: int) -> QRational:
    """Q^k = q^(k/2) as a QRational; k must be an int."""
    if type(k) is not int:
        raise TypeError(f"Q takes int exponents, got {k!r}")
    return _make(1, 1, k, 1, (1,), (1,))


def qpow(n: int) -> QRational:
    """q^n as a QRational; n must be an int."""
    if type(n) is not int:
        raise TypeError(f"q takes int exponents, got {n!r}")
    return _make(1, 1, 2 * n, 1, (1,), (1,))


def quantum_int(n: int) -> QRational:
    """The balanced q-integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n).

    [0] = 0 and [-n] = -[n]; the substitution q -> 1 sends [n] to n.
    """
    if type(n) is not int:
        raise TypeError(f"quantum integers take int arguments, got {n!r}")
    if n < 0:
        return -quantum_int(-n)
    if n < 2:
        return ONE if n else ZERO
    # Q^(2-2n) (1 + x + ... + x^(n-1)) at x = Q^4, already canonical
    return _make(1, 1, 2 - 2 * n, 4, (1,) * n, (1,))


def quantum_factorial(n: int) -> QRational:
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if type(n) is not int:
        raise TypeError(f"quantum factorials take int arguments, got {n!r}")
    if n < 0:
        raise ValueError("factorial of a negative integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * quantum_int(k)
    return out


def _degree_gap(a: QRational) -> int:
    """Q-degree of the numerator minus Q-degree of the denominator of a nonzero a."""
    return a._e + a._s * (len(a._n) - len(a._d))


def is_regular_at_infinity(a: QRational) -> bool:
    """True iff ``a`` stays finite as q -> infinity.

    Equivalently, ``a`` can be written as g1(q^(-1/2)) / g2(q^(-1/2))
    with g2(0) != 0; in canonical form this is just a degree comparison.
    """
    return a.is_zero() or _degree_gap(a) <= 0


def _constant_at_infinity(a: QRational) -> tuple:
    """``reduce_mod_qhalf(a)`` as an int pair (num, den): den > 0, not reduced."""
    if a.is_zero():
        return 0, 1
    gap = _degree_gap(a)
    if gap > 0:
        raise ValueError(f"{a} is not regular at q = infinity")
    if gap < 0:
        return 0, 1
    return a._a * a._n[-1], a._b * a._d[-1]


def reduce_mod_qhalf(a: QRational) -> "Fraction":
    """Constant term of ``a`` as a power series in q^(-1/2).

    Defined only on elements regular at infinity, where it is a ring
    homomorphism onto the exact rationals.
    """
    from fractions import Fraction
    return Fraction(*_constant_at_infinity(a))


def monomial_sqrt(a: QRational) -> QRational:
    """Square root of a monomial c * Q^(2k) with c a positive rational square.

    Returns the root with positive coefficient; anything that is not such
    a monomial is rejected.  The test-only oracle of block-by-block
    unitarization and the arithmetic demo use it.
    """
    if a.is_zero() or len(a._n) > 1 or len(a._d) > 1:
        raise ValueError(f"{a} is not a monomial")
    if a._e % 2:
        raise ValueError(f"{a} has odd Q-exponent {a._e}")
    c, b = a._a, a._b  # coprime, so c/b is a square iff both are
    if c < 0:
        raise ValueError("square root of a negative coefficient")
    rc, rb = isqrt(c), isqrt(b)
    if rc * rc != c or rb * rb != b:
        raise ValueError(f"{_terms_str(c, b, (1,), 0, 1)} is not the square of a rational")
    return _make(rc, rb, a._e // 2, 1, (1,), (1,))


# -- canonical string form -------------------------------------------------

def _terms_str(a: int, b: int, p, shift: int, stride: int) -> str:
    """Canonical string of a/b * Q^shift * p(Q^stride), terms by descending exponent.

    Each coefficient a*p[i]/b is reduced by one integer gcd and printed as
    a Fraction prints; b > 0 and p has a nonzero term.
    """
    parts = []
    for i in range(len(p) - 1, -1, -1):
        if not p[i]:
            continue
        c = a * p[i]
        if parts:
            parts.append(" - " if c < 0 else " + ")
            c = abs(c)
        d = b
        if d != 1:
            g = gcd(c, d)
            c, d = c // g, d // g
        e = shift + i * stride
        if not e:
            parts.append(str(c) if d == 1 else f"{c}/{d}")
        else:
            qpart = "Q" if e == 1 else f"Q^{e}"
            if d != 1:
                parts.append(f"{c}/{d}*{qpart}")
            elif c == 1:
                parts.append(qpart)
            elif c == -1:
                parts.append(f"-{qpart}")
            else:
                parts.append(f"{c}*{qpart}")
    return "".join(parts)


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?P<q>Q(?:\^(?P<exp>-?\d+))?)?$"
)


def _parse_poly(s: str) -> dict:
    """The {Q-exponent: Fraction} map of a polynomial's text, zero terms dropped."""
    from fractions import Fraction
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace(" - ", " + -").replace(" + ", "\x00")
    out = {}
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
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def parse_qrational(s: str) -> QRational:
    """Parse the canonical string form, e.g. ``"(Q^4 - 1)/(Q^4 + 1)"``.

    Malformed text, a zero denominator included, raises ValueError, and
    anything but a str raises TypeError.
    """
    if not isinstance(s, str):
        raise TypeError(f"parse_qrational reads a str, got {type(s).__name__}")
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        idx = s.index(")/(")
        den = _parse_poly(s[idx + 3:-1])
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        return QRational(_parse_poly(s[1:idx]), den)
    return QRational(_parse_poly(s))
