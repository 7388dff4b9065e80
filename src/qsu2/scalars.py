"""Exact arithmetic in the field Q(q) of rational functions of the
deformation parameter, plus the q-combinatorial special functions.

A scalar is a reduced fraction of integer-coefficient polynomials in q.
Normalized form is defined as: denominator nonzero with positive leading
coefficient, no common polynomial factor between numerator and denominator
(degree-0 integer factors included), so equality is tuple equality.
Negative powers of q are ordinary fractions (q^-1 is 1/q); there is no
separate Laurent representation.

Complex conjugation is the identity: q is a real parameter in (0,1) and
all coefficients are rational.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "QScalar",
    "QRational",
    "PoleError",
    "ZERO",
    "ONE",
    "Q",
    "q_pow",
    "q_number",
    "q_factorial",
    "gauss_binomial",
    "q_gamma_int",
    "QPoly",
    "q_pochhammer",
    "jackson_q_integral_01",
    "parse_scalar",
]

QRational = Fraction


class PoleError(ZeroDivisionError):
    """Raised when a scalar is specialized at a pole of its denominator."""


# ---------------------------------------------------------------------------
# integer-coefficient polynomials in q, little-endian coefficient tuples,
# no trailing zeros; the zero polynomial is the empty tuple
# ---------------------------------------------------------------------------

_PZERO: tuple[int, ...] = ()
_PONE: tuple[int, ...] = (1,)
_PQ: tuple[int, ...] = (0, 1)


def _ptrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(f, g):
    if len(f) < len(g):
        f, g = g, f
    c = list(f)
    for i, x in enumerate(g):
        c[i] += x
    return _ptrim(c)


def _pneg(f):
    return tuple(-x for x in f)


def _pmul(f, g):
    if not f or not g:
        return _PZERO
    c = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    c[i + j] += x * y
    return _ptrim(c)


def _pmul_int(f, n: int):
    if n == 0:
        return _PZERO
    return tuple(n * x for x in f)


def _pshift(f, k: int):
    # multiply by q^k, k >= 0
    if not f:
        return _PZERO
    return (0,) * k + tuple(f)


def _pcontent(f) -> int:
    c = 0
    for x in f:
        c = math.gcd(c, x)
    return c


def _plow(f) -> int:
    # order of vanishing at q = 0
    for i, x in enumerate(f):
        if x:
            return i
    return 0


def _pis_monomial(f) -> bool:
    return sum(1 for x in f if x) == 1


def _pprem(f, g):
    # pseudo-remainder of f by g (g nonzero)
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        k = len(f) - 1 - dg
        lf = f[-1]
        f = [lg * x for x in f]
        for i, y in enumerate(g):
            f[k + i] -= lf * y
    return _ptrim(f)


def _pgcd(f, g):
    """Polynomial gcd over Z[q], primitive, positive leading coefficient."""
    if not f and not g:
        return _PZERO
    if not f:
        f, g = g, f
    cf = _pcontent(f)
    pf = tuple(x // cf for x in f)
    if not g:
        return pf if pf[-1] > 0 else _pneg(pf)
    cg = _pcontent(g)
    pg = tuple(x // cg for x in g)
    if len(pf) < len(pg):
        pf, pg = pg, pf
    # primitive PRS
    while pg:
        r = _pprem(pf, pg)
        if r:
            cr = _pcontent(r)
            r = tuple(x // cr for x in r)
        pf, pg = pg, r
    if pf[-1] < 0:
        pf = _pneg(pf)
    return pf


def _pgcd_full(f, g):
    """gcd over Z[q] including the integer content, lc > 0; _PONE if coprime."""
    if not f:
        if not g:
            return _PZERO
        return g if g[-1] > 0 else _pneg(g)
    if not g:
        return f if f[-1] > 0 else _pneg(f)
    # monomial fast path: q-shift plus content
    if _pis_monomial(f) or _pis_monomial(g):
        c = math.gcd(_pcontent(f), _pcontent(g))
        k = min(_plow(f), _plow(g))
        return _pshift((c,), k)
    cg = math.gcd(_pcontent(f), _pcontent(g))
    prim = _pgcd(f, g)
    return _pmul_int(prim, cg) if cg > 1 else prim


def _pdivexact(f, g):
    # exact division f / g over Z[q]; g must divide f
    if not f:
        return _PZERO
    if g == _PONE:
        return tuple(f)
    if _pis_monomial(g):
        k = _plow(g)
        c = g[k]
        if _plow(f) < k or any(x % c for x in f):
            raise ArithmeticError("inexact polynomial division")
        return tuple(x // c for x in f[k:])
    out = [0] * (len(f) - len(g) + 1)
    rem = list(f)
    dg = len(g) - 1
    lg = g[-1]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + dg]
        if c % lg:
            raise ArithmeticError("inexact polynomial division")
        c //= lg
        out[k] = c
        if c:
            for i, y in enumerate(g):
                rem[k + i] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _peval(f, x: Fraction) -> Fraction:
    r = Fraction(0)
    for c in reversed(f):
        r = r * x + c
    return r


def _pstr(f) -> str:
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        if e == 0:
            t = str(abs(c))
        elif e == 1:
            t = "q" if abs(c) == 1 else "%d*q" % abs(c)
        else:
            t = "q^%d" % e if abs(c) == 1 else "%d*q^%d" % (abs(c), e)
        if not parts:
            parts.append(t if c > 0 else "-" + t)
        else:
            parts.append((" + " if c > 0 else " - ") + t)
    return "".join(parts)


class QScalar:
    """A rational function of q with exact arithmetic.

    Immutable; arithmetic always returns reduced canonical values, so
    `==` agrees with cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=_PZERO, den=_PONE, _normalized=False):
        if isinstance(num, int):
            num = (num,) if num else _PZERO
        if isinstance(den, int):
            den = (den,) if den else _PZERO
        if not _normalized:
            num = _ptrim(list(num))
            den = _ptrim(list(den))
            if not den:
                raise ZeroDivisionError("zero denominator polynomial")
            if not num:
                den = _PONE
            elif den == _PONE:
                pass
            else:
                g = _pgcd_full(num, den)
                if g != _PONE:
                    num = _pdivexact(num, g)
                    den = _pdivexact(den, g)
                if den[-1] < 0:
                    num, den = _pneg(num), _pneg(den)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, *a):
        raise AttributeError("QScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> QScalar:
        return cls((n,) if n else _PZERO, _PONE, _normalized=True)

    @classmethod
    def from_fraction(cls, f: Fraction) -> QScalar:
        return cls((f.numerator,) if f.numerator else _PZERO,
                   (f.denominator,), _normalized=True)

    @staticmethod
    def coerce(x) -> QScalar:
        if isinstance(x, QScalar):
            return x
        if isinstance(x, int):
            return QScalar.from_int(x)
        if isinstance(x, Fraction):
            return QScalar.from_fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QScalar")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_q_monomial(self):
        """Return (coeff: Fraction, exponent: int) if the value is c*q^k, else None."""
        if not self.num:
            return Fraction(0), 0
        if sum(1 for x in self.num if x) != 1 or sum(1 for x in self.den if x) != 1:
            return None
        a, b = _plow(self.num), _plow(self.den)
        return Fraction(self.num[a], self.den[b]), a - b

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        other = QScalar.coerce(other)
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            if self.den == _PONE:
                s = _padd(self.num, other.num)
                return QScalar(s, _PONE, _normalized=True) if s else ZERO
            return QScalar(_padd(self.num, other.num), self.den)
        return QScalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return QScalar(_pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        return self + (-QScalar.coerce(other))

    def __rsub__(self, other):
        return QScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        other = QScalar.coerce(other)
        if not self.num or not other.num:
            return ZERO
        if self.den == _PONE and other.den == _PONE:
            return QScalar(_pmul(self.num, other.num), _PONE, _normalized=True)
        # cross-reduce: products of reduced fractions reduce pairwise
        g1 = _pgcd_full(self.num, other.den)
        g2 = _pgcd_full(other.num, self.den)
        n1 = self.num if g1 == _PONE else _pdivexact(self.num, g1)
        d2 = other.den if g1 == _PONE else _pdivexact(other.den, g1)
        n2 = other.num if g2 == _PONE else _pdivexact(other.num, g2)
        d1 = self.den if g2 == _PONE else _pdivexact(self.den, g2)
        num, den = _pmul(n1, n2), _pmul(d1, d2)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return QScalar(num, den, _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> QScalar:
        if not self.num:
            raise ZeroDivisionError("division by zero QScalar")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return QScalar(num, den, _normalized=True)

    def __truediv__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        return self * QScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QScalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = ONE
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar.coerce(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ----------------------------------------------------

    def specialize(self, q0) -> Fraction:
        """Exact value at q = q0 (a Fraction); raises PoleError at a pole."""
        q0 = Fraction(q0)
        d = _peval(self.den, q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return _peval(self.num, q0) / d

    # -- printing ------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        mono = self.is_q_monomial()
        if mono is not None:
            c, e = mono
            cs = str(c) if c.denominator == 1 else f"({c})"
            if e == 0:
                return cs
            qs = "q" if e == 1 else "q^%d" % e
            if c == 1:
                return qs
            if c == -1:
                return "-" + qs
            return f"{cs}*{qs}"
        ns = _pstr(self.num)
        if self.den == _PONE:
            return ns
        ds = _pstr(self.den)
        if len([x for x in self.num if x]) > 1:
            ns = f"({ns})"
        if len([x for x in self.den if x]) > 1 or self.den[-1] != 1 or _plow(self.den) == 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QScalar({self})"


ZERO = QScalar.from_int(0)
ONE = QScalar.from_int(1)
Q = QScalar(_PQ, _PONE, _normalized=True)


@functools.cache
def q_pow(k: int) -> QScalar:
    """q^k for any integer k."""
    if k >= 0:
        return QScalar(_pshift(_PONE, k), _PONE, _normalized=True)
    return QScalar(_PONE, _pshift(_PONE, -k), _normalized=True)


def q_number(n: int) -> QScalar:
    """Symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1), n >= 0."""
    if n < 0:
        raise ValueError("q_number requires n >= 0")
    if n == 0:
        return ZERO
    # q^(1-n) * (1 + q^2 + ... + q^(2n-2))
    return QScalar(_ptrim([1 if i % 2 == 0 else 0 for i in range(2 * n - 1)]),
                   _pshift(_PONE, n - 1))


def q_factorial(n: int) -> QScalar:
    """[n]! = [1][2]...[n] in the symmetric convention."""
    r = ONE
    for k in range(1, n + 1):
        r = r * q_number(k)
    return r


def gauss_binomial(n: int, k: int, base: QScalar) -> QScalar:
    """Gaussian binomial in base t: prod_{j=1..k} (1 - t^(n-k+j))/(1 - t^j)."""
    if not (0 <= k <= n):
        raise ValueError(f"gauss_binomial: k={k} out of range 0..{n}")
    r = ONE
    for j in range(1, k + 1):
        r = r * (ONE - base ** (n - k + j)) / (ONE - base ** j)
    return r


def q_gamma_int(n: int, base: QScalar = Q) -> QScalar:
    """Gamma_q at a positive integer: Gamma_q(n) = prod_{k=1..n-1} (1-q^k)/(1-q)."""
    if n < 1:
        raise ValueError("q_gamma_int requires n >= 1")
    r = ONE
    for k in range(1, n):
        r = r * (ONE - base ** k) / (ONE - base)
    return r


class QPoly:
    """Univariate polynomial over QScalar in a formal marker.

    Used for q-Pochhammer expansions and Jackson integrands; coefficient
    index = marker exponent.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [QScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def marker(cls) -> QPoly:
        return cls((ZERO, ONE))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return QPoly([(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO)
                      for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (QScalar, int, Fraction)):
            c = QScalar.coerce(other)
            return QPoly([x * c for x in self.coeffs])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> QPoly:
        """Multiply by marker^k."""
        return QPoly((ZERO,) * k + self.coeffs)

    def __call__(self, value: QScalar) -> QScalar:
        r = ZERO
        for c in reversed(self.coeffs):
            r = r * value + c
        return r

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xs = "" if e == 0 else ("X" if e == 1 else f"X^{e}")
            parts.append(f"({c}){xs}" if xs else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def q_pochhammer(a: QScalar, base: QScalar, k: int) -> QPoly:
    """(a X; base)_k = prod_{j=0..k-1} (1 - a base^j X) as a QPoly in the marker.

    `a` is the scalar coefficient sitting in front of the marker; pass the
    marker coefficient 1 for a plain (X; base)_k.
    """
    if k < 0:
        raise ValueError("q_pochhammer requires k >= 0")
    a = QScalar.coerce(a)
    r = QPoly((ONE,))
    for j in range(k):
        r = r * QPoly((ONE, -(a * base ** j)))
    return r


def jackson_q_integral_01(f: QPoly, p: QScalar) -> QScalar:
    """Jackson q-integral of a polynomial over [0,1] in base p.

    Linear extension of the exact monomial formula
    int_0^1 x^m d_p x = (1-p)/(1-p^(m+1)).
    """
    total = ZERO
    for m, c in enumerate(f.coeffs):
        if not c.is_zero():
            total = total + c * (ONE - p) / (ONE - p ** (m + 1))
    return total


def parse_scalar(text: str) -> QScalar:
    """Parse the scalar grammar: integers, q, ^ (negative powers allowed),
    + - * /, parentheses."""
    from .parsing import parse_scalar as _ps
    return _ps(text)
