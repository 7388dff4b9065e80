"""Exact arithmetic in the field Q(q) of rational functions of the
deformation parameter, plus the q-combinatorial special functions.

A scalar is q^val * num/den, with num and den integer-coefficient
polynomials in q, neither divisible by q.  Normalized form: num and den
have no common polynomial factor (degree-0 integer factors included),
lc(den) > 0, and zero is num = () with val = 0 and den = 1, so equality
is tuple equality.  Keeping the q-valuation apart makes the Laurent
values c*q^k (den a constant) cheap: q_pow(k), Q and every product of
Laurent values skip the polynomial gcd, which only a den of length > 1
needs.  A one-term factor costs no convolution and no polynomial gcd
either: `_pmul` scales the other factor by it, and a product with q^k
only shifts the valuation.  The constructor QScalar(num, den),
`polys()`, printing and `specialize` deal in the full polynomials
q^val*num and den (or num and q^-val*den when val < 0).

Gaussian binomials come one way: `gauss_row(n)` holds [n, k]_t for
k = 0..n as integer coefficient tuples in t, each entry grown from the one
before it by one multiplication by a two-term polynomial and one exact
division by another, with no gcd; it caches only the rows asked for.
`gauss_binomial(n, k, q^e)` reads that row at t = q^e, and so does the
a-d middle of `ncalg`.

The Jackson integral comes one way too: its weights L (1-p)/(1-p^(m+1))
share the lcm L of their denominators, one cached L per (base, top), each
grown from the one a top lower (`_jackson_lcm`), and each weight is one
exact division by the numerator of 1 - p^(m+1), two terms for p = q^e,
with no gcd.

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
    "q_shift",
    "q_number",
    "gauss_row",
    "gauss_binomial",
    "q_gamma_int",
    "q_pochhammer",
    "jackson_q_integral_01",
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
    # a one-term factor scales the other: no convolution, nothing to trim
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        c = g[0]
        return f if c == 1 else tuple(c * x for x in f)
    c = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    c[i + j] += x * y
    return _ptrim(c)


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


def _pprem(f, g):
    # pseudo-remainder of f by g (g nonzero)
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    terms = [(i, y) for i, y in enumerate(g) if y]  # a sparse g costs less
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        k = len(f) - 1 - dg
        lf = f[-1]
        if lg != 1:
            f = [lg * x for x in f]
        for i, y in terms:
            f[k + i] -= lf * y
    return _ptrim(f)


def _pgcd(f, g):
    """Polynomial gcd over Z[q] of nonzero f and g: primitive, lc > 0."""
    cf = _pcontent(f)
    pf = tuple(x // cf for x in f)
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
    """gcd of nonzero f and g over Z[q] including the integer content,
    lc > 0; _PONE if coprime."""
    c = math.gcd(_pcontent(f), _pcontent(g))
    if len(f) == 1 or len(g) == 1:
        return (c,)
    return _pmul((c,), _pgcd(f, g))


def _pdivexact(f, g):
    # exact division f / g over Z[q]; g must divide f
    if not f:
        return _PZERO
    if g == _PONE:
        return tuple(f)
    out = [0] * (len(f) - len(g) + 1)
    rem = list(f)
    dg = len(g) - 1
    lg = g[-1]
    terms = [(i, y) for i, y in enumerate(g) if y]  # a sparse g costs less
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + dg]
        if c % lg:
            raise ArithmeticError("inexact polynomial division")
        c //= lg
        out[k] = c
        if c:
            for i, y in terms:
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


def _new(val, num, den) -> QScalar:
    # a QScalar from parts already in normalized form; the slot setters
    # are bound below the class, since QScalar.__setattr__ always raises
    x = _object_new(QScalar)
    _set_val(x, val)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _reduced(val, num, den) -> QScalar:
    """q^val * num/den in normalized form, where den is free of q with
    lc(den) > 0 and num is any polynomial."""
    if not num:
        return ZERO
    k = _plow(num)
    if k:
        num = num[k:]
        val += k
    if den != _PONE:
        g = _pgcd_full(num, den)
        if g != _PONE:
            num = _pdivexact(num, g)
            den = _pdivexact(den, g)
    return _new(val, num, den)


class QScalar:
    """A rational function of q with exact arithmetic.

    Immutable; arithmetic always returns reduced canonical values, so
    `==` agrees with cross-multiplication.  `QScalar(num, den)` takes the
    full numerator and denominator (coefficient tuples or ints) and
    normalizes them.
    """

    __slots__ = ("val", "num", "den")

    def __new__(cls, num=_PZERO, den=_PONE):
        if isinstance(num, int):
            num = (num,)
        if isinstance(den, int):
            den = (den,)
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        k = _plow(den)
        den = den[k:]
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return _reduced(-k, num, den)

    def __setattr__(self, *a):
        raise AttributeError("QScalar is immutable")

    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> QScalar:
        if isinstance(x, QScalar):
            return x
        if isinstance(x, int):
            return _new(0, (x,), _PONE) if x else ZERO
        if isinstance(x, Fraction):
            return _new(0, (x.numerator,), (x.denominator,)) if x else ZERO
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
        if len(self.num) != 1 or len(self.den) != 1:
            return None
        return Fraction(self.num[0], self.den[0]), self.val

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not QScalar:
            if not isinstance(other, (QScalar, int, Fraction)):
                return NotImplemented
            other = QScalar.coerce(other)
        n1, n2 = self.num, other.num
        if not n1:
            return other
        if not n2:
            return self
        v = self.val
        if v != other.val:
            v = min(v, other.val)
            n1 = _pshift(n1, self.val - v)
            n2 = _pshift(n2, other.val - v)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(v, _padd(n1, n2), d1)
        return _reduced(v, _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.val, _pneg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        return self + (-QScalar.coerce(other))

    def __rsub__(self, other):
        return QScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QScalar:
            if not isinstance(other, (QScalar, int, Fraction)):
                return NotImplemented
            other = QScalar.coerce(other)
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        # a product of q-free polynomials is q-free, so the valuations add
        val = self.val + other.val
        d1, d2 = self.den, other.den
        if d1 == _PONE and d2 == _PONE:
            # times q^k is a shift of the valuation alone
            if n1 == _PONE:
                return _new(val, n2, _PONE)
            if n2 == _PONE:
                return _new(val, n1, _PONE)
            return _new(val, _pmul(n1, n2), _PONE)
        # cross-reduce: products of reduced fractions reduce pairwise
        g1 = _pgcd_full(n1, d2)
        g2 = _pgcd_full(n2, d1)
        n1 = n1 if g1 == _PONE else _pdivexact(n1, g1)
        d2 = d2 if g1 == _PONE else _pdivexact(d2, g1)
        n2 = n2 if g2 == _PONE else _pdivexact(n2, g2)
        d1 = d1 if g2 == _PONE else _pdivexact(d1, g2)
        return _new(val, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> QScalar:
        if not self.num:
            raise ZeroDivisionError("division by zero QScalar")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return _new(-self.val, num, den)

    def __truediv__(self, other):
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        return self * QScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QScalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return ONE
        # from the lowest set bit of k up: b = self^(2^i) at bit i, and b
        # is squared only while a higher bit remains
        b = self
        while not k & 1:
            b, k = b * b, k >> 1
        r = b
        while k := k >> 1:
            b = b * b
            if k & 1:
                r = r * b
        return r

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        # `type(other) is QScalar` first: Fraction is an ABC, so its
        # isinstance test is slow
        if type(other) is not QScalar:
            if isinstance(other, (int, Fraction)):
                other = QScalar.coerce(other)
            elif not isinstance(other, QScalar):
                return NotImplemented
        return (self.val == other.val and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.val, self.num, self.den))

    # -- evaluation ----------------------------------------------------

    def polys(self):
        """(numerator, denominator) as full coefficient tuples in q."""
        if self.val >= 0:
            return _pshift(self.num, self.val), self.den
        return self.num, _pshift(self.den, -self.val)

    def specialize(self, q0) -> Fraction:
        """Exact value at q = q0 (a Fraction); raises PoleError at a pole."""
        q0 = Fraction(q0)
        num, den = self.polys()
        d = _peval(den, q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return _peval(num, q0) / d

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
        num, den = self.polys()
        ns = _pstr(num)
        if den == _PONE:
            return ns
        ds = _pstr(den)
        if len([x for x in num if x]) > 1:
            ns = f"({ns})"
        if len([x for x in den if x]) > 1 or den[-1] != 1 or self.val >= 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QScalar({self})"


_object_new = object.__new__
_set_val = QScalar.val.__set__
_set_num = QScalar.num.__set__
_set_den = QScalar.den.__set__

ZERO = _new(0, _PZERO, _PONE)
ONE = _new(0, _PONE, _PONE)
Q = _new(1, _PONE, _PONE)


def q_shift(c: QScalar, k: int) -> QScalar:
    """c * q^k, a shift of the valuation alone; zero stays ZERO, and
    k = 0 returns c itself, so an exact ONE stays the ONE object."""
    if not k:
        return c
    if not c.num:
        return ZERO
    return _new(c.val + k, c.num, c.den)


@functools.cache
def q_pow(k: int) -> QScalar:
    """q^k for any integer k."""
    return q_shift(ONE, k)


def q_number(n: int) -> QScalar:
    """Symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1), n >= 0."""
    if n < 0:
        raise ValueError("q_number requires n >= 0")
    if n == 0:
        return ZERO
    # q^(1-n) * (1 + q^2 + ... + q^(2n-2))
    return QScalar(_ptrim([1 if i % 2 == 0 else 0 for i in range(2 * n - 1)]),
                   _pshift(_PONE, n - 1))


@functools.cache
def gauss_row(m: int) -> tuple:
    """The row of Gaussian polynomials [m, j]_t, j = 0..m, each as its
    integer coefficient tuple in t (index = exponent); t = q^2 gives
    [m, j]_(q^2).  Each entry comes from the one before it,
    [m, j] = [m, j-1] (1 - t^(m-j+1)) / (1 - t^j): one linear pass
    multiplies by the two-term factor and one divides exactly by the
    other, with no gcd and no convolution; the upper half mirrors the
    lower, [m, j] = [m, m-j].  Only the rows asked for are cached."""
    row = [(1,)]
    for j in range(1, m // 2 + 1):
        a, prev = m - j + 1, row[-1]
        g = list(prev) + [0] * a
        for i, x in enumerate(prev):
            g[i + a] -= x
        # g = h (1 - t^j), so h_i = g_i + h_(i-j)
        h = g[:len(g) - j]
        for i in range(j, len(h)):
            h[i] += h[i - j]
        row.append(tuple(h))
    return (*row, *reversed(row[:m + 1 - len(row)]))


def gauss_binomial(n: int, k: int, base: QScalar) -> QScalar:
    """Gaussian binomial [n, k] in base t = q^e, e != 0, read from
    `gauss_row(n)`: a negative e reads [n, k]_(1/t) = t^(-k(n-k)) [n, k]_t.
    Another base, or a k out of range, raises ValueError."""
    if not (0 <= k <= n):
        raise ValueError(f"gauss_binomial: k={k} out of range 0..{n}")
    e = base.val
    if base.num != _PONE or base.den != _PONE or not e:
        raise ValueError(f"gauss_binomial: base {base} is not q^e, e != 0")
    coeffs = gauss_row(n)[k]
    num = [0] * (abs(e) * (len(coeffs) - 1) + 1)
    num[::abs(e)] = coeffs
    return _new(min(e, 0) * k * (n - k), tuple(num), _PONE)


def q_gamma_int(n: int) -> QScalar:
    """Gamma_q at a positive integer:
    Gamma_q(n) = prod_{k=1..n-1} (1-q^k)/(1-q), formed as the product of the
    polynomials 1 + q + ... + q^(k-1), with no division."""
    if n < 1:
        raise ValueError("q_gamma_int requires n >= 1")
    r = ONE
    for k in range(2, n):
        r = r * _new(0, (1,) * k, _PONE)
    return r


def q_pochhammer(a: QScalar, base: QScalar, k: int) -> tuple:
    """(a X; base)_k = prod_{j=0..k-1} (1 - a base^j X) as the tuple of its
    coefficients in the formal marker X, index = marker exponent, with no
    trailing zero.

    `a` is the scalar coefficient sitting in front of the marker; pass the
    marker coefficient 1 for a plain (X; base)_k.  X^m times a series is
    `(ZERO,) * m + series`.
    """
    if k < 0:
        raise ValueError("q_pochhammer requires k >= 0")
    a = QScalar.coerce(a)
    r = (ONE,)
    for j in range(k):
        # a factor 1 - 0 X is 1 and would leave a trailing zero
        t = a * base ** j
        if t:
            r = tuple(x - t * y for x, y in zip(r + (ZERO,), (ZERO,) + r))
    return r


def _jackson_ratio(p: QScalar, m: int):
    """(1-p, 1-p^(m+1)), the numerator and denominator of the weight
    (1-p)/(1-p^(m+1)) of x^m, or None where p^(m+1) = 1 puts a pole
    there."""
    d = ONE - p ** (m + 1)
    return (ONE - p, d) if d else None


@functools.cache
def _jackson_lcm(p: QScalar, top: int) -> tuple:
    """L, the lcm of the denominators of the weights (1-p)/(1-p^(m+1)) for
    m = 0..top, as a q-free integer coefficient tuple with lc(L) > 0.

    L at top is L at top - 1 times den / g for the weight's denominator
    den and g = gcd(L, den).  den divides the numerator M of 1-p^(m+1)
    times the denominator of 1-p (two terms for p = q^e), so g is read
    from L's pseudo-remainder by M, a pass over L, and a gcd of two
    polynomials of degree about deg M.  L at 0..top-1 is read in
    ascending order first, so each one missing from the cache is built
    from the one before it and no build nests more than one call deep.
    One L per (base, top): shared, callers only read it."""
    lcm = _PONE
    for m in range(top):
        lcm = _jackson_lcm(p, m)
    ratio = _jackson_ratio(p, top)
    if ratio is None:
        return lcm
    s, d = ratio
    den = (s / d).den
    rem = _pprem(lcm, _pmul(s.den, d.num))
    g = _pmul((math.gcd(_pcontent(lcm), _pcontent(den)),),
              _pgcd(den, rem or den))
    return _pmul(lcm, _pdivexact(den, g))


@functools.cache
def _jackson_weights(p: QScalar, top: int):
    """(1/L, w) with w[m] = L (1-p)/(1-p^(m+1)) for m = 0..top and L =
    `_jackson_lcm(p, top)`, so every w[m] is a Laurent polynomial, formed
    by exact polynomial division with no gcd.  A base with p^(m+1) = 1
    (p = 1, or p = -1 and m odd) has no weight at m: w[m] is None there.
    Cached per (base, top).  Shared: callers only read it."""
    lcm = _jackson_lcm(p, top)
    weights = []
    for m in range(top + 1):
        ratio = _jackson_ratio(p, m)
        if ratio is None:
            weights.append(None)
            continue
        s, d = ratio
        # L s / d = q^(val s - val d) (L num(s) den(d)) / (den(s) num(d))
        num = _pmul(_pmul(lcm, s.num), d.den)
        weights.append(_reduced(s.val - d.val,
                                _pdivexact(num, _pmul(s.den, d.num)), _PONE))
    return _new(0, _PONE, lcm), weights


def jackson_q_integral_01(f, p: QScalar) -> QScalar:
    """Jackson q-integral over [0,1] in base p of the polynomial whose
    coefficient tuple is f (index = exponent).

    Linear extension of the exact monomial formula
    int_0^1 x^m d_p x = (1-p)/(1-p^(m+1)).  The coefficients are summed
    against the Laurent weights of `_jackson_weights` and the sum is
    divided by their common denominator once.  A term at a pole of its
    weight raises ZeroDivisionError.
    """
    top = max((m for m, c in enumerate(f) if c), default=-1)
    if top < 0:
        return ZERO
    inv_lcm, weights = _jackson_weights(p, top)
    total = ZERO
    for c, w in zip(f, weights):
        if c:
            if w is None:
                raise ZeroDivisionError("division by zero QScalar")
            total = total + c * w
    return total * inv_lcm
