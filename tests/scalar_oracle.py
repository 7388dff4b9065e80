"""The reduced-fraction arithmetic that `qsu2.scalars` used before it
stored the q-valuation apart: a value is num/den over Z[q], full
polynomials, coprime with the integer content included, lc(den) > 0.

It is kept here only as an oracle for `QScalar` (tests/test_scalars.py):
every operation reduces through one general polynomial gcd, with no
Laurent shortcut, so it shares no fast path with the code under test.
The q-Pochhammer product at the end is the oracle for `q_pochhammer`, the
Gaussian-binomial product for `gauss_binomial`, and the term-by-term
Jackson integral and quotient q-Gamma after them are the oracles for
`jackson_q_integral_01` and `q_gamma_int`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qsu2.scalars import ONE, Q, ZERO


def _ptrim(c):
    c = list(c)
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
        return ()
    c = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            c[i + j] += x * y
    return _ptrim(c)


def _pcontent(f):
    c = 0
    for x in f:
        c = math.gcd(c, x)
    return c


def _plow(f):
    for i, x in enumerate(f):
        if x:
            return i
    return 0


def _pprem(f, g):
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


def _pgcd_full(f, g):
    """gcd of nonzero f, g over Z[q], integer content included, lc > 0."""
    c = math.gcd(_pcontent(f), _pcontent(g))
    pf = tuple(x // _pcontent(f) for x in f)
    pg = tuple(x // _pcontent(g) for x in g)
    if len(pf) < len(pg):
        pf, pg = pg, pf
    while pg:
        r = _pprem(pf, pg)
        if r:
            r = tuple(x // _pcontent(r) for x in r)
        pf, pg = pg, r
    if pf[-1] < 0:
        pf = _pneg(pf)
    return tuple(c * x for x in pf)


def _pdivexact(f, g):
    out = [0] * (len(f) - len(g) + 1)
    rem = list(f)
    dg = len(g) - 1
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[k + dg], g[-1])
        assert not r, "inexact polynomial division"
        out[k] = c
        for i, y in enumerate(g):
            rem[k + i] -= c * y
    assert not any(rem), "inexact polynomial division"
    return _ptrim(out)


def _peval(f, x):
    r = Fraction(0)
    for c in reversed(f):
        r = r * x + c
    return r


def _pstr(f):
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


class OracleScalar:
    """num/den in Z[q], reduced by a full gcd after every operation."""

    def __init__(self, num, den=(1,)):
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            den = (1,)
        else:
            g = _pgcd_full(num, den)
            num, den = _pdivexact(num, g), _pdivexact(den, g)
            if den[-1] < 0:
                num, den = _pneg(num), _pneg(den)
        self.num, self.den = num, den

    def __add__(self, other):
        return OracleScalar(_padd(_pmul(self.num, other.den),
                                  _pmul(other.num, self.den)),
                            _pmul(self.den, other.den))

    def __neg__(self):
        return OracleScalar(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return OracleScalar(_pmul(self.num, other.num),
                            _pmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero")
        return OracleScalar(_pmul(self.num, other.den),
                            _pmul(self.den, other.num))

    def __pow__(self, k):
        if k < 0:
            return (OracleScalar((1,)) / self) ** -k
        r = OracleScalar((1,))
        for _ in range(k):
            r = r * self
        return r

    def specialize(self, q0):
        d = _peval(self.den, q0)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {q0}")
        return _peval(self.num, q0) / d

    def __str__(self):
        if not self.num:
            return "0"
        if (sum(1 for x in self.num if x) == 1
                and sum(1 for x in self.den if x) == 1):
            a, b = _plow(self.num), _plow(self.den)
            c, e = Fraction(self.num[a], self.den[b]), a - b
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
        if self.den == (1,):
            return ns
        ds = _pstr(self.den)
        if sum(1 for x in self.num if x) > 1:
            ns = f"({ns})"
        if (sum(1 for x in self.den if x) > 1 or self.den[-1] != 1
                or _plow(self.den) == 0):
            ds = f"({ds})"
        return f"{ns}/{ds}"


# -- q-Pochhammer products ------------------------------------------------------
#
# `qsu2.scalars.q_pochhammer` once returned a polynomial object over QScalar
# in a formal marker and multiplied it out one factor (1 - a base^j X) at a
# time by a full convolution.  That product is kept here as the oracle for
# the coefficient tuple it returns now.

def _poly_mul(f, g):
    out = [ZERO] * (len(f) + len(g))
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def pochhammer_product(a, base, k):
    """(a X; base)_k as a coefficient tuple, one convolution per factor."""
    r = (ONE,)
    for j in range(k):
        r = _poly_mul(r, (ONE, -(a * base ** j)))
    return r


# -- Gaussian binomials -------------------------------------------------------
#
# `qsu2.scalars.gauss_binomial` once formed the defining product one
# quotient at a time, with a gcd at every factor, for any base.  It is kept
# here as the oracle for the division-free row it reads now.

def gauss_binomial(n, k, base):
    """Gaussian binomial in base t: prod_{j=1..k} (1 - t^(n-k+j))/(1 - t^j)."""
    r = ONE
    for j in range(1, k + 1):
        r = r * (ONE - base ** (n - k + j)) / (ONE - base ** j)
    return r


# -- the Jackson q-integral and the integer q-Gamma ---------------------------
#
# `qsu2.scalars` once added one rational term (1 - p)/(1 - p^(m+1)) per
# coefficient and built Gamma_q(n) as a product of quotients.  Both are
# kept here as the oracles for the single-denominator sum and the
# polynomial product that replaced them.

def jackson_q_integral_01(f, p):
    """Jackson q-integral over [0,1] in base p of the polynomial whose
    coefficient tuple is f (index = exponent).

    Linear extension of the exact monomial formula
    int_0^1 x^m d_p x = (1-p)/(1-p^(m+1)).
    """
    total = ZERO
    for m, c in enumerate(f):
        if not c.is_zero():
            total = total + c * (ONE - p) / (ONE - p ** (m + 1))
    return total


def q_gamma_int(n):
    """Gamma_q at a positive integer: Gamma_q(n) = prod_{k=1..n-1} (1-q^k)/(1-q)."""
    if n < 1:
        raise ValueError("q_gamma_int requires n >= 1")
    r = ONE
    for k in range(1, n):
        r = r * (ONE - Q ** k) / (ONE - Q)
    return r
