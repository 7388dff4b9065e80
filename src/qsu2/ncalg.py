"""Noncommutative polynomial arithmetic with canonical normal forms.

Covers the quantum SL(2) function algebra G (generators a,b,c,d), its Ore
localizations G_b, G_d, G_bd, the lower Borel quotient B (lambda, xi), the
Manin plane M (x, y), and tensor products of these.

Monomials are exponent vectors over the ordered generators.  All generator
pairs q-commute except (a, d); those are eliminated so that no canonical
monomial contains both a and a d-power:

  * in G and G_b the rules  a d -> 1 + q b c  and  d a -> 1 + q^-1 b c
    realize the PBW basis {a^k b^r c^s} u {b^r c^s d^t};
  * in G_d and G_bd the generator a itself reduces,
    a -> d^-1 + q b c d^-1, so the basis is {b^r c^s d^t} with t ranging
    over the integers (a and d^-1 cannot coexist in a basis).

In G and G_b the a-d rules are applied in closed form, with
m = min(k, t) and X = b^r c^s:

  d^t a^k   = d^(t-m) prod_(i<m) (1 + q^(-1-2i) b c) a^(k-m),
  a^k X d^t = q^(m(r+s)) a^(k-m) X prod_(i<m) (1 + q^(1+2i) b c) d^(t-m),

both read from one cached table of the coefficients of (b c)^j in the
middle product (`_ad_middle`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .parsing import parse_with_context
from .scalars import ONE, Q, QScalar, ZERO, gauss_binomial, q_pow, q_shift

__all__ = [
    "Algebra",
    "NCPoly",
    "AlgebraMap",
    "DomainError",
    "STD",
    "star",
    "retract",
    "tensor_elem",
    "apply_tensor_map",
    "rewriting_certificate",
    "parse_element",
]


class DomainError(ValueError):
    """An operation was applied outside its declared domain."""


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

@functools.cache
def _ad_middle(m: int, sign: int):
    """The coefficients e_j of (b c)^j, j = 0..m, in
    prod_(i<m) (1 + q^(sign (1+2i)) b c): a^m d^m for sign 1 and d^m a^m
    for sign -1, on G and G_b alike.  By the q-binomial theorem,
    prod_(i<m) (1 + z t^i) = sum_j t^(j(j-1)/2) [m, j]_t z^j (Gasper and
    Rahman, Basic Hypergeometric Series, ch. 1), so with t = q^(2 sign)
    and z = q^sign, e_j = q^(sign j^2) [m, j]_(q^(2 sign)), read from one
    Gaussian-binomial row."""
    base = q_pow(2 * sign)
    return tuple(q_shift(gauss_binomial(m, j, base), sign * j * j)
                 for j in range(m + 1))


class Algebra:
    """A presentation with q-power swap rules and optional a-d eliminations.

    `comm[(i, j)]` for i < j is the integer e in  g_j g_i = q^e g_i g_j.
    The pair `ad_pair` (always (first, last)) carries the inhomogeneous
    rules instead; `elim_gen` maps a generator index to its expansion.
    A tensor product has no `comm` of its own: it multiplies factor by
    factor, on the slices of a monomial that `split_mono` cuts.
    """

    def __init__(self, name, gens, invertible=(), comm=None, ad_pair=None,
                 elim_gen=None, factors=None):
        self.name = name
        self.gens = tuple(gens)
        self.n = len(self.gens)
        self.gen_index = {g: i for i, g in enumerate(self.gens)}
        self.invertible = frozenset(self.gen_index[g] for g in invertible)
        self.comm = dict(comm or {})
        self.ad_pair = ad_pair
        self.elim_gen = {}  # index -> tuple of (QScalar, mono)
        self.factors = tuple(factors) if factors else None
        self.relation_words = []  # list of (name, lhs_terms, rhs_terms)
        self._zero_mono = (0,) * self.n
        if factors:
            slices = []
            k = 0
            for f in factors:
                slices.append(slice(k, k + f.n))
                k += f.n
            self._slices = tuple(slices)
        else:
            # every index pair (j, i), j < i, where m2[j] * m1[i] crosses
            # in the product m1 * m2; `_merge` reads its exponent from
            # `comm` when it multiplies
            self._crossings = tuple(itertools.combinations(range(self.n), 2))
        if elim_gen:
            for g, terms in elim_gen.items():
                self.elim_gen[self.gen_index[g]] = tuple(
                    (QScalar.coerce(c), tuple(m)) for c, m in terms)

    def __repr__(self):
        return f"<Algebra {self.name}>"

    # -- monomial helpers ----------------------------------------------

    def mono_degree(self, mono) -> int:
        return sum(map(abs, mono))

    def check_mono(self, mono):
        if len(mono) != self.n:
            raise DomainError(f"{self.name}: bad monomial length")
        for i, e in enumerate(mono):
            if e < 0 and i not in self.invertible:
                raise DomainError(
                    f"{self.name}: negative exponent on non-invertible "
                    f"generator {self.gens[i]}")
        if self.factors:
            for f, sub in zip(self.factors, self.split_mono(mono)):
                f.check_mono(sub)
            return
        for i in self.elim_gen:
            if mono[i] != 0:
                raise DomainError(
                    f"{self.name}: generator {self.gens[i]} is not a basis "
                    f"generator here")
        if self.ad_pair:
            ia, id_ = self.ad_pair
            if mono[ia] > 0 and mono[id_] != 0:
                raise DomainError(
                    f"{self.name}: {self.gens[ia]} and {self.gens[id_]} may "
                    f"not co-occur")

    def split_mono(self, mono):
        assert self.factors
        return tuple(mono[sl] for sl in self._slices)

    def mono_str(self, mono) -> str:
        if self.factors:
            return " (x) ".join(
                f.mono_str(s) for f, s in zip(self.factors, self.split_mono(mono)))
        parts = []
        for g, e in zip(self.gens, mono):
            if e == 1:
                parts.append(g)
            elif e:
                parts.append(f"{g}^{e}")
        return " ".join(parts) if parts else "1"

    # -- element constructors -------------------------------------------

    def zero(self) -> NCPoly:
        return NCPoly(self, {})

    def one(self) -> NCPoly:
        return NCPoly(self, {self._zero_mono: ONE})

    def scalar(self, c) -> NCPoly:
        c = QScalar.coerce(c)
        return NCPoly(self, {self._zero_mono: c} if c else {})

    def gen(self, name: str, e: int = 1) -> NCPoly:
        i = self.gen_index[name]
        if e == 0:
            return self.one()
        if self.factors:
            # locate the factor owning this slot and lift canonically
            for k, (f, sl) in enumerate(zip(self.factors, self._slices)):
                if i < sl.stop:
                    parts = [g.one() for g in self.factors]
                    parts[k] = f.gen(f.gens[i - sl.start], e)
                    return tensor_elem(self, parts)
        if e < 0 and i not in self.invertible:
            raise DomainError(f"{self.name}: {name} is not invertible")
        if i in self.elim_gen:
            img = NCPoly(self, {m: c for c, m in self.elim_gen[i]})
            return img if e == 1 else img ** e
        mono = list(self._zero_mono)
        mono[i] = e
        return NCPoly(self, {tuple(mono): ONE})

    # -- canonical-monomial multiplication -------------------------------

    def _merge(self, m1, m2):
        """q-exponent and merged exponents for m1*m2 with no a-d crossing."""
        e = 0
        comm = self.comm
        for j, i in self._crossings:
            y = m2[j]
            if y:
                x = m1[i]
                if x:
                    try:
                        e += x * y * comm[j, i]
                    except KeyError:
                        raise AssertionError(
                            f"{self.name}: illegal crossing "
                            f"{self.gens[i]}/{self.gens[j]}") from None
        return e, tuple(map(operator.add, m1, m2))

    def _add_middle(self, y, c, middle, shift, acc):
        """Accumulate c q^(j shift) e_j y (b c)^j into acc, over the
        coefficients e_j of an a-d middle (`_ad_middle`)."""
        ib, ic = self.ad_pair[0] + 1, self.ad_pair[0] + 2
        z = list(y)
        for j, e in enumerate(middle):
            z[ib], z[ic] = y[ib] + j, y[ic] + j
            mono, ce = tuple(z), q_shift(c * e, j * shift)
            v = acc.get(mono)
            acc[mono] = ce if v is None else v + ce

    def mul_mono(self, m1, m2, coeff, acc):
        """Accumulate coeff * m1 * m2 into the dict acc (canonical inputs)."""
        if self.factors:
            legs = []
            for f, sl in zip(self.factors, self._slices):
                d = {}
                f.mul_mono(m1[sl], m2[sl], ONE, d)
                legs.append(d.items())
            _tensor_terms(legs, coeff, acc)
            return
        ad = self.ad_pair
        if ad:
            ia, id_ = ad
            t, k = m1[id_], m2[ia]
            if t > 0 and k > 0:
                # d^t a^k = d^(t-m) (d^m a^m) a^(k-m): (b c)^j of the middle
                # crosses d^(t-m) or a^(k-m), one of which is 1
                m = min(t, k)
                left, right = list(m1), list(m2)
                left[id_], right[ia] = t - m, k - m
                e, y = self._merge(tuple(left), tuple(right))
                self._add_middle(y, q_shift(coeff, e), _ad_middle(m, -1),
                                 -2 * (t + k - 2 * m), acc)
                return
        e, y = self._merge(m1, m2)
        c = q_shift(coeff, e)
        if ad and y[ia] > 0 and y[id_] > 0:
            # a^k X d^t with X = b^r c^s: a^m X = q^(m(r+s)) X a^m
            m = min(y[ia], y[id_])
            z = list(y)
            z[ia] -= m
            z[id_] -= m
            self._add_middle(tuple(z), q_shift(c, m * (y[ia + 1] + y[ia + 2])),
                             _ad_middle(m, 1), 0, acc)
            return
        v = acc.get(y)
        acc[y] = c if v is None else v + c

    # -- basis enumeration ------------------------------------------------

    @functools.cache
    def basis_monomials(self, max_degree: int):
        """All canonical monomials with filtration degree <= max_degree, as
        one shared tuple ordered by (degree, monomial): callers only read
        it.  Each degree is enumerated directly, every exponent in
        ascending order within its canonical range and the last one taking
        what is left of the degree, so no monomial outside the basis is
        built."""
        assert not self.factors, "basis enumeration on base algebras only"
        ia, id_ = self.ad_pair or (None, None)
        last = self.n - 1
        out = []

        def extend(mono, budget):
            i = len(mono)
            if i > last:
                if not budget:
                    out.append(mono)
                return
            # an eliminated generator, or d after a, stays at exponent 0
            top = 0 if i in self.elim_gen or (i == id_ and mono[ia]) else budget
            low = -top if i in self.invertible else 0
            if i == last:
                exps = [e for e in sorted({-budget, budget})
                        if low <= e <= top]
            else:
                exps = range(low, top + 1)
            for e in exps:
                extend(mono + (e,), budget - abs(e))

        for degree in range(max_degree + 1):
            extend((), degree)
        return tuple(out)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class NCPoly:
    """Sparse noncommutative polynomial in canonical form.

    Treat instances as immutable; the term dict is never mutated after
    construction.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Algebra, terms: dict):
        self.alg = alg
        self.terms = terms

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def scalar_part(self):
        """The coefficient c if the value equals c*1, else None."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1:
            m, c = next(iter(self.terms.items()))
            if m == self.alg._zero_mono:
                return c
        return None

    def single_term(self):
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if self.alg is not other.alg:
            raise DomainError(
                f"presentation mismatch: {self.alg.name} vs {other.alg.name}")

    # +, -, * and == test `type(other) is NCPoly` before the scalar types:
    # Fraction is an ABC, so its isinstance test is slow.
    def __add__(self, other):
        if (type(other) is not NCPoly
                and isinstance(other, (QScalar, int, Fraction))):
            other = self.alg.scalar(other)
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, ZERO) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return NCPoly(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if (type(other) is not NCPoly
                and isinstance(other, (QScalar, int, Fraction))):
            other = self.alg.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (type(other) is not NCPoly
                and isinstance(other, (QScalar, int, Fraction))):
            c = QScalar.coerce(other)
            if not c:
                return self.alg.zero()
            return NCPoly(self.alg, {m: v * c for m, v in self.terms.items()})
        self._require_same(other)
        mul_mono = self.alg.mul_mono
        right = other.terms.items()
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mul_mono(m1, m2, c1 * c2, acc)
        return NCPoly(self.alg, {m: c for m, c in acc.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QScalar)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, NCPoly):
            s = other.scalar_part()
            if s is None:
                raise DomainError("division only by scalars")
            other = s
        return self * QScalar.coerce(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            inv = self.monomial_inverse()
            return inv ** (-e)
        if not e:
            return self.alg.one()
        # from the lowest set bit of e up: b = self^(2^i) at bit i, and b
        # is squared only while a higher bit remains
        b = self
        while not e & 1:
            b, e = b * b, e >> 1
        r = b
        while e := e >> 1:
            b = b * b
            if e & 1:
                r = r * b
        return r

    def monomial_inverse(self) -> NCPoly:
        """Inverse of a scalar multiple of an invertible monomial."""
        st = self.single_term()
        if st is None:
            raise DomainError("only monomials are invertible here")
        mono, c = st
        for i, e in enumerate(mono):
            if e and i not in self.alg.invertible:
                raise DomainError(
                    f"{self.alg.gens[i]} is not invertible in {self.alg.name}")
        inv_mono = tuple(-e for e in mono)
        # q-power so that mono * inv_mono = 1 exactly
        acc = {}
        self.alg.mul_mono(mono, inv_mono, ONE, acc)
        (m0, c0), = acc.items()
        assert m0 == self.alg._zero_mono
        return NCPoly(self.alg, {inv_mono: (c * c0).inverse()})

    def __eq__(self, other):
        if type(other) is not NCPoly:
            if isinstance(other, (QScalar, int, Fraction)):
                other = self.alg.scalar(other)
            elif not isinstance(other, NCPoly):
                return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    # -- queries ----------------------------------------------------------

    def coeff(self, mono) -> QScalar:
        return self.terms.get(tuple(mono), ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda mc: (self.alg.mono_degree(mc[0]), mc[0]))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            ms = self.alg.mono_str(mono)
            qm = c.is_q_monomial()
            multiterm = sum(1 for x in c.num if x) > 1
            if ms == "1":
                body = f"({c})" if multiterm else str(c)
                neg = body.startswith("-")
                if neg:
                    body = body[1:]
            elif qm is not None and qm[0] in (1, -1) and qm[0].denominator == 1:
                coef, e = qm
                neg = coef < 0
                body = ms if e == 0 else (
                    ("q" if e == 1 else f"q^{e}") + " " + ms)
            elif multiterm:
                # parenthesize composite coefficients so the grammar
                # round-trips
                neg = False
                body = f"({c}) * {ms}"
            else:
                body = str(c)
                neg = body.startswith("-")
                if neg:
                    body = body[1:]
                body = f"{body} * {ms}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"<{self.alg.name}: {self}>"


# ---------------------------------------------------------------------------
# algebra maps
# ---------------------------------------------------------------------------

class AlgebraMap:
    """Multiplicative, linear extension of a generator assignment.

    With `anti` the extension is antimultiplicative, f(xy) = f(y) f(x), as
    for the involution star and the antipode: the image of a monomial
    multiplies the generator images in reverse order, and
    `check_relations` reads each relation word reversed.
    """

    def __init__(self, source: Algebra, target: Algebra, images: dict,
                 name: str = "", anti: bool = False):
        self.source = source
        self.target = target
        self.name = name or f"{source.name}->{target.name}"
        self.anti = anti
        self.images = {}
        for g, img in images.items():
            if g not in source.gen_index:
                raise DomainError(f"{self.name}: unknown generator {g}")
            if isinstance(img, (int, Fraction, QScalar)):
                img = target.scalar(img)
            if img.alg is not target:
                raise DomainError(f"{self.name}: image of {g} in wrong algebra")
            self.images[g] = img

    # functools.cache on a method keeps every instance alive (flake8-bugbear
    # B019).  Algebras, maps and Hopf algebras here are built once and live
    # for the whole process, the corrupted-Delta negative control included
    # (hopf._corrupted builds it once per algebra).
    @functools.cache
    def _power(self, i: int, e: int) -> NCPoly:
        g = self.source.gens[i]
        img = self.images.get(g)
        if img is None:
            raise DomainError(f"{self.name}: no image for generator {g}")
        if e >= 0:
            return img ** e
        if e < -1:
            return self._power(i, -1) ** -e
        if img.is_zero():
            raise DomainError(f"{self.name}: image of {g} is not invertible")
        return img.monomial_inverse()

    @functools.cache
    def image(self, mono) -> NCPoly:
        """The image of one monomial.  Shared: callers only read it, as
        `__call__` and `apply_tensor_map` do."""
        prod = self.target.one()
        order = reversed(range(len(mono))) if self.anti else range(len(mono))
        for i in order:
            e = mono[i]
            if e:
                prod = prod * self._power(i, e)
                if prod.is_zero():
                    break
        return prod

    def __call__(self, p: NCPoly) -> NCPoly:
        """sum of c * image(mono) over the terms of p, in a new term dict,
        added in the order NCPoly addition would add them."""
        if p.alg is not self.source:
            raise DomainError(f"{self.name}: argument not in {self.source.name}")
        out = {}
        for mono, c in p.terms.items():
            for m, v in self.image(mono).terms.items():
                v = out.get(m, ZERO) + c * v
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return NCPoly(self.target, out)

    def check_relations(self):
        """Evaluate the source's defining relations on the images.

        Returns a list of names of failed relations (empty = algebra map).
        """
        failed = []
        for name, lhs, rhs in self.source.relation_words:
            if self._eval_terms(lhs) != self._eval_terms(rhs):
                failed.append(name)
        return failed

    def _eval_terms(self, terms) -> NCPoly:
        out = self.target.zero()
        for coeff, word in terms:
            p = self.target.scalar(coeff)
            for g, e in reversed(word) if self.anti else word:
                p = p * self._power(self.source.gen_index[g], e)
            out = out + p
        return out


# ---------------------------------------------------------------------------
# the standard algebra family
# ---------------------------------------------------------------------------

def _g_like(name, invertible, eliminate_a):
    comm = {(0, 1): -1, (0, 2): -1, (1, 2): 0, (1, 3): -1, (2, 3): -1}
    if eliminate_a:
        elim = {"a": [(ONE, (0, 0, 0, -1)), (Q, (0, 1, 1, -1))]}
        alg = Algebra(name, "abcd", invertible=invertible, comm=comm,
                      elim_gen=elim)
    else:
        alg = Algebra(name, "abcd", invertible=invertible, comm=comm,
                      ad_pair=(0, 3))
    alg.relation_words = [
        ("ab=qba", [(ONE, [("a", 1), ("b", 1)])], [(Q, [("b", 1), ("a", 1)])]),
        ("ac=qca", [(ONE, [("a", 1), ("c", 1)])], [(Q, [("c", 1), ("a", 1)])]),
        ("bc=cb", [(ONE, [("b", 1), ("c", 1)])], [(ONE, [("c", 1), ("b", 1)])]),
        ("bd=qdb", [(ONE, [("b", 1), ("d", 1)])], [(Q, [("d", 1), ("b", 1)])]),
        ("cd=qdc", [(ONE, [("c", 1), ("d", 1)])], [(Q, [("d", 1), ("c", 1)])]),
        ("ad-da=(q-q^-1)bc",
         [(ONE, [("a", 1), ("d", 1)]), (-ONE, [("d", 1), ("a", 1)])],
         [(Q - q_pow(-1), [("b", 1), ("c", 1)])]),
        ("ad-qbc=1",
         [(ONE, [("a", 1), ("d", 1)]), (-Q, [("b", 1), ("c", 1)])],
         [(ONE, [])]),
    ]
    return alg


class _Standard:
    """Singleton container for the fixed algebra family and tensor cache."""

    def __init__(self):
        self.G = _g_like("G", "", eliminate_a=False)
        self.Gb = _g_like("G_b", "b", eliminate_a=False)
        self.Gd = _g_like("G_d", "d", eliminate_a=True)
        self.Gbd = _g_like("G_bd", "bd", eliminate_a=True)
        self.B = Algebra("B", ("lambda", "xi"), invertible=("lambda",),
                         comm={(0, 1): -1})
        self.B.relation_words = [
            ("lambda xi=q xi lambda",
             [(ONE, [("lambda", 1), ("xi", 1)])],
             [(Q, [("xi", 1), ("lambda", 1)])]),
        ]
        # the ground field: no generators, so a map into K is a functional
        # and a tensor factor mapped into K drops out of the monomial
        self.K = Algebra("K", ())
        self.M = Algebra("Manin", ("x", "y"), comm={(0, 1): -1})
        self.M.relation_words = [
            ("xy=qyx", [(ONE, [("x", 1), ("y", 1)])],
             [(Q, [("y", 1), ("x", 1)])]),
        ]
        G = self.G
        self.star = AlgebraMap(G, G, {"a": G.gen("d"), "b": G.gen("c") * -Q,
                                      "c": G.gen("b") * -q_pow(-1),
                                      "d": G.gen("a")},
                               name="star", anti=True)

    @functools.cache
    def tensor(self, *factors) -> Algebra:
        gens = []
        invertible = []
        off = 0
        for k, f in enumerate(factors):
            for i, g in enumerate(f.gens):
                gens.append(f"{g}@{k}" if len(factors) > 1 else g)
            for i in f.invertible:
                invertible.append(gens[off + i])
            off += f.n
        name = " (x) ".join(f.name for f in factors)
        return Algebra(name, gens, invertible=invertible, factors=factors)

    @functools.cache
    def inclusion(self, source: Algebra, target: Algebra) -> AlgebraMap:
        """The canonical map g -> g of `source` into `target`: the identity
        (whose `check_relations` evaluates the defining relations with the
        engine's own product), G into a localization, or a chart into
        G_bd."""
        return AlgebraMap(source, target,
                          {g: target.gen(g) for g in source.gens},
                          name=f"iota[{source.name}->{target.name}]")


STD = _Standard()


# ---------------------------------------------------------------------------
# star structure and retraction to G
# ---------------------------------------------------------------------------

def star(p: NCPoly) -> NCPoly:
    """Antilinear antihomomorphic involution on G.

    Localized arguments are rejected; rewrite them into the image of G
    first (see `retract`).
    """
    if p.alg is not STD.G:
        raise DomainError(
            f"star is not defined on {p.alg.name}; retract to G first")
    # coefficients are real rational functions, so they pass unchanged
    return STD.star(p)


def retract(p: NCPoly, target: Algebra) -> NCPoly:
    """Identify an element of a localization with its preimage in `target`.

    Monomials carry over verbatim; fails if any exponent is illegal in the
    target (the element then does not lie in the image).
    """
    out = {}
    for mono, c in p.terms.items():
        target.check_mono(mono)
        out[mono] = c
    return NCPoly(target, out)


# ---------------------------------------------------------------------------
# tensor utilities
# ---------------------------------------------------------------------------

def _tensor_terms(legs, coeff, acc):
    """Add coeff c_1 ... c_k (m_1 (x) ... (x) m_k) into the dict acc for
    every choice of one term (m_i, c_i) from each leg; a c_i of None counts
    as 1.  The only place a tensor monomial is assembled from factor
    monomials: their concatenation."""
    for combo in itertools.product(*legs):
        c = coeff
        for _, cc in combo:
            if cc is not None:
                c = c * cc
        mono = tuple(itertools.chain.from_iterable(m for m, _ in combo))
        v = acc.get(mono)
        acc[mono] = c if v is None else v + c


def tensor_elem(talg: Algebra, parts) -> NCPoly:
    """The elementary tensor of the given factor elements."""
    assert talg.factors and len(parts) == len(talg.factors)
    acc = {}
    _tensor_terms([p.terms.items() for p in parts], ONE, acc)
    return NCPoly(talg, {m: c for m, c in acc.items() if c})


def apply_tensor_map(p: NCPoly, images, target: Algebra) -> NCPoly:
    """Apply a linear map to each tensor factor of p.

    `images[k]` is the k-th factor map's image of one monomial, such as
    `AlgebraMap.image` (memoized, so each factor monomial's image is read
    in place; star and the antipode are `AlgebraMap`s too), or None for
    the identity.  The
    image monomials of the factors are concatenated, so a factor map may
    land in a tensor product itself: (Delta (x) id) takes T2 to T3, and a
    factor mapped into K drops out.  The result owns a new term dict, as
    that of `AlgebraMap.__call__` does.
    """
    src = p.alg
    assert src.factors and len(images) == len(src.factors)
    acc = {}
    for mono, c in p.terms.items():
        # an identity factor keeps its monomial and multiplies nothing in
        legs = [[(sub, None)] if image is None else image(sub).terms.items()
                for sub, image in zip(src.split_mono(mono), images)]
        _tensor_terms(legs, c, acc)
    return NCPoly(target, {m: c for m, c in acc.items() if c})


# ---------------------------------------------------------------------------
# the rewriting certificate
# ---------------------------------------------------------------------------

def rewriting_certificate(alg: Algebra, degree: int):
    """Evidence, up to total degree max(degree, 1), that the canonical
    monomials of `alg` are a basis of the algebra its relations present.

    By Bergman's diamond lemma (G. Bergman, "The diamond lemma for ring
    theory", Adv. Math. 29, 1978) they are, once the engine's product is
    associative, lands on canonical monomials and satisfies the defining
    relations.  Associativity follows, by induction on deg z, from
    (x y) g = x (y g) for basis monomials x, y and each factor g that the
    engine multiplies by: every generator image (on G_d and G_bd the image
    of a is a polynomial) and every inverse of an invertible generator.

    What is certified is the bilinear extension of `Algebra.mul_mono`,
    summed over two tables of its products that live for one call:
    `right[m, g]`, the terms of m g (with g's coefficients), and `left[m]`,
    the terms of x m for the current x, cleared when x advances.  Then
    x y = left[y], y g = right[y, g], (x y) g is the sum of c right[m, g]
    over the terms c m of x y, and x (y g) the sum of c left[m] over the
    terms c m of y g.  A table entry keeps the cancelled terms and the
    insertion order of `mul_mono`'s accumulator, so each sum lists its
    terms in the order `NCPoly.__mul__` would.  Most triples build no sum:
    when x y = c1 m1 and y g = c2 m2 are single terms that did not cancel,
    the sides are c1 right[m1, g] and c2 left[m2], and when these two
    entries are single terms d1 n1 and d2 n2 as well, the triple holds
    exactly when c1 d1 = c2 d2 and, unless both are 0, n1 = n2.  At degree
    5 that decides 77% of the triples on G, G_b, G_d and G_bd; the a-d
    reduction and the two-term image of a on G_d and G_bd still build the
    sums.  No product by an exact ONE is formed.  `relations` still
    multiplies through `NCPoly.__mul__`.

    Returns the first witness of each failure, None where all holds:
    "associativity" names a triple (x, y, g), "canonical" a non-canonical
    monomial of some product, and "relations" lists the failed relations
    (the defining ones, read through the identity map, and g g^-1 = 1 =
    g^-1 g for each inverse).
    """
    top = max(degree, 1) - 1
    factors = [(g, alg.gen(g)) for g in alg.gens]
    factors += [(f"{alg.gens[i]}^-1", alg.gen(alg.gens[i], -1))
                for i in sorted(alg.invertible)]
    monos = alg.basis_monomials(top)
    mul_mono = alg.mul_mono
    left = {}  # m -> the terms of x m
    canon = set()  # the monomials check_mono has accepted
    associativity = canonical = None

    def right_of(g):
        # the table m -> the terms of m g, one per factor g
        right = {}

        def entry(m):
            terms = right.get(m)
            if terms is None:
                terms = right[m] = {}
                for m2, c2 in g.terms.items():
                    mul_mono(m, m2, c2, terms)
            return terms
        return entry

    def left_of(m):
        terms = left.get(m)
        if terms is None:
            terms = left[m] = {}
            mul_mono(x, m, ONE, terms)
        return terms

    def times(c, c2):
        # c c2, with no product by an exact ONE
        return c2 if c is ONE else c if c2 is ONE else c * c2

    def product(terms, entry):
        # the sum of c entry(m) over the terms c m of `terms`, in the order
        # of mul_mono's accumulator, cancelled terms left out
        acc = {}
        get = acc.get
        for m, c in terms.items():
            if c:
                for m2, c2 in entry(m).items():
                    c2 = times(c, c2)
                    v = get(m2)
                    acc[m2] = c2 if v is None else v + c2
        return {m: c for m, c in acc.items() if c}

    def side(terms, entry):
        # (c, t) with c t the sum of c' entry(m) over the terms c' m of
        # `terms`: for one term that did not cancel, (c', entry(m)) itself,
        # with no sum built
        if len(terms) == 1:
            [(m, c)] = terms.items()
            if c:
                return c, entry(m)
        return ONE, product(terms, entry)

    def equal(lhs, rhs):
        # c1 t1 == c2 t2 for the sides (c1, t1) and (c2, t2), cancelled
        # terms left out.  Two single terms d1 m1 and d2 m2 are compared
        # as they are (c1 and c2 are nonzero, so a side is 0 exactly when
        # its d is); otherwise both sums are built
        (c1, t1), (c2, t2) = lhs, rhs
        if len(t1) == 1 == len(t2):
            [(m1, d1)], [(m2, d2)] = t1.items(), t2.items()
            return times(c1, d1) == times(c2, d2) and (m1 == m2 or not d1)
        return scaled(c1, t1) == scaled(c2, t2)

    def scaled(c, terms):
        return {m: times(c, d) for m, d in terms.items() if d}

    def noncanonical(terms, parts, name=""):
        # the witness "m in (x) (y) g" for the first nonzero term m of the
        # product of the monomials `parts` and the factor `name` that is
        # not canonical, built only then
        for m, c in terms.items():
            if not c or m in canon:
                continue
            try:
                alg.check_mono(m)
            except DomainError:
                where = " ".join([f"({alg.mono_str(x)})" for x in parts]
                                 + ([name] if name else []))
                return f"{alg.mono_str(m)} in {where}"
            canon.add(m)
        return None

    rights = [(name, right_of(g)) for name, g in factors]
    # x = 1 or y = 1 makes both sides the same product, so monos[0] = 1
    # is left out
    graded = [(m, alg.mono_degree(m)) for m in monos[1:]]
    for x, dx in graded:
        left.clear()
        for y, dy in graded:
            if dx + dy > top:
                break
            xy = left_of(y)
            canonical = canonical or noncanonical(xy, (x, y))
            for name, right in rights:
                yg = right(y)
                # every y meets x = monos[1], of least degree, first
                if x is monos[1]:
                    canonical = canonical or noncanonical(yg, (y,), name)
                lhs = side(xy, right)
                canonical = canonical or noncanonical(lhs[1], (x, y), name)
                if associativity is None and not equal(lhs,
                                                       side(yg, left_of)):
                    associativity = (
                        f"(x y) g != x (y g) for x = {alg.mono_str(x)}, "
                        f"y = {alg.mono_str(y)}, g = {name}")
    relations = STD.inclusion(alg, alg).check_relations()
    for name, g in factors[alg.n:]:
        base = name[:-len("^-1")]
        if not (alg.gen(base) * g == alg.one() == g * alg.gen(base)):
            relations.append(f"{base} {name} = 1 = {name} {base}")
    return {"associativity": associativity, "canonical": canonical,
            "relations": relations}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_element(text: str, alg: Algebra) -> NCPoly:
    """Parse the expression grammar into a canonical element of `alg`."""
    atoms = {"1": alg.one(), "q": alg.scalar(Q)}
    for g in alg.gens:
        atoms[g] = alg.gen(g)
    v = parse_with_context(text, atoms)
    if isinstance(v, QScalar):
        v = alg.scalar(v)
    return v
