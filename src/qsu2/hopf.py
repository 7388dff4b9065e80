"""Hopf-algebra structure on G and on the Borel quotient B, the projection
pi, and machine verification of the axioms.

The coproduct is the matrix coproduct on T = [[a,b],[c,d]]; the bialgebra
checker is the arbiter that it preserves all relations.  The antipode is
not transcribed from anywhere: generator images are solved from the
convolution identity mu(S (x) id) Delta(g) = eps(g) 1 inside a finite
monomial ansatz, and uniqueness of the solution is part of the contract.
`HopfAlgebra.require_antipode` is the one place that decides whether
there is a solution: it returns S, or raises the `DomainError`
"no antipode solution on {name}: {reason}" that every reader reports.
Every structure map is an `AlgebraMap`: Delta, eps and pi are
multiplicative, the antipode S (like the involution `ncalg.STD.star`)
is antimultiplicative.

Each law is a pair (f, g) of Q(q)-linear maps, compared on basis
monomials, so a law that holds on them holds on their span.  The Hopf and
star laws, pi's compatibility with Delta, eps and S, and the two chart
laws of `charts.verify_chart` are laws between two composites of structure maps that are both multiplicative or both
antimultiplicative, and `generator_law` decides each of them in every
degree on `basis_words(alg, 1)`: the unit, the generators and the
inverses of the invertible generators.  The argument: the engine's image
of a basis monomial m = g_1^e_1 ... g_k^e_k under an `AlgebraMap` is the
product of the generator images, by construction.  A map applied to that
product, such as Delta x id to Delta(m) or S to star(m), splits it into
the product of its values on the factors when it respects the defining
relations of its source.  Then f(m) and g(m) are the products of
f(g_i^e_i) and g(g_i^e_i) in the same (or the same reversed) order, and
agree once the generator values do.  So each law rests on the
`check_relations` of the maps it applies to a product, named next to the
code; a failed relation check fails the law, and its witness names the map
and the relation.  The antipode convolution is not multiplicative, but it
holds on xy once it holds on x and on y: with Delta(xy) = Delta(x) Delta(y)
(by construction on a basis monomial) and S antimultiplicative,
S((xy)_1) (xy)_2 = S(y_1) S(x_1) x_2 y_2 = eps(x) eps(y) 1, and likewise on
the right, so it rests on S alone.  Every argument also rests on the
associativity of the engine's products, which the `rewriting` suite
certifies only up to its `--degree`.

The Haar invariance laws (`haar`) are not of this kind, since the Haar
functional is not multiplicative: `law_check` checks a law on every basis
monomial up to a degree, so such a check is exhaustive up to that degree.
The star is antilinear, but conjugation is the identity on Q(q) (q is real
and the coefficients are rational), so star is linear here and the star
laws are linear laws too.
"""

from __future__ import annotations

import functools

from . import linalg
from .ncalg import (AlgebraMap, DomainError, NCPoly, STD, apply_tensor_map,
                    star, tensor_elem)
from .report import attempt, check
from .scalars import ONE, QScalar

__all__ = [
    "HopfAlgebra",
    "hopf_G",
    "hopf_B",
    "pi_map",
    "is_group_like",
    "verify_hopf",
    "basis_words",
    "law_check",
    "generator_law",
    "verify_pi_hopf_map",
]

# the degree up to which the antipode's generator images are solved for
ANTIPODE_ANSATZ_DEGREE = 2


class HopfAlgebra:
    """An algebra of the standard family together with its Hopf data."""

    def __init__(self, alg, delta_images, counit_images, name):
        self.alg = alg
        self.name = name
        self.T2 = STD.tensor(alg, alg)
        self.T3 = STD.tensor(alg, alg, alg)
        self.delta = AlgebraMap(alg, self.T2, delta_images, name=f"Delta[{name}]")
        self.eps = AlgebraMap(alg, STD.K, counit_images, name=f"eps[{name}]")
        # the antipode S is the antihomomorphic extension of the solved
        # generator images; None when the convolution identity has no
        # solution (a broken coproduct, as in the negative control)
        try:
            images, self.antipode_unique = self._solve_antipode()
        except (ValueError, DomainError) as exc:
            self.antipode = None
            self.antipode_unique = False
            self.antipode_failure = str(exc)
        else:
            self.antipode = AlgebraMap(alg, alg, images, name=f"S[{name}]",
                                       anti=True)
            self.antipode_failure = None

    def counit(self, p: NCPoly) -> QScalar:
        return self.eps(p).scalar_part()

    def require_antipode(self) -> AlgebraMap:
        """The antipode S; a DomainError naming the algebra and the reason
        when the convolution identity had no solution."""
        if self.antipode is None:
            raise DomainError(f"no antipode solution on {self.name}: "
                              f"{self.antipode_failure}")
        return self.antipode

    # -- derived antipode ---------------------------------------------------

    def _solve_antipode(self):
        """Solve mu(S (x) id) Delta(g) = eps(g) 1 on generator legs.

        Unknowns are the S-images of every generator power occurring as a
        left Sweedler leg, each expanded over the monomial basis up to
        `ANTIPODE_ANSATZ_DEGREE`.
        """
        alg = self.alg
        eqs = []
        for g in alg.gens:
            if g not in self.delta.images:
                continue
            eqs.append((g, self.delta(alg.gen(g)), self.counit(alg.gen(g))))
            if alg.gen_index[g] in alg.invertible:
                # convolution identity for the inverse power pins its leg
                inv = alg.gen(g, -1)
                eqs.append((f"{g}^-1", self.delta(inv), self.counit(inv)))
        # right[leg][label]: the right legs that S(leg) multiplies in the
        # equation `label`; legs are numbered in order of appearance
        right = {}
        for label, dp, _eps in eqs:
            for mono, c in dp.terms.items():
                lm, rm = self.T2.split_mono(mono)
                nz = [(i, e) for i, e in enumerate(lm) if e]
                if len(nz) > 1:
                    raise DomainError("coproduct legs must be generator powers")
                legs = right.setdefault(nz[0] if nz else (0, 0), {})
                legs[label] = (legs.get(label, alg.zero())
                               + NCPoly(alg, {rm: c}))
        ansatz = [NCPoly(alg, {m: ONE})
                  for m in alg.basis_monomials(ANTIPODE_ANSATZ_DEGREE)]
        columns = [linalg.column({label: m * r for label, r in legs.items()})
                   for legs in right.values() for m in ansatz]
        target = linalg.column({label: alg.scalar(eps)
                                for label, _, eps in eqs})
        sol, unique = linalg.in_span(columns, target)
        if sol is None:
            raise ValueError("inconsistent linear system")
        images = {}
        for base, leg in zip(range(0, len(columns), len(ansatz)), right):
            coeffs = sol[base:base + len(ansatz)]
            images[leg] = sum((m * c for m, c in zip(ansatz, coeffs) if c),
                              alg.zero())
        # the generator images define S; inverse legs are consistency data
        gen_images = {}
        for (i, e), poly in images.items():
            if e == 1:
                gen_images[alg.gens[i]] = poly
        for (i, e), poly in images.items():
            if e != 1:
                expect = gen_images[alg.gens[i]] ** e
                if expect != poly:
                    raise DomainError(
                        "antipode solution inconsistent on inverse legs")
        return gen_images, unique


def _convolve_antipode(hopf: HopfAlgebra, p: NCPoly, side: str) -> NCPoly:
    """mu(S (x) id) Delta(p) for side='left', mu(id (x) S) for 'right'."""
    alg = hopf.alg
    acc = {}
    for mono, c in hopf.delta(p).terms.items():
        m1, m2 = hopf.T2.split_mono(mono)
        if side == "left":
            for m, v in hopf.antipode.image(m1).terms.items():
                alg.mul_mono(m, m2, c * v, acc)
        else:
            for m, v in hopf.antipode.image(m2).terms.items():
                alg.mul_mono(m1, m, c * v, acc)
    return NCPoly(alg, {m: v for m, v in acc.items() if v})


# ---------------------------------------------------------------------------
# the two standard Hopf algebras
# ---------------------------------------------------------------------------

def _build_G() -> HopfAlgebra:
    G = STD.G
    T2 = STD.tensor(G, G)

    def t(u, v):
        return tensor_elem(T2, [G.gen(u), G.gen(v)])

    delta_images = {
        "a": t("a", "a") + t("b", "c"),
        "b": t("a", "b") + t("b", "d"),
        "c": t("c", "a") + t("d", "c"),
        "d": t("c", "b") + t("d", "d"),
    }
    return HopfAlgebra(G, delta_images, {"a": 1, "b": 0, "c": 0, "d": 1}, "G")


_HOPF_G = _build_G()


def _build_pi() -> AlgebraMap:
    B = STD.B
    return AlgebraMap(STD.G, B, {
        "a": B.gen("lambda"),
        "b": B.zero(),
        "c": B.gen("xi"),
        "d": B.gen("lambda", -1),
    }, name="pi")


_PI = _build_pi()


def _build_B() -> HopfAlgebra:
    """Borel Hopf data derived by pushing the G-structure through pi."""
    G, B = STD.G, STD.B
    BB = STD.tensor(B, B)

    def push(g):
        return apply_tensor_map(_HOPF_G.delta(G.gen(g)),
                                [_PI.image, _PI.image], BB)

    delta_images = {"lambda": push("a"), "xi": push("c")}
    counit_images = {
        "lambda": _HOPF_G.counit(G.gen("a")),
        "xi": _HOPF_G.counit(G.gen("c")),
    }
    return HopfAlgebra(B, delta_images, counit_images, "B")


_HOPF_B = _build_B()


def hopf_G() -> HopfAlgebra:
    return _HOPF_G


def hopf_B() -> HopfAlgebra:
    return _HOPF_B


def pi_map() -> AlgebraMap:
    return _PI


def is_group_like(hopf: HopfAlgebra, p: NCPoly) -> bool:
    if p.is_zero():
        return False
    return (hopf.delta(p) == tensor_elem(hopf.T2, [p, p])
            and hopf.counit(p) == ONE)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@functools.cache
def basis_words(alg, degree):
    """The canonical basis monomials of degree <= `degree`, as elements.
    Built once per (algebra, degree), since every law checked up to a
    degree runs on the same basis.  Shared: callers only read it."""
    return tuple(NCPoly(alg, {mono: ONE})
                 for mono in alg.basis_monomials(degree))


def law_check(name, anchor, alg, degree, *laws):
    """The check record of the laws (f, g), linear maps on `alg`, on its
    basis monomials of degree <= `degree`: a failure names the first
    monomial m with f(m) != g(m) for some law, and an empty basis is a skip
    that names the degree, never a pass."""
    basis = basis_words(alg, degree)
    if not basis:
        return check(name, None, anchor,
                     f"no basis monomial of degree <= {degree}")
    bad = next((m for m in basis if any(f(m) != g(m) for f, g in laws)),
               None)
    return check(name, bad is None, anchor, bad)


def generator_law(alg, maps, *laws):
    """The verdict (ok, witness) of the laws (f, g) between
    (anti)multiplicative composites on `alg`, in every degree: f(m) = g(m)
    on the unit, the generators and their inverses (`basis_words(alg, 1)`),
    and every `AlgebraMap` in `maps`, those the composites apply to a
    product, respects the relations.  A failure names the first such m,
    else the first map and relation that fail."""
    bad = next((m for m in basis_words(alg, 1)
                if any(f(m) != g(m) for f, g in laws)), None)
    if bad is None:
        bad = next((f"{amap.name} fails relation {rel}" for amap in maps
                    for rel in amap.check_relations()), None)
    return bad is None, bad


def _standard(which: str) -> HopfAlgebra:
    return {"G": _HOPF_G, "B": _HOPF_B}[which]


@functools.cache
def _corrupted(which: str) -> HopfAlgebra:
    """The negative control: Delta of the second generator (b, or xi on B)
    gains a g (x) g term.  Built once per algebra, so repeated checks add
    nothing to the method caches."""
    hopf = _standard(which)
    g = hopf.alg.gens[1]
    images = dict(hopf.delta.images)
    images[g] = images[g] + tensor_elem(hopf.T2,
                                        [hopf.alg.gen(g), hopf.alg.gen(g)])
    return HopfAlgebra(hopf.alg, images, hopf.eps.images, hopf.name)


def verify_hopf(which: str, corrupt_delta: bool = False):
    """Check coassociativity, counit, antipode and star laws in every
    degree, on the generators; returns the shared report-check list.
    `corrupt_delta` installs a broken Delta(b) as a negative control."""
    hopf = _corrupted(which) if corrupt_delta else _standard(which)
    alg = hopf.alg
    checks = []

    def run(name, anchor, maps, *laws):
        # maps() is read in the check: a missing antipode fails its laws
        checks.append(attempt(name, anchor,
                              lambda: generator_law(alg, maps(), *laws)))

    def tensor_map(images, target):
        return lambda w: apply_tensor_map(hopf.delta(w), images, target)

    def identity(w):
        return w

    def eta_eps(w):
        return alg.scalar(hopf.counit(w))

    checks.append(check(f"{which}.delta_algebra_map",
                        not hopf.delta.check_relations(),
                        "coproduct preserves the defining relations"))
    # the maps each law applies to a product, whose relation checks it
    # rests on: coassociativity Delta (in Delta x id and id x Delta),
    # counit_law eps, antipode_convolution S, star_coproduct Delta (on
    # star(m)) and star (in star x star), star_counit eps (on star(m)),
    # star_antipode_compat S and star
    delta, eps = hopf.delta.image, hopf.eps.image
    run(f"{which}.coassociativity",
        "(Delta x id)Delta = (id x Delta)Delta", lambda: [hopf.delta],
        (tensor_map([delta, None], hopf.T3),
         tensor_map([None, delta], hopf.T3)))
    run(f"{which}.counit_law",
        "(eps x id)Delta = id = (id x eps)Delta", lambda: [hopf.eps],
        (tensor_map([eps, None], alg), identity),
        (tensor_map([None, eps], alg), identity))
    run(f"{which}.antipode_convolution",
        "mu(S x id)Delta = eta eps = mu(id x S)Delta",
        lambda: [hopf.require_antipode()],
        (lambda w: _convolve_antipode(hopf, w, "left"), eta_eps),
        (lambda w: _convolve_antipode(hopf, w, "right"), eta_eps))
    checks.append(check(f"{which}.antipode_unique_in_ansatz",
                        hopf.antipode_unique,
                        "antipode derived by solving the convolution identity"))
    if alg is STD.G:
        run(f"{which}.star_coproduct",
            "Delta(a^*) = sum a_(1)^* x a_(2)^* (intended reading of Definition 3)",
            lambda: [hopf.delta, STD.star],
            (lambda w: hopf.delta(star(w)),
             tensor_map([STD.star.image, STD.star.image], hopf.T2)))
        run(f"{which}.star_counit",
            "eps(a^*) = conj(eps(a))", lambda: [hopf.eps],
            (lambda w: hopf.eps(star(w)), hopf.eps))
        run(f"{which}.star_antipode_compat",
            "S(S(a^*)^*) = a (standard Hopf-* compatibility)",
            lambda: [hopf.require_antipode(), STD.star],
            (lambda w: hopf.antipode(star(hopf.antipode(star(w)))), identity))
    else:
        checks.append(check(f"{which}.star_axioms", None,
                            "Definition 3 (real form)",
                            "no involution: the ideal (b) is not star-stable, "
                            "so no star descends to the Borel quotient"))
    return checks


def verify_pi_hopf_map():
    """pi is a Hopf-algebra map: Delta, eps and S checked in every degree,
    on the generators."""

    def law(name, anchor, maps, f, g):
        # maps(), and S_G in g, are read in the check, as in `verify_hopf`
        return attempt(f"pi.{name}", anchor,
                       lambda: generator_law(STD.G, maps(), (f, g)))

    # the maps each law applies to a product: coproduct_compat Delta_B (on
    # pi(m)) and pi (in pi x pi), counit_compat eps_B (on pi(m)),
    # antipode_compat S_B (on pi(m)) and pi (on S_G(m))
    HB, HG = _HOPF_B, _HOPF_G
    return [
        law("coproduct_compat", "Delta_B pi = (pi x pi) Delta_G",
            lambda: [HB.delta, _PI],
            lambda p: HB.delta(_PI(p)),
            lambda p: apply_tensor_map(HG.delta(p), [_PI.image, _PI.image],
                                       HB.T2)),
        law("counit_compat", "eps_B pi = eps_G", lambda: [HB.eps],
            lambda p: HB.eps(_PI(p)), HG.eps),
        law("antipode_compat", "S_B pi = pi S_G",
            lambda: [HB.require_antipode(), _PI],
            lambda p: HB.antipode(_PI(p)),
            lambda p: _PI(HG.require_antipode()(p))),
    ]
