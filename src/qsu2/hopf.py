"""Hopf-algebra structure on G and on the Borel quotient B, the projection
pi, and machine verification of the axioms.

The coproduct is the matrix coproduct on T = [[a,b],[c,d]]; the bialgebra
checker is the arbiter that it preserves all relations.  The antipode is
not transcribed from anywhere: generator images are solved from the
convolution identity mu(S (x) id) Delta(g) = eps(g) 1 inside a finite
monomial ansatz, and uniqueness of the solution is part of the contract.
Every structure map is an `AlgebraMap`: Delta, eps and pi are
multiplicative, the antipode S (like the involution `ncalg.STD.star`)
is antimultiplicative.

Each law is a pair (f, g) of Q(q)-linear maps, and `law_check` checks it
as f(m) = g(m) on the basis monomials m up to a degree: the Hopf and star
laws and pi's compatibility with Delta and eps up to the requested
degree, pi's compatibility with S on the unit and the generators.  A law
that holds on a basis holds on its span, so these checks are exhaustive
up to the degree.  The star is antilinear, but conjugation is the
identity on Q(q) (q is real and the coefficients are rational), so star
is linear here and the star laws are linear laws too.
"""

from __future__ import annotations

import functools

from . import linalg
from .ncalg import (AlgebraMap, DomainError, NCPoly, STD, apply_tensor_map,
                    star, tensor_elem)
from .report import check
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
    "verify_pi_hopf_map",
]


class HopfAlgebra:
    """An algebra of the standard family together with its Hopf data."""

    def __init__(self, alg, delta_images, counit_images, name,
                 antipode_ansatz_degree=2):
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
            images, self.antipode_unique = self._solve_antipode(
                antipode_ansatz_degree)
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

    # -- derived antipode ---------------------------------------------------

    def _solve_antipode(self, ansatz_degree):
        """Solve mu(S (x) id) Delta(g) = eps(g) 1 on generator legs.

        Unknowns are the S-images of every generator power occurring as a
        left Sweedler leg, each expanded over the monomial basis up to the
        ansatz degree.
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
                  for m in alg.basis_monomials(ansatz_degree)]
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


def verify_hopf(which: str, degree: int = 5, corrupt_delta: bool = False):
    """Check coassociativity, counit, antipode and star laws on the basis
    monomials of degree <= max(degree, 1), so on the generators at least;
    returns the shared report-check list.  `corrupt_delta` installs a
    broken Delta(b) as a negative control."""
    hopf = _corrupted(which) if corrupt_delta else _standard(which)
    alg = hopf.alg
    checks = []
    degree = max(degree, 1)

    def run(name, anchor, *laws):
        checks.append(law_check(name, anchor, alg, degree, *laws))

    def tensor_map(images, target):
        return lambda w: apply_tensor_map(hopf.delta(w), images, target)

    def identity(w):
        return w

    def eta_eps(w):
        return alg.scalar(hopf.counit(w))

    checks.append(check(f"{which}.delta_algebra_map",
                        not hopf.delta.check_relations(),
                        "coproduct preserves the defining relations"))
    delta, eps = hopf.delta.image, hopf.eps.image
    run(f"{which}.coassociativity",
        "(Delta x id)Delta = (id x Delta)Delta",
        (tensor_map([delta, None], hopf.T3),
         tensor_map([None, delta], hopf.T3)))
    run(f"{which}.counit_law",
        "(eps x id)Delta = id = (id x eps)Delta",
        (tensor_map([eps, None], alg), identity),
        (tensor_map([None, eps], alg), identity))
    if hopf.antipode is None:
        checks.append(check(f"{which}.antipode_convolution", False,
                            "mu(S x id)Delta = eta eps = mu(id x S)Delta",
                            f"no antipode solution: {hopf.antipode_failure}"))
    else:
        run(f"{which}.antipode_convolution",
            "mu(S x id)Delta = eta eps = mu(id x S)Delta",
            (lambda w: _convolve_antipode(hopf, w, "left"), eta_eps),
            (lambda w: _convolve_antipode(hopf, w, "right"), eta_eps))
    checks.append(check(f"{which}.antipode_unique_in_ansatz",
                        hopf.antipode_unique,
                        "antipode derived by solving the convolution identity"))
    if alg is STD.G:
        run(f"{which}.star_coproduct",
            "Delta(a^*) = sum a_(1)^* x a_(2)^* (intended reading of Definition 3)",
            (lambda w: hopf.delta(star(w)),
             tensor_map([STD.star.image, STD.star.image], hopf.T2)))
        run(f"{which}.star_counit",
            "eps(a^*) = conj(eps(a))",
            (lambda w: hopf.eps(star(w)), hopf.eps))
        if hopf.antipode is not None:
            run(f"{which}.star_antipode_compat",
                "S(S(a^*)^*) = a (standard Hopf-* compatibility)",
                (lambda w: hopf.antipode(star(hopf.antipode(star(w)))),
                 identity))
    else:
        checks.append(check(f"{which}.star_axioms", None,
                            "Definition 3 (real form)",
                            "no involution: the ideal (b) is not star-stable, "
                            "so no star descends to the Borel quotient"))
    return checks


def verify_pi_hopf_map(degree: int = 5):
    """pi is a Hopf-algebra map: Delta and eps checked on all basis
    monomials up to the degree, S on the unit and the generators."""

    def law(name, anchor, degree, f, g):
        return law_check(f"pi.{name}", anchor, STD.G, degree, (f, g))

    return [
        law("coproduct_compat", "Delta_B pi = (pi x pi) Delta_G", degree,
            lambda p: _HOPF_B.delta(_PI(p)),
            lambda p: apply_tensor_map(_HOPF_G.delta(p),
                                       [_PI.image, _PI.image], _HOPF_B.T2)),
        law("counit_compat", "eps_B pi = eps_G", degree,
            lambda p: _HOPF_B.eps(_PI(p)), _HOPF_G.eps),
        law("antipode_compat", "S_B pi = pi S_G", 1,
            lambda p: _HOPF_B.antipode(_PI(p)),
            lambda p: _PI(_HOPF_G.antipode(p))),
    ]
