import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

import ncalg_oracle
import rewriting_oracle
from qsu2 import linalg
from qsu2.hopf import hopf_B, hopf_G, pi_map
from qsu2.ncalg import (Algebra, DomainError, NCPoly, STD, apply_tensor_map,
                        parse_element, retract, rewriting_certificate, star,
                        tensor_elem)
from qsu2.scalars import ONE, Q, QScalar, ZERO, q_pow
from rewriting_oracle import (confluence_probe, normal_form_of_word,
                              random_word)

G, Gb, Gd, Gbd = STD.G, STD.Gb, STD.Gd, STD.Gbd


def g(text, alg=G):
    return parse_element(text, alg)


# -- normal forms ---------------------------------------------------------------

def test_db_swap():
    assert g("d b") == g("q^-1 b d")


def test_da_elimination():
    assert g("d a") == g("1 + q^-1 b c")


def test_ad_elimination():
    assert g("a d") == g("1 + q b c")


def test_binv_a_in_Gb():
    assert g("b^-1 a", Gb) == g("q a b^-1", Gb)


def test_a_reduces_in_Gd():
    assert Gd.gen("a") == g("d^-1 + q b c d^-1", Gd)


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        G.gen("b", -1)


def test_unit_and_commuting():
    p = g("a + q b c")
    assert p * G.one() == p
    assert g("b c") * g("b c") == g("b^2 c^2")


def test_dr_ar_pochhammer():
    # d^r a^r = prod_k (1 + q^(-1-2k) b c), all factors linear in bc
    d, a, b, c = g("d"), g("a"), g("b"), g("c")
    for r in range(1, 6):
        lhs = d ** r * a ** r
        rhs = G.one()
        for k in range(r):
            rhs = rhs * (G.one() + b * c * q_pow(-1 - 2 * k))
        assert lhs == rhs


def test_power_forms_one_product_per_square_and_set_bit(monkeypatch):
    # p ** e squares p up to the highest bit of e and multiplies in each
    # further set bit: no 1 p product, and no square past the last bit
    p = g("a") + g("b")
    expected = [G.one()]
    for _ in range(4):
        expected.append(expected[-1] * p)
    products = []
    original = NCPoly.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)
    monkeypatch.setattr(NCPoly, "__mul__", counted)
    for e, count in enumerate([0, 0, 1, 2, 2]):
        products.clear()
        assert p ** e == expected[e], e
        assert len(products) == count, e


def test_associativity_randomized():
    rng = random.Random(5)
    for alg in (G, Gb, Gd, Gbd):
        for _ in range(25):
            p = normal_form_of_word(alg, random_word(alg, rng, 6))
            r = normal_form_of_word(alg, random_word(alg, rng, 6))
            s = normal_form_of_word(alg, random_word(alg, rng, 6))
            assert (p * r) * s == p * (r * s)


def test_normal_form_idempotent():
    # the normal form of a canonical monomial's own word is that monomial
    rng = random.Random(6)
    for _ in range(30):
        p = normal_form_of_word(G, random_word(G, rng, 5))
        for mono in p.terms:
            word = [(i, e) for i, e in enumerate(mono) if e]
            assert normal_form_of_word(G, word) == NCPoly(G, {mono: ONE})


# -- star -----------------------------------------------------------------------

def test_star_generators():
    assert star(g("b")) == g("-q c")
    assert star(g("a")) == g("d")


def test_star_involution():
    assert star(star(g("c"))) == g("c")
    rng = random.Random(7)
    for _ in range(20):
        p = normal_form_of_word(G, random_word(G, rng, 5))
        assert star(star(p)) == p


def test_star_antihomomorphism():
    rng = random.Random(8)
    for _ in range(25):
        p = normal_form_of_word(G, random_word(G, rng, 4))
        r = normal_form_of_word(G, random_word(G, rng, 4))
        assert star(p * r) == star(r) * star(p)


def test_star_of_ujdn():
    # (u^j d^n)^* = q^C(j,2) (-q)^j a^(n-j) c^j after retraction to G
    for n in range(1, 5):
        for j in range(n + 1):
            u_j_dn = Gd.gen("b", j) * Gd.gen("d", n - j) * q_pow(j * (j - 1) // 2)
            p = retract(u_j_dn, G)
            expect = (G.gen("a", n - j) * G.gen("c", j)
                      * q_pow(j * (j - 1) // 2) * (-Q) ** j)
            assert star(p) == expect


def test_star_rejects_localized():
    with pytest.raises(DomainError):
        star(Gb.gen("b", -1))


# -- algebra maps -----------------------------------------------------------------

def test_pi_kills_detq():
    from qsu2.hopf import pi_map
    assert pi_map()(g("a d")) == STD.B.one()


def test_identity_map():
    from qsu2.ncalg import AlgebraMap
    ident = AlgebraMap(G, G, {x: G.gen(x) for x in "abcd"})
    rng = random.Random(9)
    for _ in range(10):
        p = normal_form_of_word(G, random_word(G, rng, 4))
        assert ident(p) == p


def test_map_inverse_of_non_monomial_image():
    from qsu2.ncalg import AlgebraMap
    B = STD.B
    images = {"lambda": g("b + c"), "xi": g("a")}
    with pytest.raises(DomainError):
        AlgebraMap(B, G, images)(B.gen("lambda", -1))


def test_iota_injective_on_basis():
    # normal forms of distinct basis monomials stay linearly independent
    for target in (Gb, Gd):
        iota = STD.inclusion(G, target)
        cols = [dict(iota(NCPoly(G, {m: ONE})).terms)
                for m in G.basis_monomials(6)]
        assert not linalg.kernel_basis(cols)


def test_no_ad_cooccurrence():
    rng = random.Random(10)
    for _ in range(50):
        p = normal_form_of_word(G, random_word(G, rng, 6))
        for mono in p.terms:
            assert not (mono[0] > 0 and mono[3] != 0)


# -- confluence probe ---------------------------------------------------------------

@pytest.mark.parametrize("alg", [G, Gb, Gd, Gbd], ids=lambda a: a.name)
def test_confluence(alg):
    rep = confluence_probe(alg, samples=60, degree=6, seed=13)
    assert rep["passed"], rep["discrepancies"][:1]


def test_manin_confluence():
    rep = confluence_probe(STD.M, samples=30, degree=6, seed=2)
    assert rep["passed"]


# -- the monomial-product kernel ------------------------------------------------------

@st.composite
def canonical_monomials(draw, alg):
    """A canonical monomial of `alg`, negative exponents included on the
    invertible generators; on a tensor product, one for each factor."""
    if alg.factors:
        return ncalg_oracle.join_monos([draw(canonical_monomials(f))
                                        for f in alg.factors])
    mono = []
    for i in range(alg.n):
        if i in alg.elim_gen:
            mono.append(0)
        else:
            low = -3 if i in alg.invertible else 0
            mono.append(draw(st.integers(min_value=low, max_value=3)))
    if alg.ad_pair:
        ia, id_ = alg.ad_pair
        if mono[ia] > 0 and mono[id_] != 0:
            mono[draw(st.sampled_from(alg.ad_pair))] = 0
    mono = tuple(mono)
    alg.check_mono(mono)
    return mono


@st.composite
def coefficients(draw):
    """A scalar whose denominator may have more than one term, or be 1."""
    num = draw(st.lists(st.integers(min_value=-3, max_value=3),
                        min_size=1, max_size=3))
    den = draw(st.lists(st.integers(min_value=-3, max_value=3),
                        min_size=1, max_size=3).filter(any))
    return QScalar(num, den)


def nonzero_terms(acc):
    return {m: c for m, c in acc.items() if c}


KERNEL_ALGEBRAS = [G, Gb, Gd, Gbd, STD.B, STD.M, STD.tensor(G, G),
                   STD.tensor(G, G, G), STD.tensor(STD.B, STD.B)]


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=lambda a: a.name)
@seed(23)
@settings(max_examples=100)
@given(data=st.data())
def test_mul_mono_matches_the_oracle(alg, data):
    # two products into one dict, the second often on the same monomials,
    # so terms add up and may cancel
    monos = st.tuples(canonical_monomials(alg), canonical_monomials(alg))
    first = data.draw(monos)
    second = first if data.draw(st.booleans()) else data.draw(monos)
    got, want = {}, {}
    for m1, m2 in (first, second):
        c = data.draw(coefficients())
        alg.mul_mono(m1, m2, c, got)
        ncalg_oracle.mul_mono(alg, m1, m2, c, want)
    assert nonzero_terms(got) == nonzero_terms(want)


def _factor_maps(alg):
    """(name, image of one monomial or None for the identity, target
    factors) for each map tried on a tensor factor `alg`, G or B: eps lands
    in K, so the factor drops out, and Delta lands in a tensor product."""
    hopf = hopf_G() if alg is G else hopf_B()
    maps = [("id", None, (alg,)), ("eps", hopf.eps.image, ()),
            ("Delta", hopf.delta.image, (alg, alg)),
            ("S", hopf.antipode.image, (alg,))]
    if alg is G:
        maps += [("pi", pi_map().image, (STD.B,)),
                 ("star", STD.star.image, (G,))]
    return maps


def _target(factors):
    if not factors:
        return STD.K
    return factors[0] if len(factors) == 1 else STD.tensor(*factors)


@st.composite
def factor_elements(draw, alg):
    """An element of a base algebra on up to three canonical monomials;
    zero when none is drawn."""
    terms = {draw(canonical_monomials(alg)): draw(coefficients())
             for _ in range(draw(st.integers(min_value=0, max_value=3)))}
    return NCPoly(alg, nonzero_terms(terms))


@st.composite
def tensor_elements(draw, alg):
    """An element of the tensor product `alg` on a few canonical monomials,
    with, when drawn, a pair c (1 (x) m) - c (g^k (x) m), g the first
    generator (a or lambda), which eps on the first factor sends to zero."""
    terms = {draw(canonical_monomials(alg)): draw(coefficients())
             for _ in range(draw(st.integers(min_value=0, max_value=3)))}
    if draw(st.booleans()):
        first = alg.factors[0]
        low = -3 if 0 in first.invertible else 1
        k = draw(st.integers(min_value=low, max_value=3).filter(bool))
        rest = [draw(canonical_monomials(f)) for f in alg.factors[1:]]
        c = draw(coefficients())
        power = (k,) + first._zero_mono[1:]
        for sub, sign in ((first._zero_mono, c), (power, -c)):
            mono = ncalg_oracle.join_monos([sub, *rest])
            terms[mono] = terms.get(mono, ZERO) + sign
    return NCPoly(alg, nonzero_terms(terms))


TENSOR_MAP_SOURCES = [STD.tensor(G, G), STD.tensor(G, STD.B),
                      STD.tensor(STD.B, STD.B), STD.tensor(G, G, G)]


@pytest.mark.parametrize("alg", TENSOR_MAP_SOURCES, ids=lambda a: a.name)
@seed(29)
@settings(max_examples=40)
@given(data=st.data())
def test_tensor_term_loops_match_the_oracle(alg, data):
    # apply_tensor_map with identity factors, factors mapped into K and
    # into a tensor product, on terms that may cancel; and tensor_elem on
    # factor elements, a zero one included
    p = data.draw(tensor_elements(alg))
    maps = [data.draw(st.sampled_from(_factor_maps(f))) for f in alg.factors]
    images = [image for _, image, _ in maps]
    target = _target([t for _, _, factors in maps for t in factors])
    got = apply_tensor_map(p, images, target)
    assert got == ncalg_oracle.apply_tensor_map(p, images, target)
    assert all(got.terms.values())
    parts = [data.draw(factor_elements(f)) for f in alg.factors]
    got = tensor_elem(alg, parts)
    assert got == ncalg_oracle.tensor_elem(alg, parts)
    assert all(got.terms.values())


def test_apply_tensor_map_drops_cancelled_terms():
    # eps (x) id sends (1 - a) (x) b to (1 - 1) b = 0
    p = tensor_elem(STD.tensor(G, G), [G.one() - G.gen("a"), G.gen("b")])
    for apply in (apply_tensor_map, ncalg_oracle.apply_tensor_map):
        assert apply(p, [hopf_G().eps.image, None], G).terms == {}


def test_merge_rejects_an_a_d_crossing():
    # d (in m1) meets a (in m2): only the a-d rules may reorder them
    for merge in (G._merge, lambda m1, m2: ncalg_oracle.merge(G, m1, m2)):
        with pytest.raises(AssertionError, match="G: illegal crossing d/a"):
            merge((0, 0, 0, 1), (1, 0, 0, 0))


def test_tensor_products_read_comm_when_called(monkeypatch):
    # a tensor product multiplies in its factors and keeps no exponents of
    # its own, so it sees a commutation exponent of B flipped after both
    # algebras were built
    B, BB = STD.B, STD.tensor(STD.B, STD.B)
    assert BB.comm == {}

    def products():
        return [B.gen("xi") * B.gen("lambda")] + [
            BB.gen(f"xi@{k}") * BB.gen(f"lambda@{k}") for k in (0, 1)]

    def expected(c):
        return [NCPoly(B, {(1, 1): c}), NCPoly(BB, {(1, 1, 0, 0): c}),
                NCPoly(BB, {(0, 0, 1, 1): c})]

    assert products() == expected(q_pow(-1))
    monkeypatch.setitem(B.comm, (0, 1), 1)
    assert products() == expected(Q)


@pytest.mark.parametrize("alg", [G, Gb, Gd, Gbd, STD.B, STD.K, STD.M],
                         ids=lambda a: a.name)
def test_basis_monomials_is_one_cached_tuple(alg):
    # and the same tuple, in the same order, as the filtered exponent box
    for degree in range(-1, 9):
        got = alg.basis_monomials(degree)
        assert type(got) is tuple
        assert alg.basis_monomials(degree) is got
        assert got == Algebra.basis_monomials.__wrapped__(alg, degree)
        assert got == ncalg_oracle.basis_monomials(alg, degree), degree


def test_tracer_finds_no_unwrapped_binding():
    # the benchmark's layer tracer (perfbench/tracer.py) wraps every
    # binding of each traced function, `Algebra.mul_mono` among them; a
    # reference kept elsewhere, such as a bound method stored at build
    # time, would bypass it.  It runs in its own process, since it rebinds
    # the package for good.
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import qsu2.cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = qsu2.cli.main(['verify', 'rewriting', '--degree', '3'])\n"
        "qsu2.ncalg.STD.G.basis_monomials(3)\n"
        "print(json.dumps([code, tracer.counts().get('ncalg.mul_mono', 0),\n"
        "                  tracer.stale_bindings()]))\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, calls, stale = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert calls > 0
    assert stale == []


# -- the rewriting certificate -------------------------------------------------------

HOLDS = {"associativity": None, "canonical": None, "relations": []}


@pytest.mark.parametrize("alg", [G, Gb, Gd, Gbd, STD.B, STD.M],
                         ids=lambda a: a.name)
def test_rewriting_certificate_holds(alg):
    assert rewriting_certificate(alg, 5) == HOLDS


def test_rewriting_certificate_keeps_degree_one():
    # the generators and their inverses are multiplied at every degree
    for degree in (-2, 0, 1):
        assert rewriting_certificate(Gbd, degree) == HOLDS


def test_certificate_relations_are_not_implied_by_associativity(monkeypatch):
    # lambda xi = q^-1 xi lambda still gives an associative q-skew product
    # on B, so only the relation check sees the flipped sign
    monkeypatch.setitem(STD.B.comm, (0, 1), 1)
    assert rewriting_certificate(STD.B, 5) == {
        **HOLDS, "relations": ["lambda xi=q xi lambda"]}


@pytest.mark.parametrize("alg", [G, Gb, Gd, Gbd, STD.B, STD.M],
                         ids=lambda a: a.name)
def test_rewriting_certificate_matches_the_oracle(alg):
    # witness strings built only on failure and one check_mono per
    # monomial, against the certificate that built them for every product
    for degree in range(-1, 8):
        assert (rewriting_certificate(alg, degree)
                == rewriting_oracle.rewriting_certificate(alg, degree)), degree


def _flip(alg, pair):
    def fault(monkeypatch):
        monkeypatch.setitem(alg.comm, pair, -alg.comm[pair])
        return alg
    return fault


def _drop_bc(monkeypatch):
    # d^t a^k loses its bc terms: associativity fails
    original = Algebra._da_expand.__wrapped__
    monkeypatch.setattr(Algebra, "_da_expand", lambda self, t, k: {
        m: c for m, c in original(self, t, k).items() if not m[1]})
    return G


def _keep_ad(monkeypatch):
    # a d is left as it is: the canonical-form witness is built
    def keep(self, mono, coeff, acc):
        acc[mono] = acc.get(mono, ZERO) + coeff
    monkeypatch.setattr(Algebra, "_reduce_ordered", keep)
    return G


def _products(alg, edits):
    # mul_mono on `alg` gives edits[m1, m2](terms) in place of the terms of
    # m1 m2, for each listed monomial pair: a table keyed too coarsely would
    # hand the fault to other pairs or drop it
    def fault(monkeypatch):
        original = Algebra.mul_mono

        def mul_mono(self, m1, m2, coeff, acc):
            edit = edits.get((m1, m2)) if self is alg else None
            if edit is None:
                return original(self, m1, m2, coeff, acc)
            terms = {}
            original(self, m1, m2, coeff, terms)
            for m, c in edit(terms).items():
                v = acc.get(m)
                acc[m] = c if v is None else v + c
        monkeypatch.setattr(Algebra, "mul_mono", mul_mono)
        return alg
    return fault


def _moved(mono):
    # the terms' sum, moved onto `mono`
    return lambda terms: {mono: sum(terms.values(), ZERO)}


# monomials of G
_a, _b, _c, _d = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_ad, _bc, _cd = (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)

# c b^-1 on G_b picks up a stray q
_one_pair = _products(Gb, {
    (_c, (0, -1, 0, 0)): lambda terms: {m: c * Q for m, c in terms.items()}})

# On G at degree 3, x y = d a = 1 + q^-1 b c carries a zero coefficient on
# a d in front of its terms, as a sum that cancelled would, and three
# products by a land on non-canonical monomials: 1 a -> a d, b c a ->
# a b c d, and the cancelled (a d) a -> a b c d.  None of 1, b c and a d is
# a y at degree 3, so (x y) a is the first product to show them, listing
# a d before a b c d.  A sum that also multiplied the cancelled term would
# list a b c d first and name it instead.
_cancelled_ahead = _products(G, {
    (_d, _a): lambda terms: {_ad: ZERO, **terms},
    ((0, 0, 0, 0), _a): _moved(_ad), (_bc, _a): _moved((1, 1, 1, 1)),
    (_ad, _a): _moved((1, 1, 1, 1))})

# x y = d a cancels to its zero coefficient on a d alone, and (a d) a
# lands on a d: a certificate that read the cancelled single term as
# c right[a d, g] would name a d
_cancelled_single = _products(G, {
    (_d, _a): lambda terms: {_ad: ZERO}, (_ad, _a): _moved(_ad)})

# d b = q^-1 b d lands on c d with its coefficient: at x = y = d, g = b
# the sides are (d^2) b = q^-2 b d^2 and q^-1 d (c d) = q^-2 c d^2, single
# terms with equal coefficients on different monomials
_wrong_monomial = _products(G, {(_d, _b): _moved(_cd)})

# b (c d) cancels on its monomial: at x = b, y = d, g = c the single term
# (b d) c = q^-1 b c d is compared with x (y g) = q^-1 b (c d) = 0
_cancelled_on_one_side = _products(G, {
    (_b, _cd): lambda terms: {m: ZERO for m in terms}})

# (d^2) d and d (d^2) cancel, the second on another monomial: at
# x = y = g = d both sides are 0, and the triple holds
_cancelled_on_both_sides = _products(G, {
    ((0, 0, 0, 2), _d): lambda terms: {m: ZERO for m in terms},
    (_d, (0, 0, 0, 2)): lambda terms: {(0, 0, 0, 0): ZERO}})


def _one_pass(monkeypatch):
    # NCPoly.__mul__'s bilinear loop reads the right factor through a
    # one-pass iterator, so only the first left term is multiplied.  The
    # certificate sums mul_mono's products itself and reads
    # NCPoly.__mul__ only in its relations, which see the fault on G_d
    # (a there has two terms).  On G, where only (x y) g with x y = d a
    # would have seen it, test_associativity_randomized and
    # test_confluence[G] still catch it: see
    # test_a_bilinear_loop_fault_is_caught_outside_the_certificate.
    original = NCPoly.__mul__

    def mul(self, other):
        if type(other) is not NCPoly:
            return original(self, other)
        acc = {}
        right = iter(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                self.alg.mul_mono(m1, m2, c1 * c2, acc)
        return NCPoly(self.alg, {m: c for m, c in acc.items() if c})
    monkeypatch.setattr(NCPoly, "__mul__", mul)
    return Gd


@pytest.mark.parametrize("fault", [
    *(_flip(G, pair) for pair in ((0, 1), (0, 2), (1, 3), (2, 3))),
    _flip(STD.B, (0, 1)), _drop_bc, _keep_ad, _one_pair, _one_pass,
    _cancelled_ahead, _cancelled_single, _wrong_monomial,
    _cancelled_on_one_side, _cancelled_on_both_sides],
    ids=["G ab", "G ac", "G bd", "G cd", "B lambda xi", "da_expand",
         "reduce_ordered", "mul_mono one pair", "NCPoly.__mul__ loop",
         "cancelled term ahead", "cancelled single term", "wrong monomial",
         "cancelled on one side", "cancelled on both sides"])
def test_rewriting_certificate_matches_the_oracle_under_a_fault(monkeypatch,
                                                                 fresh_maps,
                                                                 fault):
    alg = fault(monkeypatch)
    for degree in range(-1, 6):
        got = rewriting_certificate(alg, degree)
        assert got == rewriting_oracle.rewriting_certificate(alg, degree), \
            degree
    assert got != HOLDS


def test_a_bilinear_loop_fault_is_caught_outside_the_certificate(monkeypatch,
                                                                  fresh_maps):
    # the Tier-1 checks that multiply polynomials of several terms, and so
    # still see the one-pass fault of NCPoly.__mul__ on G
    _one_pass(monkeypatch)
    assert not confluence_probe(G, samples=60, degree=6, seed=13)["passed"]
    rng = random.Random(5)
    words = [normal_form_of_word(G, random_word(G, rng, 6))
             for _ in range(75)]
    assert any((p * r) * s != p * (r * s)
               for p, r, s in zip(words[::3], words[1::3], words[2::3]))


def test_a_cancelled_term_changes_no_verdict(monkeypatch, fresh_maps):
    # mul_mono leaves a zero coefficient on the non-canonical a d each
    # time it multiplies by d on G, as a cancelling sum would: every
    # product drops it, so nothing fails and the witnesses stay the oracle's
    original = Algebra.mul_mono

    def mul_mono(self, m1, m2, coeff, acc):
        original(self, m1, m2, coeff, acc)
        if self is G and m2 == (0, 0, 0, 1):
            acc.setdefault((1, 0, 0, 1), ZERO)
    monkeypatch.setattr(Algebra, "mul_mono", mul_mono)
    for degree in range(-1, 6):
        assert (rewriting_certificate(G, degree) == HOLDS
                == rewriting_oracle.rewriting_certificate(G, degree)), degree


def test_a_cancelled_term_keeps_the_witness_order(monkeypatch, fresh_maps):
    # see _cancelled_ahead
    _cancelled_ahead(monkeypatch)
    assert rewriting_certificate(G, 3)["canonical"] == "a d in (d) (a) a"
    for degree in range(3, 6):
        assert (rewriting_certificate(G, degree)
                == rewriting_oracle.rewriting_certificate(G, degree)), degree


# 1 a -> a d alone: every relation of G but bd = qdb reads a through the
# identity map's power of a, one a, which the map caches
_unit_times_a = _products(G, {((0, 0, 0, 0), _a): _moved(_ad)})


@pytest.mark.parametrize("faulty", [True, False],
                         ids=["under the fault", "after it"])
def test_a_product_fault_leaves_no_map_image_behind(monkeypatch, fresh_maps,
                                                    faulty):
    # the relations of G fail under the fault, and the certificate that
    # runs after it holds again: `fresh_maps` starts the faulty run on empty
    # map caches, so the identity map multiplies its image of a under the
    # fault (1 a = a d, the monomial a d left unreduced), and empties them
    # after it, so no later run reads that image
    if faulty:
        _unit_times_a(monkeypatch)
        assert rewriting_certificate(G, 2)["relations"] == [
            "ab=qba", "ac=qca", "ad-da=(q-q^-1)bc", "ad-qbc=1"]
        assert STD.inclusion(G, G)(G.gen("a")) == NCPoly(G, {_ad: ONE})
    else:
        assert rewriting_certificate(G, 2) == HOLDS


@pytest.mark.parametrize("alg", [G, Gd, STD.B], ids=lambda a: a.name)
def test_rewriting_certificate_multiplies_each_table_entry_once(monkeypatch,
                                                                fresh_maps,
                                                                alg):
    # one mul_mono call per entry of the two tables (per term of g for
    # right[m, g]) and the relations' own calls, the same on a second call
    degree = 5
    top = degree - 1
    factors = [alg.gen(g) for g in alg.gens]
    factors += [alg.gen(alg.gens[i], -1) for i in sorted(alg.invertible)]
    monos = alg.basis_monomials(top)
    expected = Counter()
    right = set()
    for x in monos[1:]:
        left = set()
        for y in monos[1:]:
            if alg.mono_degree(x) + alg.mono_degree(y) > top:
                break
            xy = NCPoly(alg, {x: ONE}) * NCPoly(alg, {y: ONE})
            left.add(y)
            for k, factor in enumerate(factors):
                right.add((y, k))
                right.update((m, k) for m in xy.terms)
                left.update((NCPoly(alg, {y: ONE}) * factor).terms)
        expected.update((x, m) for m in left)
    for m, k in right:
        expected.update((m, m2) for m2 in factors[k].terms)

    calls = Counter()
    original = Algebra.mul_mono

    def mul_mono(self, m1, m2, coeff, acc):
        calls[m1, m2] += 1
        original(self, m1, m2, coeff, acc)
    monkeypatch.setattr(Algebra, "mul_mono", mul_mono)
    # degree -1 multiplies no basis triple: its calls are the relations'
    rewriting_certificate(alg, -1)
    calls.clear()
    rewriting_certificate(alg, -1)
    expected += calls
    for _ in range(2):
        calls.clear()
        assert rewriting_certificate(alg, degree) == HOLDS
        assert calls == expected


# -- printing / parsing ----------------------------------------------------------------

def test_print_normal_form():
    assert str(g("d a")) == "1 + q^-1 b c"


def test_zero_prints():
    assert str(G.zero()) == "0"


def test_roundtrip_randomized():
    rng = random.Random(11)
    for alg in (G, Gb, Gd, Gbd, STD.B, STD.M):
        for _ in range(15):
            p = normal_form_of_word(alg, random_word(alg, rng, 4))
            assert parse_element(str(p), alg) == p


def test_presentation_mismatch():
    with pytest.raises(DomainError):
        G.gen("a") * Gb.gen("a")
