import random

import pytest

from qsu2 import linalg
from qsu2.ncalg import (DomainError, NCPoly, STD, normal_form_of_word,
                        parse_element, retract, rewriting_certificate, star)
from qsu2.scalars import ONE, Q, q_pow
from rewriting_oracle import confluence_probe, random_word

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


def test_associativity_randomized():
    rng = random.Random(5)
    for alg in (G, Gb, Gd, Gbd):
        for _ in range(25):
            p = normal_form_of_word(alg, random_word(alg, rng, 6))
            r = normal_form_of_word(alg, random_word(alg, rng, 6))
            s = normal_form_of_word(alg, random_word(alg, rng, 6))
            assert (p * r) * s == p * (r * s)


def test_normal_form_idempotent():
    rng = random.Random(6)
    for _ in range(30):
        p = normal_form_of_word(G, random_word(G, rng, 5))
        assert G.element(p.terms) == p


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
        iota = STD.localization_embedding(target)
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


# -- degrees -------------------------------------------------------------------------

def test_filtration_degree():
    assert G.one().degree() == 0
    assert g("b c").degree() == 2
    assert g("b^-1 a", Gb).degree() == 2
    assert G.zero().degree() == float("-inf")


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
