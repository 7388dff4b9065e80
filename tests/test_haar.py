import contextlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import haar_oracle
import weight_gate_oracle
from qsu2 import scalars
from qsu2.charts import chart
from qsu2.coherent import (assembled_coefficients, lemma_table,
                           resolution_operator)
from qsu2.comod import torus_weight
from qsu2.haar import (haar, integral, verify_invariance, verify_positivity,
                       zeta_moment_closed_form_report)
from qsu2.hopf import basis_words, hopf_G
from qsu2.ncalg import (AlgebraMap, DomainError, NCPoly, STD, parse_element,
                        star, tensor_elem)
from qsu2.scalars import ONE, Q, QScalar, q_number, q_pow
from qsu2.suites import run_suite
from rewriting_oracle import normal_form_of_word, random_word
from weight_gate_oracle import homogeneous_weight

G = STD.G
# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


def g(text):
    return parse_element(text, G)


def test_normalization():
    assert haar(G.one()) == ONE


def test_zeta_moment_r1():
    # int zeta = h(-q b c)
    assert haar(g("-q b c")) == g("q^2/(q^2+1)").scalar_part()


def test_haar_dd_star():
    d = G.gen("d")
    v = haar(d * star(d))
    assert v == (Q ** 2 / (Q ** 2 + 1))
    assert v.specialize(Fraction(1, 2)) == Fraction(1, 5)


def test_haar_kills_complement():
    for text in ("a", "b", "c", "d", "a b", "b^2 c", "b c d"):
        assert haar(g(text)).is_zero()


def test_haar_bc():
    # int bc = -q^-1 int zeta, int zeta = (1 - q^-2)/(1 - q^-4)
    assert haar(g("b c")) == ((ONE - q_pow(-2)) / (ONE - q_pow(-4))
                              * (-q_pow(-1)))


def test_invariance_example_a():
    # (id x int)Delta(a) = a int a + b int c = 0 = (int a) 1
    HG = hopf_G()
    dp = HG.delta(G.gen("a"))
    left = G.zero()
    for mono, c in dp.terms.items():
        m1, m2 = HG.T2.split_mono(mono)
        left = left + NCPoly(G, {m1: c * haar(NCPoly(G, {m2: ONE}))})
    assert left.is_zero()


def test_invariance_suite():
    checks = verify_invariance(4)
    assert all(c["status"] == "pass" for c in checks)


@contextlib.contextmanager
def _wrong_moment():
    # int zeta^2 one too large: h((bc)^2) = q^-2 int zeta^2 gains q^-2.  The
    # functional is installed as `haar`, and the table of monomial pairs is
    # cleared around it, as `fresh_pairs` does
    bbcc, = g("b^2 c^2").terms
    haar_module.pair.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(haar_module, "haar",
                       lambda p: haar(p) + q_pow(-2) * p.coeff(bbcc))
            yield
    finally:
        haar_module.pair.cache_clear()


def test_invariance_fails_on_a_wrong_moment():
    with _wrong_moment():
        left, right = verify_invariance(5)
    assert left["status"] == right["status"] == "fail"
    assert left["witness"] == "c^2 d^2"
    assert right["witness"] == "b^2 d^2"


def test_the_moment_record_fails_on_a_wrong_moment():
    # the closed-form record reads int zeta^r through the installed
    # functional, so a wrong moment fails it
    with _wrong_moment():
        checks = {c["name"]: c for c in run_suite("haar").checks}
        rep = zeta_moment_closed_form_report()
    assert checks["haar.zeta_moments_closed_form"]["status"] == "fail"
    assert checks["haar.zeta_moments_closed_form"]["witness"] == str(rep)
    assert ([row["matches_q^r/[r+1]"] for row in rep["rows"]]
            == [r != 2 for r in range(7)])


def test_invariance_matches_the_ungated_oracle():
    # the gated records, witnesses included, against Delta applied to every
    # basis monomial, under the Haar state and under a wrong moment
    for degree in range(-1, 8):
        assert (verify_invariance(degree)
                == weight_gate_oracle.verify_invariance(degree)), degree
    with _wrong_moment():
        for degree in range(-1, 8):
            got = verify_invariance(degree)
            assert got == weight_gate_oracle.verify_invariance(degree), degree
    assert [c["status"] for c in got] == ["fail", "fail"]


def test_invariance_gate_widens_for_the_counit(monkeypatch, fresh_pairs):
    # eps is nonzero on every weight (k, k), not on (0, 0) alone, so the gate
    # lets those monomials through and both laws fail as without the gate
    monkeypatch.setattr(haar_module, "haar", hopf_G().counit)
    assert haar_module._delta_keeps_weights(hopf_G())
    got = verify_invariance(5)
    assert [c["status"] for c in got] == ["fail", "fail"]
    assert got == weight_gate_oracle.verify_invariance(5)


@pytest.mark.parametrize("legs, left, right", [
    # (int x id)(1 (x) b) = b breaks right invariance on a itself; the left
    # side first breaks where b meets c, on a c
    (("1", "b"), "a c", "a"),
    (("b", "1"), "a", "a c"),
])
def test_invariance_names_the_first_failing_monomial(monkeypatch, legs, left,
                                                     right):
    HG = hopf_G()
    images = dict(HG.delta.images)
    images["a"] = images["a"] + tensor_elem(HG.T2, [g(x) for x in legs])
    monkeypatch.setattr(HG, "delta", AlgebraMap(G, HG.T2, images))
    got = verify_invariance(5)
    assert [(c["status"], c["witness"]) for c in got] == [("fail", left),
                                                          ("fail", right)]


def test_invariance_fails_on_a_delta_that_keeps_the_weights(monkeypatch):
    # Delta(a) = 2 a (x) a + b (x) c keeps the weights of its legs, so the
    # gate stays on; both laws fail, on the monomials the ungated oracle names
    HG = hopf_G()
    images = dict(HG.delta.images)
    images["a"] = images["a"] + tensor_elem(HG.T2, [g("a"), g("a")])
    monkeypatch.setattr(HG, "delta", AlgebraMap(G, HG.T2, images))
    assert haar_module._delta_keeps_weights(HG)
    got = verify_invariance(5)
    assert [c["status"] for c in got] == ["fail", "fail"]
    assert got == weight_gate_oracle.verify_invariance(5)


def test_invariance_computes_every_monomial_when_delta_raises_the_degree(
        monkeypatch, fresh_pairs):
    # a b c has the weight (1, 1) of a but degree 3, so Delta(a) + a (x) a b c
    # keeps the weights of its legs but not their degree.  A functional that
    # is nonzero on a b c is live on (1, 1) only from degree 3 on, yet at
    # degree 1 the left law fails on a; the premise sends it to every monomial
    HG = hopf_G()
    images = dict(HG.delta.images)
    images["a"] = images["a"] + tensor_elem(HG.T2, [g("a"), g("a b c")])
    monkeypatch.setattr(HG, "delta", AlgebraMap(G, HG.T2, images))
    abc, = g("a b c").terms
    monkeypatch.setattr(haar_module, "haar", lambda p: haar(p) + p.coeff(abc))
    assert not haar_module._delta_keeps_weights(HG)
    got = verify_invariance(1)
    assert got[0]["witness"] == "a"
    assert got == weight_gate_oracle.verify_invariance(1)


def test_positivity():
    checks = verify_positivity(Fraction(1, 2), degree=3)
    assert all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(1, 3)])
def test_positivity_fails_for_the_counit(monkeypatch, fresh_pairs, q0):
    # eps(f f*) is only semidefinite: eps(d - 1) = 0, so the pivot at d is 0
    monkeypatch.setattr(haar_module, "haar", hopf_G().counit)
    check, = verify_positivity(q0, degree=3)
    assert check["name"] == f"haar.positivity_q{q0}"
    assert check["status"] == "fail"
    assert check["witness"] == "('d', '0')"


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(1, 3)])
def test_positivity_matches_the_ungated_oracle(q0):
    for degree in range(4):
        assert (verify_positivity(q0, degree)
                == weight_gate_oracle.verify_positivity(q0, degree)), degree


def _recorded(monkeypatch, functional):
    integrands = []

    def recorded(p):
        integrands.append(p)
        return functional(p)

    monkeypatch.setattr(haar_module, "haar", recorded)
    return integrands


def test_positivity_integrates_only_weight_matched_pairs(monkeypatch,
                                                         fresh_pairs):
    # one probe pair(m, 1) per monomial m of degree <= 6 finds the Haar
    # state nonzero on weight (0, 0) only; then only the products m_i m_j^*
    # of equal weights are integrated, bar the pairs (m_i, 1) the probe put
    # in the table
    integrands = _recorded(monkeypatch, haar)
    verify_positivity(Fraction(1, 2), degree=3)
    probes = list(basis_words(G, 6))
    unit, = G.one().terms
    monos = [mono for m in basis_words(G, 3) for mono in m.terms]
    assert integrands[:len(probes)] == probes
    products = integrands[len(probes):]
    assert len(products) == sum(torus_weight(m) == torus_weight(s)
                                and s != unit
                                for m in monos for s in monos) == 38
    assert {homogeneous_weight(p) for p in products} == {(0, 0)}


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(1, 3)])
def test_positivity_integrates_where_a_faulty_functional_lives(monkeypatch,
                                                               fresh_pairs,
                                                               q0):
    # the Haar state plus the coefficient of b is nonzero on weight (1, -1)
    # as well, so the pairs of that weight difference are integrated too
    b = G.gen("b")
    integrands = _recorded(monkeypatch, lambda p: haar(p) + p.coeff(
        next(iter(b.terms))))
    got = verify_positivity(q0, degree=3)
    products = integrands[len(basis_words(G, 6)):]
    assert {homogeneous_weight(p) for p in products} == {(0, 0), (1, -1)}
    assert got == weight_gate_oracle.verify_positivity(q0, degree=3)


def test_positivity_skips_an_empty_basis():
    check, = verify_positivity(Fraction(1, 2), degree=-1)
    assert check["status"] == "skip"
    assert check["witness"] == "no basis monomial of degree <= -1"


def test_positivity_quadratic_form_matches_sampled_integrals():
    # int(f f*) at q0 is c^T S c for the coefficients c of f on the basis;
    # checked on seeded sums of random words, as the check once sampled them
    q0 = Fraction(1, 2)
    basis = G.basis_monomials(3)
    moments = [[haar(NCPoly(G, {m: ONE}) * star(NCPoly(G, {k: ONE})))
                .specialize(q0) for k in basis] for m in basis]
    rng = random.Random(4)
    for _ in range(30):
        f = G.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + normal_form_of_word(G, random_word(G, rng, 3)) \
                * rng.choice([1, -1, 2]) * q_pow(rng.randint(-1, 1))
        c = [f.coeff(m).specialize(q0) for m in basis]
        assert set(f.terms) <= set(basis)
        form = sum(c[i] * moments[i][j] * c[j]
                   for i in range(len(basis)) for j in range(len(basis)))
        assert haar(f * star(f)).specialize(q0) == form


def test_positivity_bb_star():
    b = G.gen("b")
    assert haar(b * star(b)).specialize(Fraction(1, 2)) == Fraction(1, 5)


def test_zeta_moments_vs_symmetric_q_integer():
    # int zeta^r = q^r/[r+1]_q; the q^-r variant is a misprint and fails
    rep = zeta_moment_closed_form_report()
    assert rep["all_match_positive_power"]
    assert rep["negative_power_fails_from_r1"]
    for r in range(7):
        # int zeta^r = h((-q b c)^r)
        zeta_r = haar(g(f"(-q b c)^{r}"))
        assert zeta_r == q_pow(r) / q_number(r + 1)
        assert rep["rows"][r]["value"] == str(zeta_r)


def test_star_symmetry():
    # int(p*) = int p on basis monomials (real coefficients)
    for mono in G.basis_monomials(4):
        p = NCPoly(G, {mono: ONE})
        assert haar(star(p)) == haar(p)


def test_localized_argument_rejected():
    with pytest.raises(DomainError):
        haar(STD.Gd.gen("d", -1))


@pytest.mark.parametrize("x, y", [("b d^-1", "a b"), ("a b", "b d^-1"),
                                  ("b d^-1", "b d^-1")])
def test_integral_rejects_arguments_outside_G(x, y):
    # a term of G_d may share its exponents with one of G; the bilinear form
    # refuses it as `haar` does, rather than read the pair table for it
    def elem(text):
        return parse_element(text, STD.Gd if "^-1" in text else G)

    with pytest.raises(DomainError, match="defined on G only"):
        integral(elem(x), elem(y))


def test_one_table_serves_positivity_invariance_and_the_lemma(monkeypatch,
                                                              fresh_pairs):
    # positivity and the Lemma read the same pairs cold, and warm after the
    # resolution operator and invariance have filled the table; over one
    # haar suite every integration, the live-weight probes included, is an
    # entry of the table
    q0 = Fraction(1, 2)
    positivity = verify_positivity(q0, degree=3)
    haar_module.pair.cache_clear()
    lemma = lemma_table(3)
    resolution_operator.__wrapped__(3)
    verify_invariance(5)
    hits = haar_module.pair.cache_info().hits
    assert verify_positivity(q0, degree=3) == positivity
    assert haar_module.pair.cache_info().hits > hits
    assert positivity == weight_gate_oracle.verify_positivity(q0, degree=3)
    assert lemma_table(3) == lemma
    haar_module.pair.cache_clear()
    integrands = _recorded(monkeypatch, haar)
    assert run_suite("haar").passed
    assert len(integrands) == haar_module.pair.cache_info().currsize


# -- the Laurent-weighted sum against the per-term rational oracle -----------

def test_haar_matches_oracle_on_basis_monomials():
    for mono in G.basis_monomials(8):
        p = NCPoly(G, {mono: ONE})
        assert haar(p) == haar_oracle.haar(p), mono


def test_haar_matches_oracle_on_resolution_integrands():
    # the integrands r_i r_k^* of resolution_operator(n).matrix
    for n in range(5):
        r = assembled_coefficients(chart("d"), n)
        for x in r:
            for y in r:
                p = x * star(y)
                assert haar(p) == haar_oracle.haar(p), n


@st.composite
def rational_elements(draw):
    """Elements of G on the degree-4 basis whose coefficients have
    denominators that are not powers of q."""
    basis = G.basis_monomials(4)
    coeff = st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                     max_size=3)
    terms = {}
    for mono in draw(st.lists(st.sampled_from(basis), min_size=1,
                              max_size=6)):
        num = draw(coeff)
        den = draw(coeff) + [1]  # nonzero, and never a lone power of q
        den[0] = den[0] or 1
        c = QScalar(num, den)
        if c:
            terms[mono] = c
    # one (bc)^r term with a genuinely rational coefficient
    r = draw(st.integers(min_value=0, max_value=2))
    terms[(0, r, r, 0)] = QScalar(draw(coeff) + [1], (1, 1))
    return NCPoly(G, terms)


@settings(max_examples=60)
@given(rational_elements())
def test_haar_matches_oracle_on_rational_coefficients(p):
    assert haar(p) == haar_oracle.haar(p)


def _gcd_calls(monkeypatch, integrate, p):
    calls = []
    gcd = scalars._pgcd_full

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    with monkeypatch.context() as patch:
        patch.setattr(scalars, "_pgcd_full", counted)
        value = integrate(p)
    return value, len(calls)


def test_haar_divides_once_on_a_laurent_integrand(monkeypatch):
    # sum_r c_r (bc)^r for r = 0..8 with Laurent c_r, plus terms the
    # integral kills; every integrand has top 8, so the weights are cached
    # once and the gcd count stays flat as terms are added
    bc = [NCPoly(G, {(0, r, r, 0): q_pow(r) - 2}) for r in range(9)]
    noise = g("a b + q^-1 c d^2")
    haar(bc[8])
    counts, oracle_counts = [], []
    for k in range(9):
        p = sum(bc[8 - k:], noise)
        value, count = _gcd_calls(monkeypatch, haar, p)
        oracle_value, oracle_count = _gcd_calls(
            monkeypatch, haar_oracle.haar, p)
        assert value == oracle_value
        counts.append(count)
        oracle_counts.append(oracle_count)
    assert counts == [counts[0]] * 9 and counts[0] <= 2, counts
    # the per-term oracle is the growth the one division removes
    assert oracle_counts[-1] > oracle_counts[0] + 8, oracle_counts
