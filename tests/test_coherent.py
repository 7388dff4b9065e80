import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import resolution_oracle
from qsu2 import coherent, comod
from qsu2.charts import chart, cover
from qsu2.coherent import (assembled_coefficients, classical_limit_report,
                           expected_alpha, expected_d_chart_coefficient,
                           integrand_sign_check, lemma_integral,
                           lemma_integral_closed_form, mu_density,
                           qbeta_check, ramanujan_qbeta, reproducing_apply,
                           resolution_operator, section_property_check,
                           solve_coherent)
from qsu2.comod import (GramForm, NonScalarError, VnComodule, schur_scalar,
                        solve_coinvariant_gram)
from qsu2.haar import haar, integral
from qsu2.ncalg import NCPoly, STD, parse_element, star
from qsu2.scalars import ONE, QScalar, ZERO, q_number, q_pow
from qsu2.suites import run_suite

G = STD.G
# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


def test_coherent_d_n1():
    fam = solve_coherent(chart("d"), 1)
    # y (x) 1 + x (x) u in the monomial basis
    assert fam.coefficients[0] == STD.Gd.one()
    assert fam.coefficients[1] == chart("d").coinv_gen


def test_coherent_d_closed_form():
    for n in range(5):
        fam = solve_coherent(chart("d"), n)
        for i in range(n + 1):
            assert fam.coefficients[i] == expected_d_chart_coefficient(n, i)


def test_coherent_b_exists_in_coinvariants():
    from qsu2.charts import coinv_poly_coeffs
    ch = chart("b")
    for n in range(4):
        fam = solve_coherent(ch, n)
        for f in fam.coefficients:
            assert coinv_poly_coeffs(f, ch) is not None


def test_section_property():
    for n in range(3):
        checks = section_property_check(n)
        assert all(c["status"] == "pass" for c in checks)


def test_mu_density():
    assert mu_density(chart("d"), 1) == parse_element("1 + q^-1 b c", STD.G)
    assert mu_density(chart("d"), 0) == STD.G.one()
    assert mu_density(chart("b"), 0) == STD.G.one()
    # b-chart value comes out of the engine; check it is q^-2 zeta
    zeta = STD.G.gen("b") * STD.G.gen("c") * (-q_pow(1))
    assert mu_density(chart("b"), 1) == zeta * q_pow(-2)


@pytest.mark.parametrize("n", range(5))
def test_resolution_alpha(n):
    res = resolution_operator(n)
    assert res.chart_agreement
    assert res.alpha == expected_alpha(n)
    assert res.alpha * q_number(n + 1) * q_pow(-n) == ONE


@pytest.mark.parametrize("n", range(9))
def test_weight_gated_matrix_matches_the_full_products(n):
    # the gated matrix is the one integrated from every product r_i r_k^*,
    # from either chart
    got = resolution_operator(n).matrix
    for ch in (cover().d, cover().b):
        assert resolution_oracle.matrix(ch, n) == got, ch.name


def test_weight_gated_lemma_matches_the_full_products():
    for n in range(7):
        for i in range(n + 1):
            for j in range(n + 1):
                want = resolution_oracle.lemma_integral(i, j, n)
                assert lemma_integral(i, j, n) == want, (i, j, n)


def test_resolution_integrates_only_weight_matched_products(monkeypatch,
                                                            fresh_pairs):
    # each r_i is one monomial m_i times a scalar, and the m_i have
    # pairwise different weights, so a fresh pair table integrates only the
    # n + 1 products m_i m_i^*; the Lemma table then reads the same pairs
    integrands = []

    def counted(p):
        integrands.append(p)
        return haar(p)

    monkeypatch.setattr(haar_module, "haar", counted)
    for n in range(5):
        monos = [m for x in assembled_coefficients(cover().d, n)
                 for m in x.terms]
        assert len(monos) == n + 1, n
        haar_module.pair.cache_clear()
        integrands.clear()
        resolution_operator.__wrapped__(n)
        assert integrands == [NCPoly(G, {m: ONE}) * star(NCPoly(G, {m: ONE}))
                              for m in monos], n
        integrands.clear()
        coherent.lemma_table(n)
        assert integrands == [], n


@st.composite
def g_elements(draw):
    """Elements of G with up to four terms on the degree-2 basis, with
    small Laurent coefficients; their terms may mix torus weights."""
    coeff = st.builds(lambda k, c: q_pow(k) * c,
                      st.integers(min_value=-2, max_value=2),
                      st.integers(min_value=-3, max_value=3).filter(bool))
    monos = draw(st.lists(st.sampled_from(G.basis_monomials(2)),
                          min_size=1, max_size=4, unique=True))
    return NCPoly(G, {m: draw(coeff) for m in monos})


@seed(21)
@settings(max_examples=60)
@given(g_elements(), g_elements())
def test_integral_is_the_haar_state_of_the_full_product(x, y):
    # term pair by term pair, weight-gated, from the pair table: the value
    # of the full product x y^*, mixed weights included
    assert integral(x, y) == haar(x * star(y))


def test_resolution_values_at_half():
    assert resolution_operator(0).alpha_at(Fraction(1, 2)) == 1
    assert resolution_operator(1).alpha_at(Fraction(1, 2)) == Fraction(1, 5)


def test_lemma_integral():
    for n in range(4):
        for i in range(n + 1):
            for j in range(n + 1):
                v = lemma_integral(i, j, n)
                if i == j:
                    assert v == lemma_integral_closed_form(i, n)
                else:
                    assert v.is_zero()


def test_lemma_integral_n1_value():
    assert lemma_integral(0, 0, 1) == q_pow(1) / q_number(2)


def test_lemma_sign_is_positive():
    for n in range(1, 4):
        for i in range(n + 1):
            rep = integrand_sign_check(i, n)
            assert rep["plus_sign_holds"] and not rep["minus_sign_holds"]


def test_qbeta_trivial_and_corner():
    assert qbeta_check(0, 0)["value"] == ONE
    r = qbeta_check(1, 1)
    assert r["value"] == q_pow(1) / q_number(2)
    assert r["matches_inverse_binomial_form"]


def test_qbeta_all_small():
    for n in range(6):
        for i in range(n + 1):
            r = qbeta_check(i, n)
            assert r["matches_inverse_binomial_form"], (i, n)


def test_qbeta_printed_form_fails_interior():
    assert not qbeta_check(1, 2)["matches_printed_form"]


def test_ramanujan():
    for a in range(1, 6):
        for b in range(1, 6):
            assert ramanujan_qbeta(a, b)["equal"], (a, b)


def test_ramanujan_22_integrand():
    # (2,2): the Jackson integrand is x(1-qx)
    from qsu2.scalars import Q, jackson_q_integral_01, q_pochhammer
    integrand = (ZERO,) + q_pochhammer(Q, Q, 1)
    assert integrand == (ZERO, ONE, -Q)
    lhs = jackson_q_integral_01(integrand, Q)
    assert lhs == ramanujan_qbeta(2, 2)["lhs"]


def test_ramanujan_printed_reading():
    # the printed integrand x^alpha (x; q)_beta, x(1-x) at (1, 1), misses
    # Gamma_q(alpha) Gamma_q(beta) / Gamma_q(alpha+beta) at every pair here
    for a in range(1, 6):
        for b in range(1, 6):
            r = ramanujan_qbeta(a, b)
            assert r["equal"] and not r["matches_printed_form"], (a, b)


def test_scalar_operator_basis_and_sum():
    # w = y, w = x, w = x + y for n = 1 are all scalar
    for vec in ([ONE, ZERO], [ZERO, ONE], [ONE, ONE]):
        schur_scalar(resolution_oracle.theorem4_matrix(1, vec), 1)


def test_scalar_operator_random():
    rng = random.Random(12)
    for n in range(1, 4):
        for _ in range(6):
            w = [QScalar.coerce(rng.randint(-2, 2)) * q_pow(rng.randint(-1, 1))
                 for _ in range(n + 1)]
            if all(x.is_zero() for x in w):
                w[0] = ONE
            # NonScalarError would fail
            schur_scalar(resolution_oracle.theorem4_matrix(n, w), n)


@pytest.mark.parametrize("n", range(6))
def test_theorem4_matrix_matches_the_full_products(n):
    # the orthogonality relations on the coaction matrix, every product
    # formed and integrated with no weight gate: int t[j][i] t[k][i']^* is
    # zero for (j, i) != (k, i'), and g_j int t[j][i] t[j][i]^* is the
    # entry T[j][i] of the orthogonality table
    t = VnComodule(n).coaction_matrix
    g = solve_coinvariant_gram(n)
    table = coherent.orthogonality_table(n)
    cells = list(itertools.product(range(n + 1), repeat=2))
    for (j, i), (k, i2) in itertools.product(cells, repeat=2):
        value = haar(t[j][i] * star(t[k][i2]))
        if (j, i) == (k, i2):
            assert g.diag[j] * value == table[j][i], (j, i)
        else:
            assert value.is_zero(), (j, i, k, i2)


def test_orthogonality_table_column_0_is_alpha():
    # rho(y^n) has the components t[j][0]: column 0 of the table is the
    # diagonal of the resolution operator
    for n in range(7):
        res = resolution_operator(n)
        column = [row[0] for row in coherent.orthogonality_table(n)]
        assert column == [res.matrix[j][j] for j in range(n + 1)], n


def test_theorem4_fails_as_the_full_products_under_a_wrong_gram_diagonal(
        monkeypatch):
    # with the Gram diagonal [1, q^-2] at n = 1, the operator of each
    # polarization input, integrated from every product, is
    # diag_j(sum_i w_i^2 T[j][i]) over the table read under the same Gram
    # form, and for some input it is not scalar
    sound = comod.solve_coinvariant_gram
    monkeypatch.setattr(comod, "solve_coinvariant_gram", lambda n: GramForm(
        n, [ONE, q_pow(-2)]) if n == 1 else sound(n))
    table = coherent.orthogonality_table(1)
    raised = 0
    for w in resolution_oracle.polarization_inputs(1):
        full = resolution_oracle.theorem4_matrix(1, w)
        assert full == [[sum((w[i] * w[i] * table[j][i] for i in range(2)),
                             ZERO) if j == k else ZERO for k in range(2)]
                        for j in range(2)], w
        try:
            schur_scalar(full, 1)
        except NonScalarError:
            raised += 1
    assert raised


def test_reproducing_identity():
    # H = Id, v = y: resolution of unity returns y
    out = reproducing_apply(1, [[ONE, ZERO], [ZERO, ONE]], [ONE, ZERO])
    assert out == [ONE, ZERO]


def test_reproducing_projector():
    # H = e_1 projector on v = x + y picks the x-component
    H = [[ZERO, ZERO], [ZERO, ONE]]
    out = reproducing_apply(1, H, [ONE, ONE])
    assert out == [ZERO, ONE]


def test_reproducing_random():
    rng = random.Random(13)
    for n in range(1, 4):
        H = [[QScalar.coerce(rng.randint(-2, 2)) for _ in range(n + 1)]
             for _ in range(n + 1)]
        v = [QScalar.coerce(rng.randint(-2, 2)) for _ in range(n + 1)]
        out = reproducing_apply(n, H, v)
        expect = [sum((QScalar.coerce(H[j][i]) * v[i]
                       for i in range(n + 1)), ZERO) for j in range(n + 1)]
        assert out == expect


def _reproducing_by_integrals(n, H, v_vec):
    """H|v> = alpha^-1 int H|C> dmu <C|v> with every integral
    int r_i r_k^* recomputed, as `reproducing_apply` once did."""
    r = assembled_coefficients(cover().d, n)
    g = solve_coinvariant_gram(n)
    m = n + 1
    total = [sum((QScalar.coerce(H[j][i]) * haar(r[i] * star(r[k]))
                  * g.diag[k] * QScalar.coerce(v_vec[k])
                  for i in range(m) for k in range(m)), ZERO)
             for j in range(m)]
    return [t * resolution_operator(n).alpha.inverse() for t in total]


def test_reproducing_reads_the_resolution_matrix():
    rng = random.Random(14)
    for n in range(4):
        for _ in range(3):
            H = [[QScalar.coerce(rng.randint(-2, 2)) * q_pow(rng.randint(-1, 1))
                  for _ in range(n + 1)] for _ in range(n + 1)]
            v = [QScalar.coerce(rng.randint(-2, 2)) for _ in range(n + 1)]
            assert reproducing_apply(n, H, v) == \
                _reproducing_by_integrals(n, H, v)


def test_classical_limit():
    for n in range(4):
        rep = classical_limit_report(n)
        assert rep["coefficients_to_binomials"]
        assert rep["alpha_at_1"] == Fraction(1, n + 1)


def test_resolution_cache_matches_uncached():
    for n in range(4):
        cached = resolution_operator(n)
        fresh = resolution_operator.__wrapped__(n)
        assert cached.alpha == fresh.alpha
        assert cached.matrix == fresh.matrix
        assert cached.chart_agreement == fresh.chart_agreement


def test_factorization_identity_per_chart():
    # C_lambda (1 (x) gamma(chi)) reassembles rho_lambda(y^n) exactly:
    # entry by entry, f_i gamma(chi) = iota(t[i][0]), since y^n = e_0
    from qsu2.comod import VnComodule
    for which in ("d", "b"):
        ch = chart(which)
        for n in range(5):
            t = VnComodule(n).coaction_matrix
            fam = solve_coherent(ch, n)
            gchi = ch.gamma_chi(n)
            assert len(fam.coefficients) == n + 1
            for i, f in enumerate(fam.coefficients):
                assert f * gchi == ch.iota(t[i][0]), (which, n, i)


def test_lemma_diagonal_i_independence():
    # lemma(i,i,n) * binom(n,i) * q^(-2 C(i,2)) does not depend on i:
    # the cancellation that makes the resolution operator scalar
    from qsu2.scalars import gauss_binomial
    for n in range(5):
        vals = set()
        for i in range(n + 1):
            v = (lemma_integral(i, i, n)
                 * gauss_binomial(n, i, q_pow(-2))
                 * q_pow(-i * (i - 1)))
            vals.add(str(v))
        assert len(vals) == 1, (n, vals)


def test_qbeta_identities_are_computed_once_per_process():
    # the coherent and typos suites read the same q-beta identities
    ramanujan_qbeta.cache_clear()
    qbeta_check.cache_clear()
    for suite in ("coherent", "typos"):
        run_suite(suite)
    assert ramanujan_qbeta.cache_info().misses == 25
    assert qbeta_check.cache_info().misses == 21
    assert qbeta_check(1, 2) is qbeta_check(1, 2)
