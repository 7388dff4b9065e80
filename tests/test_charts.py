import random

import pytest

import weight_gate_oracle
from qsu2 import charts as charts_module
from qsu2 import linalg
from qsu2.charts import (chart, coaction_B, coinv_poly_coeffs, cover,
                         cover_equalizer, extend_coaction_report,
                         inverts_gamma_lambda, localized_coinvariants,
                         paper_gamma_b_controls, verify_chart)
from qsu2.comod import VnComodule, torus_weight
from qsu2.hopf import hopf_G, pi_map
from qsu2.ncalg import (STD, AlgebraMap, apply_tensor_map, parse_element,
                        tensor_elem)
from qsu2.scalars import q_pow
from qsu2.suites import run_suite
from rewriting_oracle import (normal_form_of_word, random_word,
                              sample_words)

B = STD.B


def test_extended_coaction_weight_inversion():
    for which in ("d", "b"):
        rep = extend_coaction_report(chart(which))
        assert rep["weight_inversion_consistent"]
        assert rep["product_is_unit"]
        assert not rep["printed_formula_holds"]  # b^-1 x lambda^-1 is wrong


@pytest.mark.parametrize("which", ["d", "b"])
def test_chart_coaction_is_the_shared_one(which):
    ch = chart(which)
    assert ch.rho_B is coaction_B(ch.alg)


def test_coaction_on_G_is_id_x_pi_of_delta():
    G = STD.G
    rho = coaction_B(G)
    rng = random.Random(5)
    for _ in range(30):
        w = normal_form_of_word(G, random_word(G, rng, 4))
        expect = apply_tensor_map(hopf_G().delta(w), [None, pi_map().image],
                                  rho.target)
        assert rho(w) == expect


def test_rho_B_on_embedded_a():
    ch = chart("d")
    lhs = ch.rho_B(ch.iota(STD.G.gen("a")))
    expect = (tensor_elem(ch.target, [ch.iota(STD.G.gen("a")), B.gen("lambda")])
              + tensor_elem(ch.target, [ch.alg.gen("b"), B.gen("xi")]))
    assert lhs == expect


def test_localized_coinvariants_d():
    ch = chart("d")
    basis = localized_coinvariants(ch, 2)
    assert len(basis) == 2
    coeffs = sorted(len(coinv_poly_coeffs(p, ch)) for p in basis)
    assert coeffs == [1, 2]  # span{1, u}


def test_localized_coinvariants_dims():
    for which in ("d", "b"):
        ch = chart(which)
        for k in range(1, 4):
            basis = localized_coinvariants(ch, 2 * k)
            assert len(basis) == k + 1
            for p in basis:
                assert coinv_poly_coeffs(p, ch) is not None


def test_gauss_decomposition_d():
    ch = chart("d")
    dec = ch.gauss
    assert dec.w_is_identity and dec.verified and not dec.other_w_solvable
    assert dec.U[0][1] == ch.coinv_gen  # U^1_2 = u
    assert dec.A[1][0] == ch.alg.gen("c")
    assert dec.A[1][1] == ch.alg.gen("d")
    assert dec.A[0][0] == parse_element("a - b d^-1 c", ch.alg)


def test_gauss_decomposition_b():
    ch = chart("b")
    dec = ch.gauss
    assert not dec.w_is_identity and dec.verified and not dec.other_w_solvable
    assert dec.U[0][1] == ch.coinv_gen  # U^1_2 = u'


def test_gamma_d_printed_formulas():
    ch = chart("d")
    assert ch.gamma(B.gen("lambda")) == parse_element("a - b d^-1 c", ch.alg)
    assert ch.gamma(B.gen("xi")) == ch.alg.gen("c")
    assert ch.gamma(B.gen("lambda", -1)) == ch.alg.gen("d")
    assert ch.gamma_unique


def test_gamma_b_derived():
    ch = chart("b")
    assert ch.gamma(B.gen("lambda")) == parse_element("c - d b^-1 a", ch.alg)
    assert ch.gamma(B.gen("lambda", -1)) == ch.alg.gen("b") * (-q_pow(-1))
    assert ch.gamma(B.gen("xi")) == ch.alg.gen("a") * (-q_pow(-1))
    assert ch.gamma_unique


def test_gamma_chi_monomials():
    assert chart("d").gamma_chi(3) == STD.Gd.gen("d", 3)
    assert chart("b").gamma_chi(2) == STD.Gb.gen("b", 2) * q_pow(-2)


def test_paper_gamma_b_rejected():
    ctl = paper_gamma_b_controls()
    assert not ctl["printed_lambda_image_is_weight_vector"]
    assert not ctl["printed_lambda_inv_is_inverse"]
    assert ctl["printed_lambda_inv_product"] == "-q"


def test_forced_lambda_inv_inconsistent():
    # the b-chart.negative_control check rejects the printed b, and the same
    # test accepts the solved gamma_b(lambda^-1), so the check can fail
    ch = chart("b")
    assert not inverts_gamma_lambda(ch, STD.Gb.gen("b"))
    assert inverts_gamma_lambda(ch, ch.gamma(B.gen("lambda", -1)))


@pytest.mark.parametrize("build", [
    lambda: chart("b"), cover, lambda: VnComodule(3),
    lambda: STD.tensor(STD.G, STD.G),
    lambda: STD.inclusion(STD.G, STD.Gd),
])
def test_shared_objects_built_once(build):
    assert build() is build()


@pytest.mark.parametrize("which", ["x", "d-chart"])
def test_unknown_chart_rejected(which):
    with pytest.raises(ValueError):
        chart(which)


@pytest.mark.parametrize("which", ["d", "b"])
def test_verify_chart(which):
    checks = verify_chart(which)
    assert all(c["status"] != "fail" for c in checks), \
        [c for c in checks if c["status"] == "fail"]


def test_rho_B_restricts_names_the_first_failing_monomial(monkeypatch):
    charts = [chart("b"), chart("d")]  # built with the true pi
    pi = pi_map()
    monkeypatch.setattr(charts_module, "pi_map", lambda: AlgebraMap(
        STD.G, STD.B, {**pi.images, "c": STD.B.gen("xi") * 2}, name="pi"))
    for ch in charts:
        checks = {c["name"]: c for c in verify_chart(ch.inverted)}
        restricts = checks[f"{ch.name}.rho_B_restricts"]
        assert restricts["status"] == "fail"
        assert restricts["witness"] == "c"


def test_gamma_lambda_inverses_fails_on_a_corrupted_solved_image(monkeypatch):
    for ch in (chart("b"), chart("d")):
        monkeypatch.setattr(ch, "gamma_lambda_inv", ch.gamma_lambda_inv * 2)
        checks = {c["name"]: c for c in verify_chart(ch.inverted)}
        assert checks[f"{ch.name}.gamma_lambda_inverses"]["status"] == "fail"


def test_gamma_comodule_map_fails_on_a_corrupted_gamma_xi(monkeypatch):
    for ch in (chart("b"), chart("d")):
        gamma = AlgebraMap(B, ch.alg, {**ch.gamma.images,
                                       "xi": ch.gamma.images["xi"] * 2},
                           name=ch.gamma.name)
        monkeypatch.setattr(ch, "gamma", gamma)
        checks = {c["name"]: c for c in verify_chart(ch.inverted)}
        check = checks[f"{ch.name}.gamma_comodule_map"]
        assert check["status"] == "fail"
        assert check["witness"] == "xi"


def test_chart_basis_covers_the_old_sample_words():
    # the 50 seeded B words of degree <= 4 (seeds 0..2) that
    # gamma_comodule_map was checked on lie in the B basis it now uses
    basis = set(B.basis_monomials(4))
    for seed in range(3):
        for w in sample_words(B, 4, 50, seed):
            assert set(w.terms) <= basis, (seed, w)


@pytest.mark.parametrize("which", ["d", "b"])
def test_empty_basis_skips_rho_B_restricts(which):
    # both chart laws are decided on the generators, so `--degree -1`,
    # where no basis monomial is left to scan, bounds neither of them
    checks = {c["name"]: c for c in run_suite("charts", degree=-1).checks}
    for law in ("rho_B_restricts", "gamma_comodule_map"):
        check = checks[f"{chart(which).name}.{law}"]
        assert check["status"] == "pass" and "witness" not in check


def test_cover_equalizer():
    for degree in range(1, 5):
        checks = cover_equalizer(degree)
        assert all(c["status"] != "fail" for c in checks)


def test_injectivity_no_kernel_element():
    # Ore localization at a non-zero-divisor: iota_b kills nothing
    rng = random.Random(3)
    iota = STD.inclusion(STD.G, STD.Gb)
    for _ in range(30):
        f = normal_form_of_word(STD.G, random_word(STD.G, rng, 5))
        if not f.is_zero():
            assert not iota(f).is_zero()


def chart_golden(ch) -> dict:
    """Chart data in the canonical grammar, for golden-file comparison."""
    B = STD.B
    dec = ch.gauss
    return {
        "chart": ch.name,
        "inverted": ch.inverted,
        "coinvariant_generator": str(ch.coinv_gen),
        "gamma": {
            "lambda": str(ch.gamma(B.gen("lambda"))),
            "lambda^-1": str(ch.gamma(B.gen("lambda", -1))),
            "xi": str(ch.gamma(B.gen("xi"))),
        },
        "gauss": {
            "w": "identity" if dec.w_is_identity else "transposition",
            "U": [[str(x) for x in row] for row in dec.U],
            "A": [[str(x) for x in row] for row in dec.A],
        },
        "rho_B_on_inverted": str(ch.rho_B(ch.alg.gen(ch.inverted, -1))),
    }


def test_chart_golden():
    g = chart_golden(chart("d"))
    assert g["gamma"] == {"lambda": "d^-1", "lambda^-1": "d", "xi": "c"}
    assert g["gauss"]["w"] == "identity"
    assert g["rho_B_on_inverted"] == "d^-1 (x) lambda"
    g = chart_golden(chart("b"))
    assert g["gamma"] == {"lambda": "-q b^-1", "lambda^-1": "-q^-1 b",
                          "xi": "-q^-1 a"}
    assert g["gauss"]["w"] == "transposition"


ALGS = {"G": STD.G, "G_b": STD.Gb, "G_d": STD.Gd}


def _slice_cutoffs(n):
    """The cutoffs at which the suites ask for the slice of chi = lambda^-n,
    at suite degree 5 (the default) and 6: `glue_iso_check`'s two cotensor
    cutoffs and its kappa-bar slice, and for n = 0 the charts' coinvariants."""
    out = {max(2, n)}
    for degree in (5, 6):
        cutoff = max(n, min(degree, n + 2))
        out |= {cutoff, cutoff + 1}
        if n == 0:
            out |= {2 * k for k in range(1, max(2, degree // 2) + 1)}
    return sorted(out)


@pytest.mark.parametrize("name", sorted(ALGS))
def test_weight_slice_matches_the_ungated_oracle(name):
    alg = ALGS[name]
    for n in range(6):
        chi = B.gen("lambda", -n)
        for degree in _slice_cutoffs(n):
            assert (charts_module.weight_slice(alg, chi, degree)
                    == weight_gate_oracle.weight_slice(alg, chi, degree)), \
                (name, n, degree)


def _kernel_widths(monkeypatch):
    widths = []
    kernel_basis = linalg.kernel_basis

    def counted(columns):
        widths.append(len(columns))
        return kernel_basis(columns)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    return widths


@pytest.mark.parametrize("name", sorted(ALGS))
def test_weight_slice_solves_on_the_slice_weight(monkeypatch, name):
    alg = ALGS[name]
    assert charts_module._graded_by_right_weight(coaction_B(alg))
    widths = _kernel_widths(monkeypatch)
    for n in range(3):
        charts_module.weight_slice(alg, B.gen("lambda", -n), 4)
    assert widths == [sum(torus_weight(m)[1] == -n
                          for m in alg.basis_monomials(4)) for n in range(3)]


@pytest.mark.parametrize("name", sorted(ALGS))
def test_weight_slice_falls_back_when_the_premise_fails(monkeypatch, name):
    # b (x) lambda in place of b (x) lambda^-1: b's xi-free part has the
    # wrong weight, so monomials of other weights enter the slice (on G,
    # b d is coinvariant), and the slice is solved on every monomial
    alg = ALGS[name]
    rho = coaction_B(alg)
    images = dict(rho.images,
                  b=tensor_elem(rho.target, [alg.gen("b"), B.gen("lambda")]))
    faulty = AlgebraMap(alg, rho.target, images, name="faulty rho_B")
    monkeypatch.setattr(charts_module, "coaction_B",
                        lambda a: faulty if a is alg else coaction_B(a))
    assert not charts_module._graded_by_right_weight(faulty)
    widths = _kernel_widths(monkeypatch)
    for n in range(3):
        chi = B.gen("lambda", -n)
        got = charts_module.weight_slice(alg, chi, 3)
        assert got == weight_gate_oracle.weight_slice(alg, chi, 3), n
    assert widths == [len(alg.basis_monomials(3))] * 6
    if alg is STD.G:
        assert [str(p) for p in charts_module.weight_slice(
            alg, B.one(), 2)] == ["1", "b d"]
