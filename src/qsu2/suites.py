"""Named verification suites driving every theorem check, plus the ledger
of source-text discrepancies with their engine-computed resolutions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import bundle, charts, coherent, comod, hopf
from .haar import (verify_invariance, verify_positivity,
                   zeta_moment_closed_form_report)
from .ncalg import DomainError, STD, rewriting_certificate
from .report import VerificationReport, check, timed
from .scalars import ONE, ZERO, q_number, q_pow

__all__ = ["run_suite", "SUITES"]


def suite_rewriting(n_range, degree, q0):
    checks = []
    for alg in (STD.G, STD.Gb, STD.Gd, STD.Gbd):
        cert = rewriting_certificate(alg, degree)
        failures = [w for w in (cert["associativity"], cert["canonical"]) if w]
        failures += [f"relation {r} fails" for r in cert["relations"]]
        checks.append(check(
            f"confluence.{alg.name}", not failures,
            "a vector space basis of O(SL_q(2)): "
            "{a^k b^r c^s} u {b^r c^s d^t}",
            failures[0] if failures else None))
        if alg is STD.G:
            # the basis invariant: no product of G lands on a monomial in
            # which a and d co-occur
            checks.append(check("basis.no_ad_cooccurrence",
                                cert["canonical"] is None,
                                "a and d never co-occur in the basis",
                                cert["canonical"]))
    return checks


def suite_hopf(n_range, degree, q0):
    checks = hopf.verify_hopf("G")
    checks += hopf.verify_hopf("B")
    checks += hopf.verify_pi_hopf_map()
    return checks


def suite_haar(n_range, degree, q0):
    checks = verify_invariance(min(degree, 5))
    checks += verify_positivity(q0, degree=3)
    rep = zeta_moment_closed_form_report()
    checks.append(check(
        "haar.zeta_moments_closed_form", rep["all_match_positive_power"],
        "int zeta^r = (1-q^-2)/(1-q^-2(r+1)) = q^r/[r+1]_q "
        "(the q^-r variant is the resolution-display misprint)",
        rep))
    return checks


def suite_gram(n_range, degree, q0):
    checks = []
    for n in n_range:
        bad = comod.verify_comodule_axioms(n)
        checks.append(check(
            f"comod.axioms_n{n}", bad is None,
            "rho(x^r y^s) = (x x a + y x c)^r (x x b + y x d)^s", bad))
        wc = comod.weight_covectors(n, STD.B.gen("lambda", -n))
        ok = (len(wc) == 1 and wc[0][0] == ONE
              and all(x.is_zero() for x in wc[0][1:]))
        checks.append(check(
            f"comod.weight_covector_n{n}", ok,
            "(id x pi) rho v_chi = v_chi x chi; spanned by y^n", wc))
        # a failed Gram certificate is the witness of the checks on the form
        try:
            diag, unsolved = coherent.gram(n).diag, None
        except DomainError as exc:
            diag, unsolved = None, exc
        checks.append(check(
            f"gram.inverse_binomial_n{n}",
            diag == comod._inverse_binomials(n),
            "basis vectors sqrt(binom) x^i y^(n-i) are orthonormal "
            "(holds in the swapped Sweedler order)",
            unsolved or [str(d) for d in diag]))
        checks.append(check(
            f"gram.positive_at_half_n{n}",
            diag is not None
            and all(d.specialize(Fraction(1, 2)) > 0 for d in diag),
            "Gram diagonals positive at q = 1/2", unsolved))
    nmax = max(n_range)
    dims = [comod.intertwiner_space_dimension(n) for n in range(min(nmax, 3) + 1)]
    checks.append(check(
        "comod.simplicity_probe", all(d == 1 for d in dims),
        "V_n finite-dimensional and simple (Schur hypothesis)", dims))
    return checks


def suite_charts(n_range, degree, q0):
    checks = []
    for which in ("d", "b"):
        ch = charts.chart(which)
        checks += charts.verify_chart(ch)
        for k in range(1, max(2, degree // 2) + 1):
            basis = charts.localized_coinvariants(ch, 2 * k)
            ok = len(basis) == k + 1
            if ok:
                for p in basis:
                    if charts.coinv_poly_coeffs(p, ch) is None:
                        ok = False
            checks.append(check(
                f"{ch.name}.coinvariants_deg{2 * k}", ok,
                "localized coinvariants are polynomials in u resp. u'",
                [str(p) for p in basis]))
    # paper gamma_b lines rejected
    ctl = charts.paper_gamma_b_controls()
    checks.append(check(
        "b-chart.printed_gamma_rejected",
        not ctl["printed_lambda_image_is_weight_vector"]
        and not ctl["printed_lambda_inv_is_inverse"],
        "the printed gamma_b(lambda) = a, gamma_b(lambda^-1) = b fail the "
        "comodule-algebra constraints", ctl))
    checks.append(check(
        "b-chart.negative_control",
        not charts.inverts_gamma_lambda(charts.chart("b"), STD.Gb.gen("b")),
        "forcing gamma_b(lambda^-1) = b must fail"))
    return checks


def suite_cover(n_range, degree, q0):
    if degree < 1:
        return [check("cover.equalizer", None,
                      "0 -> M -> prod S_lambda^-1 M is exact",
                      f"no degree in the empty range 1..{degree}")]
    cov = charts.cover()
    checks = []
    for d in range(1, degree + 1):
        checks += charts.cover_equalizer(cov, d)
    return checks


def suite_bundle(n_range, degree, q0):
    checks = []
    for n in n_range:
        checks += bundle.glue_iso_check(n, max(n, min(degree, n + 2)))
    return checks


def suite_coherent(n_range, degree, q0):
    checks = []
    # n -> why resolution_operator(n) raised; the checks that read its
    # result fail with that witness
    unresolved = {}
    for n in n_range:
        fam_d = coherent.solve_coherent(charts.chart("d"), n)
        ok = all(fam_d.coefficients[i] == coherent.expected_d_chart_coefficient(n, i)
                 for i in range(n + 1))
        checks.append(check(
            f"n={n}.d_chart_closed_form", ok,
            "rho(y^n) = sum binom(n,i)_{q^-2} q^(-C(i,2)) x^i y^(n-i) x u^i d^n",
            fam_d))
        try:
            coherent.solve_coherent(charts.chart("b"), n)
            checks.append(check(f"n={n}.b_chart_exists", True,
                                "similar formula defines C_b"))
        except DomainError as exc:
            checks.append(check(f"n={n}.b_chart_exists", False,
                                "similar formula defines C_b", exc))
        checks += coherent.section_property_check(n)
        try:
            res = coherent.resolution_operator(n)
            checks.append(check(
                f"n={n}.chart_independence", res.chart_agreement,
                "elements |C> dmu <C| do not depend on lambda"))
            checks.append(check(
                f"n={n}.alpha_closed_form",
                res.alpha == coherent.expected_alpha(n),
                "alpha = q^n [n+1]_q^-1 (the adjacent q^-n line is the "
                "misprint)", res.alpha))
            checks.append(check(
                f"n={n}.alpha_product_identity",
                res.alpha * q_number(n + 1) * q_pow(-n) == ONE,
                "alpha [n+1]_q q^-n = 1", res.alpha))
        except (DomainError, comod.NonScalarError) as exc:
            unresolved[n] = exc
            checks.append(check(f"n={n}.resolution_scalar", False,
                                "the resolution operator is scalar", exc))
        bad = [(r["i"], r["j"], r["value"]) for r in coherent.lemma_table(n)
               if not r["matches_closed_form"]]
        checks.append(check(
            f"n={n}.lemma_integral", not bad,
            "int u^i d^n (u^j d^n)^* = delta_ij binom^-1 q^n q^(2C(i,2)) "
            "[n+1]^-1", bad[-1] if bad else None))
        if n in unresolved:
            ok, cl = False, unresolved[n]
        else:
            cl = coherent.classical_limit_report(n)
            ok = cl["coefficients_to_binomials"] and cl["alpha_limit_ok"]
        checks.append(check(
            f"n={n}.classical_limit", ok,
            "q -> 1: coefficients -> binomials, alpha -> 1/(n+1)", cl))
    qb = [coherent.qbeta_check(i, n) for n in range(6) for i in range(n + 1)]
    bad = [r for r in qb if not r["matches_inverse_binomial_form"]]
    checks.append(check(
        "qbeta.closed_form", not bad,
        "int zeta^i (q^-2 zeta; q^-2)_(n-i) = binom^-1 q^n [n+1]^-1 "
        "(binomial inverted relative to the printed display)",
        bad[-1] if bad else None))
    rb_ok = True
    witness = None
    for a in range(1, 6):
        for b in range(1, 6):
            if not coherent.ramanujan_qbeta(a, b)["equal"]:
                rb_ok = False
                witness = (a, b)
    checks.append(check(
        "qbeta.ramanujan_integer_parameters", rb_ok,
        "integral representation of Ramanujan's q-beta function", witness))
    # the reproducing formula is linear in H and in v: check it on every
    # matrix unit E_ab and basis vector e_c, where H v = delta_bc e_a
    rep_ok, witness = True, None
    for n in n_range:
        if rep_ok and n in unresolved:
            rep_ok, witness = False, (n, unresolved[n])
        m = n + 1
        for a, b, c in itertools.product(range(m), repeat=3):
            H = [[ONE if (j, i) == (a, b) else ZERO for i in range(m)]
                 for j in range(m)]
            v = [ONE if i == c else ZERO for i in range(m)]
            expect = [ONE if (j, b) == (a, c) else ZERO for j in range(m)]
            if rep_ok and coherent.reproducing_apply(n, H, v) != expect:
                rep_ok, witness = False, (n, f"E_{a}{b}", f"e_{c}")
    checks.append(check(
        "reproducing.exact", rep_ok,
        "H|v> = alpha^-1 int H|C> dmu <C|v>", witness))
    return checks


def suite_theorem4(n_range, degree, q0):
    anchor = ("A|v> = sum <w0|v> w0' int ... is a scalar operator "
              "(starred factor grouped second, matching the Gram order)")
    ns = [x for x in n_range if x >= 1]
    if not ns:
        return [check("theorem4.scalar", None, anchor,
                      f"no n >= 1 among the requested "
                      f"{min(n_range)}..{max(n_range)}")]
    checks = []
    for n in ns:
        # A(w) is quadratic in w (star is linear here), so by polarization
        # it is scalar for every w iff it is for each e_i and e_i + e_i'
        m = n + 1
        witness = None
        for i, i2 in itertools.combinations_with_replacement(range(m), 2):
            w = [ONE if k in (i, i2) else ZERO for k in range(m)]
            try:
                coherent.scalar_operator_general(n, w)
            except comod.NonScalarError as exc:
                witness = ([str(x) for x in w], exc)
                break
        checks.append(check(f"theorem4.scalar_n{n}", witness is None, anchor,
                            witness))
    return checks


def suite_resolution(n_range, degree, q0):
    checks = []
    for n in n_range:
        try:
            res = coherent.resolution_operator(n)
            checks.append(check(
                f"resolution.n{n}", res.alpha == coherent.expected_alpha(n),
                "I = q^-n [n+1]_q int |C> dmu(chi) <C|",
                f"alpha = {res.alpha}; at q={q0}: {res.alpha_at(q0)}",
                keep_witness=True))
        except (DomainError, comod.NonScalarError) as exc:
            checks.append(check(f"resolution.n{n}", False,
                                "resolution of unity", exc))
    return checks


# ---------------------------------------------------------------------------
# the discrepancy ledger (criterion: all named entries present and resolved)
# ---------------------------------------------------------------------------

def suite_typos(n_range, degree, q0):
    checks = []

    rep_d = charts.extend_coaction_report(charts.chart("d"))
    rep_b = charts.extend_coaction_report(charts.chart("b"))
    checks.append(check(
        "typo.rho_B_inverted_weight",
        rep_b["weight_inversion_consistent"]
        and rep_d["weight_inversion_consistent"]
        and not rep_b["printed_formula_holds"]
        and not rep_d["printed_formula_holds"],
        "printed: rho_B(b^-1) = b^-1 x lambda^-1; engine: the weight "
        "inverts, rho_B(b^-1) = b^-1 x lambda (else rho_B(b)rho_B(b^-1) "
        "!= 1 x 1)", (rep_b, rep_d)))

    ctl = charts.paper_gamma_b_controls()
    checks.append(check(
        "typo.gamma_b_lines",
        not ctl["printed_lambda_image_is_weight_vector"]
        and not ctl["printed_lambda_inv_is_inverse"],
        "printed: gamma_b(lambda) = a, gamma_b(lambda^-1) = b; engine: "
        f"gamma_b(lambda) = {ctl['solved_lambda']} (= c - d b^-1 a), "
        f"gamma_b(lambda^-1) = {ctl['solved_lambda_inv']}, "
        f"gamma_b(xi) = {ctl['solved_xi']}", ctl))

    chd, chb = charts.chart("d"), charts.chart("b")
    d_basis = charts.localized_coinvariants(chd, 2)
    b_basis = charts.localized_coinvariants(chb, 2)

    def _spans_unit_and_gen(basis, ch):
        if len(basis) != 2:
            return False
        degs = set()
        for p in basis:
            coeffs = charts.coinv_poly_coeffs(p, ch)
            if coeffs is None:
                return False
            degs.add(len(coeffs) - 1)
        return degs == {0, 1}

    u_in_d = _spans_unit_and_gen(d_basis, chd)
    uprime_in_b = _spans_unit_and_gen(b_basis, chb)
    try:
        STD.Gb.gen("d", -1)
        u_makes_sense_in_b = True
    except DomainError:
        u_makes_sense_in_b = False
    checks.append(check(
        "typo.u_uprime_labels",
        u_in_d and uprime_in_b and not u_makes_sense_in_b,
        "printed: G_b^coB = C[u], G_d^coB = C[u'] with u = b d^-1; engine: "
        "u = b d^-1 lives in G_d (d^-1 does not exist in G_b), so "
        "G_d^coB = C[u] and G_b^coB = C[u']",
        {"d_chart": [str(p) for p in d_basis],
         "b_chart": [str(p) for p in b_basis]}))

    rep1 = comod.gram_order_report(1)
    checks.append(check(
        "typo.gram_order",
        rep1[comod.STAR_SECOND].get("matches_inverse_binomial") is False
        and rep1[comod.STAR_FIRST].get("matches_inverse_binomial") is True,
        "the printed coinvariance order z_(1) w*_(1) yields diag(q^-2, 1) "
        "for n=1; the swapped order w*_(1) z_(1) yields the orthonormal "
        "diag(1,1) and is the convention the suite records", rep1))

    zrep = zeta_moment_closed_form_report()
    try:
        alphas = [coherent.resolution_operator(n).alpha for n in range(4)]
    except (DomainError, comod.NonScalarError) as exc:
        alpha_ok, witness = False, exc
    else:
        alpha_ok = (
            all(alphas[n] == coherent.expected_alpha(n) for n in range(4))
            and all(alphas[n] != q_pow(-n) / q_number(n + 1)
                    for n in range(1, 4))
            and zrep["all_match_positive_power"])
        witness = zrep
    checks.append(check(
        "typo.qn_vs_qminusn", alpha_ok,
        "printed: both q^n [n+1]^-1 (alpha) and [n+1]^-1 q^-n (the display); "
        "engine: alpha = q^n [n+1]^-1 exactly, and likewise int zeta^r = "
        "q^r/[r+1]_q with the positive power", witness))

    signs = [coherent.integrand_sign_check(i, n)
             for n in range(1, 4) for i in range(n + 1)]
    sign_ok = all(r["plus_sign_holds"] and not r["minus_sign_holds"]
                  for r in signs)
    checks.append(check(
        "typo.lemma_sign",
        sign_ok,
        "printed: u^i d^n (u^i d^n)^* = -q^(2C(i,2)) zeta^i (...); engine: "
        "the sign is +, as positivity of int f f^* requires"))

    G = STD.G
    a, b, c, d = (G.gen(g) for g in "abcd")
    linear_ok = True
    squared_ok = True
    for r in range(1, 6):
        lhs = d ** r * a ** r
        linear = G.one()
        squared = G.one()
        for k in range(r):
            linear = linear * (G.one() + b * c * q_pow(-1 - 2 * k))
            squared = squared * (G.one() + (b * c) ** (k + 1) * q_pow(-1 - 2 * k))
        if lhs != linear:
            linear_ok = False
        if r >= 2 and lhs == squared:
            squared_ok = False
    checks.append(check(
        "typo.dr_ar_bc_square",
        linear_ok and squared_ok,
        "printed: d^r a^r = (1+q^-1 bc)(1+q^-3 (bc)^2)...; engine: all "
        "Pochhammer factors are linear in bc, d^r a^r = "
        "prod_k (1 + q^(-1-2k) bc)"))

    qb = [coherent.qbeta_check(i, n) for n in range(5) for i in range(n + 1)]
    inverse_all = all(r["matches_inverse_binomial_form"] for r in qb)
    printed_fails = any(not r["matches_printed_form"] for r in qb)
    checks.append(check(
        "typo.qbeta_binomial_position",
        inverse_all and printed_fails,
        "printed: int zeta^i (q^-2 zeta; q^-2)_(n-i) = binom q^n [n+1]^-1; "
        "engine (and the Lemma itself): the binomial is inverted; the "
        "printed form fails for 0 < i < n"))

    rb = [coherent.ramanujan_qbeta(aa, bb)
          for aa in range(1, 6) for bb in range(1, 6)]
    corrected_ok = all(r["equal"] for r in rb)
    printed_fail = any(not r["matches_printed_form"] for r in rb)
    checks.append(check(
        "typo.ramanujan_integrand_reading",
        corrected_ok and printed_fail,
        "printed: x^alpha with beta factors starting at (1-x); engine: the "
        "identity holds exactly with x^(alpha-1) (qx;q)_(beta-1)"))

    checks.append(check(
        "typo.gauss_w_matrices",
        charts.chart("d").gauss.w_is_identity
        and not charts.chart("b").gauss.w_is_identity
        and not charts.chart("d").gauss.other_w_solvable
        and not charts.chart("b").gauss.other_w_solvable,
        "printed: the same identity matrix for w in both charts; engine: "
        "T = wUA is solvable only with w = id in the d-chart and only with "
        "the transposition in the b-chart"))
    return checks


def suite_hopf_negative_control(n_range, degree, q0):
    """Deliberately corrupted Delta(b); must FAIL (exit code contract)."""
    return hopf.verify_hopf("G", corrupt_delta=True)


SUITES = {
    "rewriting": suite_rewriting,
    "hopf": suite_hopf,
    "haar": suite_haar,
    "gram": suite_gram,
    "charts": suite_charts,
    "cover": suite_cover,
    "bundle": suite_bundle,
    "coherent": suite_coherent,
    "theorem4": suite_theorem4,
    "resolution": suite_resolution,
    "typos": suite_typos,
    "hopf_negative_control": suite_hopf_negative_control,
}

# the corrupted-fixture suite is excluded from `all`: it must fail
_ALL_SUITES = [k for k in SUITES if k != "hopf_negative_control"]


def run_suite(name, n_range=range(0, 4), degree=5, seed=0,
              q0=Fraction(1, 2)) -> VerificationReport:
    with timed() as t:
        if name == "all":
            checks = []
            for key in _ALL_SUITES:
                checks += SUITES[key](n_range, degree, q0)
        else:
            checks = SUITES[name](n_range, degree, q0)
    return VerificationReport(name, checks, seed, t.ms)
