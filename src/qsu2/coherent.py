"""Coherent families, the invariant density, the resolution-of-unity
operator, and the q-beta identities behind it.

All starred quantities are computed through the grouping

    C_lambda (1 (x) gamma_lambda(chi)) = rho_lambda(y^n)  in V (x) iota(G),

so the involution and the Haar integral only ever act on honest elements
of G (the involution is not defined on the whole localization).  The
monomial basis with the diagonal Gram form replaces the orthonormal basis,
absorbing all square-root prefactors.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from .bundle import Section
from .charts import (TrivializationChart, chart, cover,
                     is_weight_vector)
from .comod import (GramForm, VnComodule, pairing, schur_scalar,
                    solve_coinvariant_gram)
from .haar import haar, integral
from .ncalg import DomainError, NCPoly, STD, retract, star
from .report import check
from .scalars import (ONE, Q, QScalar, ZERO, gauss_binomial,
                      jackson_q_integral_01, q_gamma_int, q_number,
                      q_pochhammer, q_pow)

__all__ = [
    "CoherentFamily",
    "ResolutionResult",
    "solve_coherent",
    "expected_d_chart_coefficient",
    "expected_alpha",
    "integrand_sign_check",
    "section_property_check",
    "mu_density",
    "assembled_coefficients",
    "resolution_operator",
    "lemma_integral",
    "lemma_integral_closed_form",
    "lemma_table",
    "qbeta_check",
    "ramanujan_qbeta",
    "scalar_operator_general",
    "reproducing_apply",
    "classical_limit_report",
    "gram",
]

# calls the traced solve_coinvariant_gram by its global name; caching that
# function object itself would bypass a wrapper installed on the name
@functools.cache
def gram(n: int) -> GramForm:
    return solve_coinvariant_gram(n)


class CoherentFamily:
    """C_lambda in V_n (x) (localized coinvariants), stored as coefficient
    polynomials against the monomial basis x^i y^(n-i)."""

    def __init__(self, ch: TrivializationChart, n: int, coefficients):
        self.chart = ch
        self.n = n
        self.coefficients = coefficients  # list of NCPoly in the chart

    def __repr__(self):
        V = VnComodule(self.n)
        parts = [f"{V.basis_str(i)} (x) ({c})"
                 for i, c in enumerate(self.coefficients) if not c.is_zero()]
        return f"CoherentFamily[{self.chart.name}, n={self.n}]: " + \
            " + ".join(parts)


def solve_coherent(ch: TrivializationChart, n: int) -> CoherentFamily:
    """Factor rho_lambda(y^n) = C_lambda (1 (x) gamma_lambda(chi)).

    Right-multiplies by the inverse of gamma(chi) and certifies the
    coefficients are localized coinvariants; fatal if they are not, since
    that would falsify the existence of the local family.
    """
    V = VnComodule(n)
    vec = [ONE if i == 0 else ZERO for i in range(n + 1)]  # y^n is e_0
    gchi_inv = ch.gamma(STD.B.gen("lambda", n))  # gamma(chi)^-1
    coeffs = [ch.iota(w) * gchi_inv for w in V.components(vec)]
    fam = CoherentFamily(ch, n, coeffs)
    for i, f in enumerate(coeffs):
        if not is_weight_vector(ch, f, STD.B.one()):
            raise DomainError(
                f"coherent coefficient {V.basis_str(i)} of {ch.name} is not "
                f"coinvariant: {f}")
    return fam


def expected_d_chart_coefficient(n: int, i: int) -> NCPoly:
    """binom(n,i)_{q^-2} q^(-C(i,2)) u^i in the d-chart."""
    ch = chart("d")
    c = gauss_binomial(n, i, q_pow(-2)) * q_pow(-(i * (i - 1)) // 2)
    return ch.coinv_gen ** i * c


def assembled_coefficients(ch: TrivializationChart, n: int):
    """The G-elements r_i with rho(y^n) = sum_i e_i (x) r_i, recovered
    chartwise as C_lambda (1 (x) gamma(chi)) and retracted to G."""
    fam = solve_coherent(ch, n)
    gchi = ch.gamma_chi(n)
    out = []
    for f in fam.coefficients:
        out.append(retract(f * gchi, STD.G))
    return out


def section_property_check(n: int):
    """<C_b|v> and <C_d|v> glue to a global section for every basis v."""
    cov = cover()
    g = gram(n)
    fam_b = solve_coherent(cov.b, n)
    fam_d = solve_coherent(cov.d, n)
    checks = []
    for k in range(n + 1):
        vec = [ONE if i == k else ZERO for i in range(n + 1)]
        witness = None
        try:
            Section(pairing(fam_b.coefficients, vec, g),
                    pairing(fam_d.coefficients, vec, g), n)
        except DomainError as exc:
            witness = exc
        checks.append(check(
            f"n={n}.section_property_v{k}", witness is None,
            "<C_lambda|v> is an element in Gamma_Lambda L_chi", witness))
    return checks


def mu_density(ch: TrivializationChart, n: int) -> NCPoly:
    """d mu(chi) = gamma(chi) gamma(chi)^* as a canonical element of G."""
    gchi = retract(ch.gamma_chi(n), STD.G)
    return gchi * star(gchi)


class ResolutionResult:
    def __init__(self, n, matrix, alpha, chart_agreement):
        self.n = n
        self.matrix = matrix
        self.alpha = alpha
        self.chart_agreement = chart_agreement

    def alpha_at(self, q0) -> Fraction:
        return self.alpha.specialize(q0)


def expected_alpha(n: int) -> QScalar:
    """alpha = q^n / [n+1]_q (hand-anchored at n=1 by int dd* = q^2/(q^2+1))."""
    return q_pow(n) / q_number(n + 1)


@functools.cache
def resolution_operator(n: int) -> ResolutionResult:
    """Integrate |C> dmu <C| and certify the scalar operator.

    Assembles, per chart, the V (x) G (x) V* element with entries
    r_i r_j^* where r_i = (C_lambda)_i gamma_lambda(chi).  Whether the two
    charts give the identical element (lambda-independence) is recorded as
    `chart_agreement`; the triples are built only when the two vectors
    differ.  The matrix is `_operator_matrix` of the d-chart vector.  The
    Gram-weighted Haar integral must be an exact scalar matrix.
    """
    cov = cover()
    r_b = assembled_coefficients(cov.b, n)
    r_d = assembled_coefficients(cov.d, n)
    m = n + 1

    def triple(r):
        r_star = [star(x) for x in r]
        return {(i, j): r[i] * r_star[j] for i in range(m) for j in range(m)}

    # equal vectors give equal triples; differing ones (r_b = -r_d) may too
    agree = r_b == r_d or triple(r_b) == triple(r_d)
    matrix = _operator_matrix(r_d, n)
    alpha = schur_scalar(matrix, n)
    return ResolutionResult(n, matrix, alpha, agree)


def _operator_matrix(w, n: int):
    """[int w_j w_k^* g_k] for w_0..w_n in G, g the Gram diagonal: the
    matrix of Theorem 4 and of the resolution of identity.  Each entry is
    `haar.integral`, term pair by term pair from the table `haar.pair`, so
    entries between homogeneous w_j and w_k of different torus weights are
    exact zero with no product formed."""
    g = gram(n)
    return [[integral(w[j], w[k]) * g.diag[k] for k in range(n + 1)]
            for j in range(n + 1)]


def lemma_integral(i: int, j: int, n: int) -> QScalar:
    """int u^i d^n (u^j d^n)^* computed through the Haar functional, by
    `haar.integral`: the sides are homogeneous of different torus weights
    for i != j, so those entries are exact zero without a product, and
    the diagonal reads the monomial pairs the resolution operator of V_n
    has already put in the table `haar.pair`."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i,j <= n")
    return integral(_lemma_side(i, n), _lemma_side(j, n))


@functools.cache
def _lemma_side(i: int, n: int) -> NCPoly:
    """u^i d^n in the d-chart, retracted to G.  Shared: callers only read
    it."""
    ch = chart("d")
    return retract(ch.coinv_gen ** i * ch.alg.gen("d", n), STD.G)


def lemma_integral_closed_form(i: int, n: int) -> QScalar:
    """binom(n,i)_{q^-2}^-1 q^n q^(2 C(i,2)) [n+1]_q^-1 (the diagonal case)."""
    return (gauss_binomial(n, i, q_pow(-2)).inverse()
            * q_pow(n + i * (i - 1)) / q_number(n + 1))


def lemma_table(n: int):
    """The Lemma for V_n entry by entry: one row per (i, j) with the value of
    int u^i d^n (u^j d^n)^* and whether it equals delta_ij times the closed
    form."""
    rows = []
    for i in range(n + 1):
        for j in range(n + 1):
            v = lemma_integral(i, j, n)
            expect = lemma_integral_closed_form(i, n) if i == j else ZERO
            rows.append({"i": i, "j": j, "value": str(v),
                         "matches_closed_form": v == expect})
    return rows


def _zeta_pochhammer(i: int, n: int) -> NCPoly:
    """zeta^i (q^-2 zeta; q^-2)_(n-i) in G, with zeta = -q b c."""
    poch = q_pochhammer(q_pow(-2), q_pow(-2), n - i)
    out = STD.G.zero()
    for k, c in enumerate(poch):
        if not c.is_zero():
            out = out + _zeta_power(i + k) * c
    return out


@functools.cache
def _zeta_power(k: int) -> NCPoly:
    """zeta^k in G, zeta = -q b c.  Shared: callers only read it."""
    return (STD.G.gen("b") * STD.G.gen("c") * (-Q)) ** k


@functools.cache
def qbeta_check(i: int, n: int):
    """int zeta^i (q^-2 zeta; q^-2)_(n-i) against the closed forms.

    The Haar value matches the inverse-binomial form (the one implied by
    the Lemma); the printed display with the binomial uninverted fails for
    0 < i < n and is recorded as a misprint.  Shared: callers only read it.
    """
    if not (0 <= i <= n):
        raise ValueError("need 0 <= i <= n")
    value = haar(_zeta_pochhammer(i, n))
    binom = gauss_binomial(n, i, q_pow(-2))
    inverse_form = binom.inverse() * q_pow(n) / q_number(n + 1)
    printed_form = binom * q_pow(n) / q_number(n + 1)
    return {
        "i": i, "n": n,
        "value": value,
        "matches_inverse_binomial_form": value == inverse_form,
        "matches_printed_form": value == printed_form,
    }


def integrand_sign_check(i: int, n: int):
    """u^i d^n (u^i d^n)^* = + q^(2 C(i,2)) zeta^i (q^-2 zeta;q^-2)_(n-i);
    the printed minus sign would contradict positivity."""
    lhs = _lemma_side(i, n)
    lhs = lhs * star(lhs)
    rhs = _zeta_pochhammer(i, n) * q_pow(i * (i - 1))
    return {"plus_sign_holds": lhs == rhs, "minus_sign_holds": lhs == -rhs}


@functools.cache
def ramanujan_qbeta(alpha: int, beta: int):
    """Jackson-integral representation of the q-beta function at integer
    parameters: int_0^1 x^(alpha-1) (qx; q)_(beta-1) d_q x =
    Gamma_q(alpha) Gamma_q(beta) / Gamma_q(alpha+beta).

    The printed reading of the integrand, x^alpha (x; q)_beta (beta
    factors starting at 1 - x), is integrated as well: it misses the
    Gamma_q quotient, and `matches_printed_form` records that misprint.
    Shared: callers only read it."""
    if alpha < 1 or beta < 1:
        raise ValueError("integer parameters must be >= 1")
    lhs = jackson_q_integral_01(
        (ZERO,) * (alpha - 1) + q_pochhammer(Q, Q, beta - 1), Q)
    printed = jackson_q_integral_01(
        (ZERO,) * alpha + q_pochhammer(ONE, Q, beta), Q)
    rhs = q_gamma_int(alpha) * q_gamma_int(beta) / q_gamma_int(alpha + beta)
    return {"alpha": alpha, "beta": beta, "lhs": lhs, "rhs": rhs,
            "equal": lhs == rhs, "matches_printed_form": printed == rhs}


def scalar_operator_general(n: int, w_vec) -> QScalar:
    """The Theorem-4 operator for an arbitrary fixed w in V_n.

    With rho(w) = sum e_i (x) w_i the matrix is A[j][k] = g_k int(w_j w_k^*)
    (`_operator_matrix`); the starred factor is grouped second so the
    integrand stays in G, the pairing convention the solved Gram satisfies.
    Raises NonScalarError if the matrix is not scalar (that would falsify
    the theorem).
    """
    V = VnComodule(n)
    if all(QScalar.coerce(x).is_zero() for x in w_vec):
        raise ValueError("w must be nonzero")
    return schur_scalar(_operator_matrix(V.components(w_vec), n), n)


def reproducing_apply(n: int, H, v_vec):
    """Evaluate H|v> = alpha^-1 int H|C> dmu <C|v> exactly.

    H is an (n+1)x(n+1) QScalar matrix acting on the monomial basis;
    returns the resulting coefficient vector, which the resolution theorem
    says equals H v.  The Gram-weighted integrals int r_i r_k^* g_k are
    the entries of `resolution_operator(n).matrix`."""
    res = resolution_operator(n)
    if res.alpha.is_zero():
        raise DomainError("alpha vanishes; resolution formula undefined")
    m = n + 1
    alpha_inv = res.alpha.inverse()
    out = []
    for j in range(m):
        total = ZERO
        for i in range(m):
            for k in range(m):
                total = total + (QScalar.coerce(H[j][i]) * res.matrix[i][k]
                                 * QScalar.coerce(v_vec[k]))
        out.append(total * alpha_inv)
    return out


def classical_limit_report(n: int):
    """Specialize the d-chart coefficients and alpha at q = 1."""
    q1 = Fraction(1)
    ch = chart("d")
    fam = solve_coherent(ch, n)
    coeff_ok = True
    for i, f in enumerate(fam.coefficients):
        # coefficient is binom(n,i)_(q^-2) q^(-C(i,2)) u^i: one monomial
        u_i = ch.coinv_gen ** i
        (mono, base), = u_i.terms.items()
        got = f.coeff(mono) / base if mono in f.terms else ZERO
        if len(f.terms) != 1 or got.specialize(q1) != comb(n, i):
            coeff_ok = False
    alpha = resolution_operator(n).alpha
    return {
        "n": n,
        "coefficients_to_binomials": coeff_ok,
        "alpha_at_1": alpha.specialize(q1),
        "alpha_limit_ok": alpha.specialize(q1) == Fraction(1, n + 1),
    }
