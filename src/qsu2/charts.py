"""The two Ore-localization charts of G and their trivialization data.

Each chart carries: the localized algebra, the embedding of G, the extended
Borel coaction, the Gauss decomposition T = wUA, and the comodule-algebra
map gamma solved from the decomposition ansatz.  The b- and d-localizations
cover G; the equalizer property of the cover is checked by exact linear
algebra on filtration slices.

The gamma maps are derived, not transcribed: the lambda-image is pinned to
the Gauss entry A^1_1 and the remaining prefactors are solved from the
algebra-map and comodule-map constraints.  The printed b-chart assignments
in the source text fail those constraints (see the negative controls); the
solver's output is the source of truth.
"""

from __future__ import annotations

import functools

from . import comod, linalg
from .hopf import basis_words, generator_law, hopf_B, hopf_G, pi_map
from .ncalg import (Algebra, AlgebraMap, DomainError, NCPoly, STD,
                    apply_tensor_map, retract, tensor_elem)
from .report import attempt, check
from .scalars import ONE, ZERO, q_pow

__all__ = [
    "TrivializationChart",
    "Cover",
    "GaussDecomposition",
    "chart",
    "cover",
    "coaction_B",
    "extend_coaction_report",
    "is_weight_vector",
    "weight_slice",
    "localized_coinvariants",
    "coinv_poly_coeffs",
    "gauss_decompose",
    "build_gamma",
    "inverts_gamma_lambda",
    "paper_gamma_b_controls",
    "verify_chart",
    "cover_equalizer",
]


def _mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)),
                 A[0][0].alg.zero()) for j in range(m)] for i in range(n)]


class GaussDecomposition:
    """T = w U A with U upper unitriangular and A lower triangular."""

    def __init__(self, w_is_identity, U, A, verified):
        self.w_is_identity = w_is_identity
        self.U = U
        self.A = A
        self.verified = verified


class TrivializationChart:
    def __init__(self, alg, inverted):
        self.name = f"{inverted}-chart"
        self.alg = alg
        self.inverted = inverted  # generator name made invertible, b or d
        self.iota = STD.inclusion(STD.G, alg)
        self.to_double = STD.inclusion(alg, STD.Gbd)
        self.target = STD.tensor(alg, STD.B)
        self.rho_B = coaction_B(alg)
        # u = b d^-1 on the d-chart, u' = d b^-1 on the b-chart
        other = "bd".replace(inverted, "")
        self.coinv_gen = alg.gen(other) * alg.gen(inverted, -1)
        self.gauss = gauss_decompose(self)
        (self.gamma, self.gamma_unique,
         self.gamma_lambda_inv) = build_gamma(self)

    def gamma_chi(self, n: int) -> NCPoly:
        """gamma(lambda^-n)."""
        return self.gamma(STD.B.gen("lambda", -n))

    def glued(self, f: NCPoly, n: int) -> NCPoly:
        """f gamma(lambda^-n) in G_bd; gamma(lambda^0) = 1 is not
        multiplied in."""
        return self.to_double(f * self.gamma_chi(n) if n else f)

    def __repr__(self):
        return f"<{self.name}>"


@functools.cache
def coaction_B(alg: Algebra) -> AlgebraMap:
    """The Borel coaction alg -> alg (x) B on G or on a chart (G_b, G_d):
    the unique algebra-map extension of (iota x pi)Delta.

    On an inverted generator the coaction is forced to the inverse of the
    generator's weight monomial; the paper's printed b^-1 weight is wrong
    and is recorded by `extend_coaction_report`.
    """
    target = STD.tensor(alg, STD.B)
    maps = [STD.inclusion(STD.G, alg).image, pi_map().image]
    images = {g: apply_tensor_map(hopf_G().delta(STD.G.gen(g)), maps, target)
              for g in "abcd"}
    return AlgebraMap(alg, target, images, name=f"rho_B[{alg.name}]")


def is_weight_vector(ch: TrivializationChart, f: NCPoly, chi: NCPoly) -> bool:
    """rho_B(f) = f (x) chi: f is a weight vector of weight chi in the
    chart (a localized coinvariant for chi = 1)."""
    return ch.rho_B(f) == tensor_elem(ch.target, [f, chi])


def extend_coaction_report(ch: TrivializationChart):
    """Computed coaction on the inverted generator, with the weight-inversion
    cross-check that overrides the printed formula."""
    g = ch.inverted
    inv = ch.alg.gen(g, -1)
    computed = ch.rho_B(inv)
    # weight inversion: rho_B(g) = g (x) w forces rho_B(g^-1) = g^-1 (x) w^-1
    weight = STD.B.gen("lambda", -1)
    product = ch.rho_B(ch.alg.gen(g)) * computed
    return {
        "chart": ch.name,
        "generator": f"{g}^-1",
        "computed": str(computed),
        "weight_inversion_consistent":
            is_weight_vector(ch, inv, weight.monomial_inverse()),
        "printed_formula_holds": is_weight_vector(ch, inv, weight),
        "product_is_unit": product == ch.target.one(),
    }


def gauss_decompose(ch: TrivializationChart) -> GaussDecomposition:
    """Solve T = wUA for both permutation matrices; keep the solvable one.

    Solvability needs (w^-1 T)_22 invertible in the chart, which selects
    w = id on the d-chart and the transposition on the b-chart.  Whether
    wUA multiplies back to T is recorded as `verified`, not assumed; only
    a chart where no w is solvable raises.
    """
    alg = ch.alg
    T = [[alg.gen("a"), alg.gen("b")], [alg.gen("c"), alg.gen("d")]]
    solvable = []
    for w_is_identity in (True, False):
        M = T if w_is_identity else [T[1], T[0]]
        try:
            a22_inv = M[1][1].monomial_inverse()
        except DomainError:
            continue
        u = M[0][1] * a22_inv
        A21, A22 = M[1][0], M[1][1]
        A11 = M[0][0] - u * A21
        U = [[alg.one(), u], [alg.zero(), alg.one()]]
        A = [[A11, alg.zero()], [A21, A22]]
        wUA = _mat_mul(U, A)
        if not w_is_identity:
            wUA = [wUA[1], wUA[0]]
        verified = all(wUA[i][j] == T[i][j] for i in range(2) for j in range(2))
        solvable.append(GaussDecomposition(w_is_identity, U, A, verified))
    if not solvable:
        raise DomainError(f"{ch.name}: no permutation w solves T = wUA")
    dec = solvable[0]
    dec.other_w_solvable = len(solvable) == 2
    return dec


def build_gamma(ch: TrivializationChart):
    """Solve for gamma within the Gauss ansatz.

    gamma(lambda) = A^1_1 is pinned (the decomposition normalizes U to be
    unidiagonal, which fixes the scale); the prefactors beta, delta of
    gamma(xi) = beta A^2_1 and gamma(lambda^-1) = delta A^2_2 are solved
    from lambda lambda^-1 = lambda^-1 lambda = 1, lambda xi = q xi lambda,
    and the comodule-map constraint.  Returns (gamma, unique, the solved
    delta A^2_2); `verify_chart` tests the last against gamma(lambda).
    """
    alg = ch.alg
    A = ch.gauss.A
    A11, A21, A22 = A[0][0], A[1][0], A[1][1]
    B = STD.B
    lam, xi = B.gen("lambda"), B.gen("xi")
    # unknowns (beta, delta); every constraint is linear in them:
    #   delta (A11 A22) = 1 and delta (A22 A11) = 1,
    #   beta (A11 A21 - q A21 A11) = 0,
    #   beta rho_B(A21) - beta (A21 x lambda) - delta (A22 x xi) = 0
    columns = [
        linalg.column({"lambda_xi": A11 * A21 - (A21 * A11) * q_pow(1),
                       "xi_comodule": ch.rho_B(A21)
                       - tensor_elem(ch.target, [A21, lam])}),
        linalg.column({"ll_inv": A11 * A22, "linv_l": A22 * A11,
                       "xi_comodule": -tensor_elem(ch.target, [A22, xi])}),
    ]
    target = linalg.column({"ll_inv": alg.one(), "linv_l": alg.one()})
    sol, unique = linalg.in_span(columns, target)
    if sol is None:
        raise DomainError(f"{ch.name}: no gamma in the Gauss ansatz")
    beta, delta = sol
    gamma = AlgebraMap(B, alg, {"lambda": A11, "xi": A21 * beta},
                       name=f"gamma[{ch.name}]")
    return gamma, unique, A22 * delta


def inverts_gamma_lambda(ch: TrivializationChart, candidate: NCPoly) -> bool:
    """Whether `candidate` is a two-sided inverse of the solved
    gamma(lambda) = A^1_1, as any gamma(lambda^-1) must be."""
    A11 = ch.gauss.A[0][0]
    one = ch.alg.one()
    return A11 * candidate == one and candidate * A11 == one


def paper_gamma_b_controls():
    """Negative controls for the printed b-chart gamma lines.

    Returns engine evidence that gamma_b(lambda) = a fails the comodule
    constraint and gamma_b(lambda^-1) = b fails invertibility against the
    solved gamma_b(lambda) = c - d b^-1 a.
    """
    ch = chart("b")
    alg = ch.alg
    B = STD.B
    lam = B.gen("lambda")
    a = alg.gen("a")
    b = alg.gen("b")
    A11 = ch.gauss.A[0][0]
    return {
        "printed_lambda_image_is_weight_vector": is_weight_vector(ch, a, lam),
        "printed_lambda_image_coaction": str(ch.rho_B(a)),
        "printed_lambda_inv_product": str(A11 * b),
        "printed_lambda_inv_is_inverse": inverts_gamma_lambda(ch, b),
        "solved_lambda": str(A11),
        "solved_lambda_inv": str(ch.gamma(B.gen("lambda", -1))),
        "solved_xi": str(ch.gamma(B.gen("xi"))),
    }


@functools.cache
def chart(which: str) -> TrivializationChart:
    """The d-chart (`which` = "d") or the b-chart ("b")."""
    if which not in ("b", "d"):
        raise ValueError(which)
    return TrivializationChart(STD.Gd if which == "d" else STD.Gb, which)


class Cover:
    """The two-chart cover with its double localization."""

    def __init__(self):
        self.b = chart("b")
        self.d = chart("d")

    def glued_pairs(self, fs_b, fs_d, n: int):
        """Basis of the pairs (f_b, f_d), f_b in the span of the b-chart
        elements fs_b and f_d in that of the d-chart elements fs_d, with
        f_b gamma_b(chi) = f_d gamma_d(chi) in G_bd, chi = lambda^-n."""
        columns = [dict(self.b.glued(f, n).terms) for f in fs_b]
        columns += [{m: -c for m, c in self.d.glued(f, n).terms.items()}
                    for f in fs_d]

        def span(alg, fs, coeffs):
            return sum((f * c for f, c in zip(fs, coeffs) if c), alg.zero())

        nb = len(fs_b)
        return [(span(self.b.alg, fs_b, vec[:nb]),
                 span(self.d.alg, fs_d, vec[nb:]))
                for vec in linalg.kernel_basis(columns)]


@functools.cache
def cover() -> Cover:
    return Cover()


# ---------------------------------------------------------------------------
# localized coinvariants
# ---------------------------------------------------------------------------

def _graded_by_right_weight(rho: AlgebraMap) -> bool:
    """Whether the xi-free part of rho(g) is g (x) lambda^(w_R(g)) for every
    g of `basis_words(rho.source, 1)` (the unit, the generators and their
    inverses: the words `hopf.generator_law` decides laws on), where w_R is
    the second torus weight (`comod.torus_weight`)."""
    xi = STD.B.gen_index["xi"]
    for p in basis_words(rho.source, 1):
        mono, = p.terms
        weight = STD.B.gen("lambda", comod.torus_weight(mono)[1])
        xi_free = {m: c for m, c in rho(p).terms.items()
                   if not rho.target.split_mono(m)[1][xi]}
        if xi_free != tensor_elem(rho.target, [p, weight]).terms:
            return False
    return True


def weight_slice(alg: Algebra, chi: NCPoly, degree: int):
    """Basis of {p in alg : rho_B(p) = p (x) chi} on the canonical monomials
    up to degree: the kernel of rho_B - (. x chi).

    For chi = lambda^-n the kernel is solved on the monomials m of right
    torus weight w_R(m) = comod.torus_weight(m)[1] = -n only.  Sending xi
    to 0 is an algebra map B -> K[lambda^+-1], so once the premise
    `_graded_by_right_weight` holds on the generators, the xi-free part of
    rho_B(m) is m (x) lambda^(w_R(m)) on every monomial, and a kernel vector
    vanishes on every m of another weight.  Those columns are pivots, so
    leaving them out leaves the kernel basis as it was.  When the premise
    fails, or chi is not a multiple of a power of lambda, every monomial is
    solved on."""
    rho = coaction_B(alg)
    monos = alg.basis_monomials(degree)
    # chi = c lambda^k has the single B-monomial (k, 0)
    chi_mono = next(iter(chi.terms)) if len(chi.terms) == 1 else None
    if chi_mono and not chi_mono[1] and _graded_by_right_weight(rho):
        monos = [m for m in monos if comod.torus_weight(m)[1] == chi_mono[0]]
    columns = []
    for m in monos:
        p = NCPoly(alg, {m: ONE})
        columns.append((rho(p) - tensor_elem(rho.target, [p, chi])).terms)
    return [NCPoly(alg, {m: c for m, c in zip(monos, vec) if c})
            for vec in linalg.kernel_basis(columns)]


def localized_coinvariants(ch: TrivializationChart, degree: int):
    """Kernel of rho_B - (. x 1) on the canonical monomials up to degree:
    the weight slice of chi = 1, solved on right torus weight 0."""
    return weight_slice(ch.alg, STD.B.one(), degree)


def coinv_poly_coeffs(p: NCPoly, ch: TrivializationChart):
    """Coefficients c_k with p = sum c_k (coinv_gen)^k, or None."""
    if p.is_zero():
        return []
    # coinv_gen is one monomial, exponent 1 on one generator and -1 on the
    # inverted one; its k-th power has k times its exponents
    (u_mono, _), = ch.coinv_gen.terms.items()
    i = u_mono.index(1)
    coeffs = {}
    for mono, c in p.terms.items():
        k = mono[i]
        if mono != tuple(k * e for e in u_mono):
            return None
        coeffs[k] = c
    out = []
    for k in range(max(coeffs) + 1):
        uk = ch.coinv_gen ** k
        (mono, base), = uk.terms.items()
        out.append(coeffs.get(k, ZERO) / base)
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_chart(which: str):
    """The checks of `chart(which)`, each reading the cached chart itself;
    `rho_B_restricts` and `gamma_comodule_map` are laws between algebra maps,
    decided in every degree on the generators (`hopf.generator_law`)."""
    checks = []
    B, G, HB, HG, pi = STD.B, STD.G, hopf_B(), hopf_G(), pi_map()

    def emit(name, anchor, body):
        checks.append(attempt(f"{which}-chart.{name}", anchor,
                              lambda: body(chart(which))))

    def first_n_failing(holds):
        bad = next((n for n in range(5) if not holds(n)), None)
        return bad is None, bad

    emit("iota_algebra_map", "localization map is a ring homomorphism",
         lambda ch: (not ch.iota.check_relations(), None))
    emit("rho_B_algebra_map",
         "there is a (unique) B-coaction rho_S making S^-1 E a comodule algebra",
         lambda ch: (not ch.rho_B.check_relations(), None))
    # the maps each law applies to a product: rho_B_restricts rho_B (on
    # iota(m)), iota and pi (in iota x pi); gamma_comodule_map rho_B (on
    # gamma(m)) and gamma (in gamma x id)
    emit("rho_B_restricts",
         "the localization map is a map of B-comodule algebras",
         lambda ch: generator_law(
             G, [ch.rho_B, ch.iota, pi],
             (lambda p: ch.rho_B(ch.iota(p)),
              lambda p: apply_tensor_map(HG.delta(p),
                                         [ch.iota.image, pi.image],
                                         ch.target))))
    emit("coinv_gen_invariant", "localized coinvariants: rho_S(e) = e x 1",
         lambda ch: (is_weight_vector(ch, ch.coinv_gen, B.one()), None))
    emit("gauss_product", "decomposition of matrix T in the form wUA",
         lambda ch: (ch.gauss.verified, None))
    emit("gauss_w_unique",
         "only one permutation matrix admits the decomposition in this chart",
         lambda ch: (not ch.gauss.other_w_solvable, None))
    emit("gamma_unique_in_ansatz",
         "the Gauss-ansatz constraint system has a unique solution",
         lambda ch: (ch.gamma_unique, None))
    emit("gamma_algebra_map",
         "gamma_lambda : B -> S_lambda^-1 E comodule algebra maps",
         lambda ch: (not ch.gamma.check_relations(), None))
    # A11 is a monomial on both charts, so gamma inverts it by itself; the
    # solved image delta A^2_2 is the ansatz's own claim to be that inverse
    emit("gamma_lambda_inverses",
         "gamma(lambda) gamma(lambda^-1) = 1 = gamma(lambda^-1) gamma(lambda)",
         lambda ch: (inverts_gamma_lambda(ch, ch.gamma_lambda_inv), None))
    emit("gamma_comodule_map", "rho_S gamma = (gamma x id) Delta_B",
         lambda ch: generator_law(
             B, [ch.rho_B, ch.gamma],
             (lambda w: ch.rho_B(ch.gamma(w)),
              lambda w: apply_tensor_map(HB.delta(w), [ch.gamma.image, None],
                                         ch.target))))
    emit("gamma_chi_weight",
         "rho_B(gamma(chi)) = gamma(chi) x chi for chi = lambda^-n",
         lambda ch: first_n_failing(lambda n: is_weight_vector(
             ch, ch.gamma_chi(n), B.gen("lambda", -n))))
    if which == "d":
        emit("gamma_chi_is_dn",
             "gamma_d(lambda^-1) = d, so gamma_d(chi) = d^n",
             lambda ch: first_n_failing(
                 lambda n: ch.gamma_chi(n) == ch.alg.gen("d", n)))

    def weight_inversion(ch):
        rep = extend_coaction_report(ch)
        return (rep["weight_inversion_consistent"] and rep["product_is_unit"],
                rep["computed"])

    emit("inverted_weight_inversion",
         "rho_B on the inverted generator inverts the weight "
         "(the printed lambda^-1 weight fails)", weight_inversion)
    return checks


def cover_equalizer(degree: int):
    """Exactness of 0 -> G -> G_b x G_d => G_bd on the degree slice.

    Injectivity: no nonzero f with iota_b(f) = iota_d(f) = 0.  Gluing:
    every agreeing pair from the chart slices retracts to a unique f in G.
    The gluing verdict is computed once in G_bd and printed under both
    order names (`order_bd`, `order_db`): the two orders of the
    consecutive localization coincide because b and d q-commute, so the
    second record repeats the first and cannot fail on its own.
    """
    G = STD.G

    def injective():
        cov = cover()
        return not linalg.kernel_basis([
            linalg.column({"b": cov.b.iota(p), "d": cov.d.iota(p)})
            for p in basis_words(G, degree)]), None

    count = []  # the number of agreeing pairs, once the gluing has them

    def gluing():
        cov = cover()
        pairs = cov.glued_pairs(basis_words(cov.b.alg, degree),
                                basis_words(cov.d.alg, degree), 0)
        count.append(len(pairs))
        for f_b, f_d in pairs:
            try:
                f = retract(f_b, G)
            except DomainError:
                return False, f"pair does not retract to G: ({f_b}, {f_d})"
            if cov.d.iota(f) != f_d or cov.b.iota(f) != f_b:
                return False, f"retraction mismatch for ({f_b}, {f_d})"
        return True, None

    bd, db = ("the fork diagram is an equalizer diagram (consecutive "
              f"localization order {order}; both factor through G_bd since "
              "b,d q-commute)" for order in ("b,d", "d,b"))
    glue = attempt(f"cover.gluing_deg{degree}_order_bd", bd, gluing)
    return [
        attempt(f"cover.injectivity_deg{degree}",
                "0 -> M -> prod S_lambda^-1 M is exact", injective),
        glue,
        check(f"cover.gluing_deg{degree}_order_db", glue["status"] == "pass",
              db, glue.get("witness")),
        check(f"cover.gluing_pairs_deg{degree}", bool(count),
              "gluing dimension record",
              f"{count[0]} agreeing pairs, all from G" if count
              else glue["witness"], keep_witness=True)]
