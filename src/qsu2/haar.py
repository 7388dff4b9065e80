"""The Woronowicz Haar integral on SU_q(2).

With respect to the basis decomposition of G, the integral vanishes off the
span of the (bc)^r monomials, where it is the Jackson integral in base q^-2
of a polynomial in zeta = -q b c:

    int zeta^r = (1 - q^-2) / (1 - q^-2(r+1)),

which equals q^r / [r+1]_q in the symmetric q-integer convention (note the
positive power; two-sided invariance, checked below, forces it).  `haar`
reads c (bc)^r as the coefficient c (-q)^-r of zeta^r and calls
`scalars.jackson_q_integral_01`, whose `_jackson_weights` (cached per
(base, highest r), and read from one lcm chain of denominators per base,
`_jackson_lcm`, by exact division) is the one weight table: one division,
so one gcd, per integrand.  The functional is defined on G only:
integrands living in a localization must first be rewritten into the
image of G.

`pair(m, m2)` = h(m m2^*) on two monomials of G is the one cache of Haar
values.  By linearity h(x y^*) is the sum of c c' pair(m, m2) over the
terms c m of x and c' m2 of y (star fixes the real scalars Q(q)): that is
`integral(x, y)`, the bilinear form behind the resolution, Theorem 4 and
the Lemma.  Positivity and invariance (h(m) = pair(m, 1)) read the table.

Live weights.  The relations of G are homogeneous for the torus bigrading
(`comod.torus_weight`) and never raise the degree, so an element that is
homogeneous of weight w and has degree <= D is a combination of the basis
monomials of weight w and degree <= D.  It integrates to an exact zero
unless w is live at D: the weight of some basis monomial m of degree <= D
with h(m) = pair(m, 1) nonzero (`_live_weights(D)`).  For the Haar state
only (0, 0) is live; a functional installed in place of `haar` may have
more.  `verify_positivity` integrates a pair m_i m_j^* of basis monomials
of degree <= D (weight w(m_i) - w(m_j), since star negates the weight)
only where that weight is live at 2D, and `verify_invariance` applies
Delta to a monomial only where a leg's weight can meet a live one.  Every
probe value is an entry of `pair`, so one table holds it and it is
computed once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .comod import torus_weight
from .hopf import basis_words, hopf_G, law_check
from .ncalg import DomainError, NCPoly, STD, apply_tensor_map, star
from .report import check
from .scalars import (ONE, QRational, QScalar, ZERO, jackson_q_integral_01,
                      q_number, q_pow, q_shift)

__all__ = [
    "haar",
    "integral",
    "pair",
    "verify_invariance",
    "verify_positivity",
    "zeta_moment_closed_form_report",
]


def _require_G(*ps: NCPoly):
    if any(p.alg is not STD.G for p in ps):
        raise DomainError(
            "the Haar integral is defined on G only; retract localized "
            "integrands into the image of G first")


def haar(p: NCPoly) -> QScalar:
    """The normalized two-sided Haar integral of an element of G: the
    Jackson integral of its (bc)^r terms (module docstring)."""
    _require_G(p)
    f = []
    for (k, r, s, t), c in p.terms.items():
        if not (k or t or r != s):
            f += [ZERO] * (r + 1 - len(f))
            f[r] = q_shift(-c if r & 1 else c, -r)
    return jackson_q_integral_01(f, q_pow(-2))


@functools.cache
def pair(m, m2) -> QScalar:
    """h(m m2^*) for monomials m and m2 of G (exponent tuples).  It calls
    `haar` by its module-global name, so a functional installed there is
    the one integrated; a caller that installs one clears this cache
    around it."""
    G = STD.G
    return haar(NCPoly(G, {m: ONE}) * star(NCPoly(G, {m2: ONE})))


def integral(x: NCPoly, y: NCPoly) -> QScalar:
    """h(x y^*) = sum c c' pair(m, m') over the terms c m of x and c' m' of
    y.  m m'^* has torus weight w(m) - w(m') (star negates the weight), and
    only the pairs of equal weight are integrated; the rest are exact zero
    with no product formed.

    Precondition: the functional vanishes off weight (0, 0), as the Haar
    state does.  No live weight is probed here (module docstring): at the
    degrees of the resolution curve a probe costs more than the integral.
    A functional installed in place of `haar` that is nonzero on another
    weight is therefore integrated as if it were not."""
    _require_G(x, y)
    ys = [(torus_weight(m2), m2, c2) for m2, c2 in y.terms.items()]
    total = ZERO
    for m, c in x.terms.items():
        w = torus_weight(m)
        for w2, m2, c2 in ys:
            if w2 == w:
                total = total + c * c2 * pair(m, m2)
    return total


def zeta_moment_closed_form_report():
    """Compare int zeta^r against q^r/[r+1] and q^-r/[r+1], r = 0..6.

    int zeta^r = (-q)^r h((bc)^r) is read from `pair`, so the installed
    functional is compared.  The positive power matches; the negative-power
    variant (the misprint family of the q^-n resolution display) fails for
    r >= 1.
    """
    unit, = STD.G.one().terms
    rows = []
    for r in range(7):
        v = q_shift(pair((0, r, r, 0), unit), r) * (-1) ** r
        plus = q_pow(r) / q_number(r + 1)
        minus = q_pow(-r) / q_number(r + 1)
        rows.append({"r": r, "value": str(v),
                     "matches_q^r/[r+1]": v == plus,
                     "matches_q^-r/[r+1]": v == minus})
    return {
        "all_match_positive_power": all(x["matches_q^r/[r+1]"] for x in rows),
        "negative_power_fails_from_r1": not rows[1]["matches_q^-r/[r+1]"],
        "rows": rows,
    }


def _delta_keeps_weights(HG) -> bool:
    """The premise of the invariance gate, read on Delta as installed:
    every term m1 (x) m2 of Delta(g), for each generator g of G, has
    w_L(m1) = w_L(g), w_R(m2) = w_R(g) (`comod.torus_weight`) and legs of
    degree <= 1."""
    G = STD.G
    for g in G.gens:
        p = G.gen(g)
        (mono, _), = p.terms.items()
        w = torus_weight(mono)
        for term in HG.delta(p).terms:
            m1, m2 = HG.T2.split_mono(term)
            if (torus_weight(m1)[0] != w[0] or torus_weight(m2)[1] != w[1]
                    or G.mono_degree(m1) > 1 or G.mono_degree(m2) > 1):
                return False
    return True


def _live_weights(degree: int):
    """The torus weights of the basis monomials m of G of degree <= `degree`
    with h(m) = pair(m, 1) nonzero: the live weights of the module
    docstring."""
    G = STD.G
    unit, = G.one().terms
    return {torus_weight(mono) for mono in G.basis_monomials(degree)
            if pair(mono, unit)}


def verify_invariance(degree: int):
    """(id x int)Delta(m) = (int m) 1 = (int x id)Delta(m) on all basis
    monomials up to the degree.

    Gated by the live weights at `degree` (module docstring).  Delta is an
    algebra map and the relations of G are homogeneous, so once the premise
    `_delta_keeps_weights` holds on the generators, every term m1 (x) m2 of
    Delta(m) has w_L(m1) = w_L(m), w_R(m2) = w_R(m) and legs of degree
    <= deg m.  Then (id x int)Delta(m) vanishes unless w_R(m) is the second
    weight of a live weight, and (int x id)Delta(m) unless w_L(m) is the
    first, so Delta is applied only there.  The other side, (int m) 1, is
    read as pair(m, 1), an exact zero off the live weights, so a gated
    monomial cannot fail and the witness is the first failing monomial, as
    without the gate.  When the premise fails, every weight counts as
    live."""
    G = STD.G
    HG = hopf_G()
    unit, = G.one().terms

    @functools.cache
    def live():
        # read in each law's body, so a functional that raises fails both
        if _delta_keeps_weights(HG):
            return _live_weights(degree)
        return {torus_weight(mono) for mono in G.basis_monomials(degree)}

    def h_K(mono):  # h(m 1^*) in the ground algebra K: a factor drops out
        return STD.K.scalar(pair(mono, unit))

    def law(images, side):
        def integrated(p):
            mono, = p.terms
            if torus_weight(mono)[side] not in {w[side] for w in live()}:
                return G.zero()
            return apply_tensor_map(HG.delta(p), images, G)
        return lambda: law_check(G, degree, (integrated, constant))

    def constant(p):
        mono, = p.terms
        return G.scalar(pair(mono, unit))

    return [check(f"haar.left_invariance_deg{degree}",
                  "(id x int) Delta(a) = (int a) 1_H", law([None, h_K], 1)),
            check(f"haar.right_invariance_deg{degree}",
                  "two-sided invariance of the Haar state",
                  law([h_K, None], 0))]


def verify_positivity(q0: QRational, degree: int):
    """specialize(int(f f*), q0) > 0 for every nonzero f of degree <= degree.

    f = sum c_i m_i over the basis monomials m_i, with real c_i (star fixes
    Q(q), and q0 is real), has int(f f*) = c^T S c for the symmetrized
    moment matrix S of [int(m_i m_j*)](q0).  So the claim holds iff S is
    positive definite, which an exact LDL^T decides: every pivot must be
    positive (Sylvester's criterion).  A failure names the monomial at the
    first pivot that is not.

    The entries are integrated by weight: an entry is read from the table
    `pair` only when its weight is live at twice the degree (module
    docstring), and every other entry is an exact zero, so the matrix is
    the one all N^2 integrals give.  Indices i and j are connected when
    w_i - w_j or w_j - w_i is live; S vanishes between connected
    components, so the LDL^T runs within each component only, in the same
    pivot order, and its first pivot that is not positive, the failure's
    witness, is the one the full LDL^T meets first.  The sum skips the
    terms whose factor L[i][k] D[k] or L[j][k] D[k] is zero.  A q0 outside
    (0, 1) fails; `suites.run_suite` refuses one before any suite runs.
    """
    def positive():
        if not (0 < q0 < 1):
            return False, "positivity regime requires 0 < q0 < 1"
        basis = basis_words(STD.G, degree)
        if not basis:
            return None, f"no basis monomial of degree <= {degree}"
        live = _live_weights(2 * degree)
        monos = [mono for m in basis for mono in m.terms]
        weights = [torus_weight(mono) for mono in monos]

        def linked(w, w2):
            return ((w[0] - w2[0], w[1] - w2[1]) in live
                    or (w2[0] - w[0], w2[1] - w[1]) in live)

        # union-find on the distinct weights; each index lists its
        # component in ascending order
        root = {w: w for w in weights}

        def find(w):
            while root[w] != w:
                w = root[w]
            return w

        for w in root:
            for w2 in root:
                if linked(w, w2):
                    root[find(w2)] = find(w)
        members = {}
        for i, w in enumerate(weights):
            members.setdefault(find(w), []).append(i)

        def moment(i, j):
            return (pair(monos[i], monos[j]).specialize(q0)
                    if (weights[i][0] - weights[j][0],
                        weights[i][1] - weights[j][1]) in live
                    else Fraction(0))

        # L[i][j] D[j] for j <= i in the component of i, row by row
        LD = {}
        for i, w in enumerate(weights):
            comp = members[find(w)]
            for j in comp:
                if j > i:
                    break
                LD[i, j] = (moment(i, j) + moment(j, i)) / 2 - sum(
                    (LD[i, k] * LD[j, k] / LD[k, k] for k in comp
                     if k < j and LD[i, k] and LD[j, k]), Fraction(0))
            if LD[i, i] <= 0:
                return False, (str(basis[i]), str(LD[i, i]))
        return True, None

    return [check(f"haar.positivity_q{q0}",
                  "the Haar state is positive (unitarity behind the "
                  "resolution formula)", positive)]
