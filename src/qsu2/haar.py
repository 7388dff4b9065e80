"""The Woronowicz Haar integral on SU_q(2).

With respect to the basis decomposition of G, the integral vanishes off the
span of the (bc)^r monomials and takes the value

    int zeta^r = (1 - q^-2) / (1 - q^-2(r+1)),   zeta = -q b c,

which equals q^r / [r+1]_q in the symmetric q-integer convention (note the
positive power; two-sided invariance, checked below, forces it).  `haar`
sums the (bc)^r coefficients against the moments times L, the lcm of their
denominators (Laurent polynomials, cached per highest r), and divides by L
once, so a Laurent integrand costs one polynomial gcd however many terms
it has.  The functional is defined on G only: integrands living in a
localization must first be rewritten into the image of G.

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
from .scalars import (ONE, QRational, QScalar, ZERO, denominator_lcm,
                      q_number, q_pow)

__all__ = [
    "haar",
    "integral",
    "pair",
    "zeta_moment",
    "verify_invariance",
    "verify_positivity",
    "zeta_moment_closed_form_report",
]

@functools.cache
def zeta_moment(r: int) -> QScalar:
    """int zeta^r = (1 - q^-2)/(1 - q^-2(r+1))."""
    return (ONE - q_pow(-2)) / (ONE - q_pow(-2 * (r + 1)))


@functools.cache
def _moment_weights(top: int):
    """(1/L, w) with w[r] = L (-q^-1)^r zeta_moment(r) for r = 0..top, where
    L is the lcm of the denominators, so every w[r] is a Laurent polynomial.
    Shared: callers only read it."""
    # (bc)^r = (-q^-1 zeta)^r
    moments = [zeta_moment(r) * q_pow(-r) * (-1) ** r for r in range(top + 1)]
    lcm = denominator_lcm(moments)
    return lcm.inverse(), [v * lcm for v in moments]


def _require_G(*ps: NCPoly):
    if any(p.alg is not STD.G for p in ps):
        raise DomainError(
            "the Haar integral is defined on G only; retract localized "
            "integrands into the image of G first")


def haar(p: NCPoly) -> QScalar:
    """The normalized two-sided Haar integral of an element of G.

    Only the (bc)^r terms contribute.  Their coefficients are summed
    against the Laurent weights of `_moment_weights` and the sum is divided
    by the common denominator once, so a Laurent integrand costs one
    polynomial gcd, not one per term."""
    _require_G(p)
    terms = [(r, c) for (k, r, s, t), c in p.terms.items()
             if not (k or t or r != s)]
    if not terms:
        return ZERO
    inv_lcm, weights = _moment_weights(max(r for r, _ in terms))
    total = ZERO
    for r, c in terms:
        total = total + c * weights[r]
    return total * inv_lcm


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

    The positive power matches; the negative-power variant (the same
    misprint family as the q^-n resolution display) fails for r >= 1.
    """
    rows = []
    for r in range(7):
        v = zeta_moment(r)
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
    if _delta_keeps_weights(HG):
        live = _live_weights(degree)
    else:
        live = {torus_weight(mono) for mono in G.basis_monomials(degree)}

    def h_K(mono):  # h(m 1^*) in the ground algebra K: a factor drops out
        return STD.K.scalar(pair(mono, unit))

    def integrate(images, side):
        weights = {w[side] for w in live}

        def integrated(p):
            mono, = p.terms
            if torus_weight(mono)[side] not in weights:
                return G.zero()
            return apply_tensor_map(HG.delta(p), images, G)
        return integrated

    def constant(p):
        mono, = p.terms
        return G.scalar(pair(mono, unit))

    return [law_check(f"haar.left_invariance_deg{degree}",
                      "(id x int) Delta(a) = (int a) 1_H", G, degree,
                      (integrate([None, h_K], 1), constant)),
            law_check(f"haar.right_invariance_deg{degree}",
                      "two-sided invariance of the Haar state", G, degree,
                      (integrate([h_K, None], 0), constant))]


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
    docstring), and every other entry is an exact Fraction(0), so the
    matrix is the one all N^2 integrals give.  The LDL^T sum skips the
    terms whose factor L[i][k] D[k] or L[j][k] D[k] is zero.
    """
    if not (0 < q0 < 1):
        raise DomainError("positivity regime requires 0 < q0 < 1")
    name = f"haar.positivity_q{q0}"
    anchor = ("the Haar state is positive (unitarity behind the resolution "
              "formula)")
    basis = basis_words(STD.G, degree)
    if not basis:
        return [check(name, None, anchor,
                      f"no basis monomial of degree <= {degree}")]
    live = _live_weights(2 * degree)
    monos = [mono for m in basis for mono in m.terms]
    weights = [torus_weight(mono) for mono in monos]
    moments = [[pair(m, s).specialize(q0)
                if (wm[0] - ws[0], wm[1] - ws[1]) in live else Fraction(0)
                for s, ws in zip(monos, weights)]
               for m, wm in zip(monos, weights)]
    S = [[(x + y) / 2 for x, y in zip(row, col)]
         for row, col in zip(moments, zip(*moments))]
    # L[i][j] D[j] for j < i, built row by row; a zero factor drops its term
    LD = []
    bad = None
    for i, row in enumerate(S):
        LD.append([])
        for j in range(i + 1):
            v = row[j] - sum((LD[i][k] * LD[j][k] / LD[k][k]
                              for k in range(j) if LD[i][k] and LD[j][k]),
                             Fraction(0))
            LD[i].append(v)
        if LD[i][i] <= 0:
            bad = (str(basis[i]), str(LD[i][i]))
            break
    return [check(name, bad is None, anchor, bad)]
