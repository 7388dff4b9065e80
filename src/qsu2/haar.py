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

Positivity runs on weight-matched pairs: `verify_positivity` integrates a
pair m_i m_j^* only where the functional is nonzero on some monomial of
its torus weight (`comod.torus_weight`), which for the Haar state is
weight (0, 0); every other entry of the moment matrix is an exact zero.
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
    the Haar state vanishes off weight (0, 0), so only the pairs of equal
    weight are integrated; the rest are exact zero with no product
    formed."""
    _require_G(x, y)
    ys = [(torus_weight(m2), m2, c2) for m2, c2 in y.terms.items()]
    total = ZERO
    for m, c in x.terms.items():
        w = torus_weight(m)
        for w2, m2, c2 in ys:
            if w2 == w:
                total = total + c * c2 * pair(m, m2)
    return total


def zeta_moment_closed_form_report(max_r: int = 6):
    """Compare int zeta^r against q^r/[r+1] and q^-r/[r+1].

    The positive power matches; the negative-power variant (the same
    misprint family as the q^-n resolution display) fails for r >= 1.
    """
    rows = []
    for r in range(max_r + 1):
        v = zeta_moment(r)
        plus = q_pow(r) / q_number(r + 1)
        minus = q_pow(-r) / q_number(r + 1)
        rows.append({"r": r, "value": str(v),
                     "matches_q^r/[r+1]": v == plus,
                     "matches_q^-r/[r+1]": v == minus})
    return {
        "all_match_positive_power": all(x["matches_q^r/[r+1]"] for x in rows),
        "negative_power_fails_from_r1": not rows[1]["matches_q^-r/[r+1]"]
        if max_r >= 1 else None,
        "rows": rows,
    }


def verify_invariance(degree: int):
    """(id x int)Delta(m) = (int m) 1 = (int x id)Delta(m) on all basis
    monomials up to the degree."""
    G = STD.G
    HG = hopf_G()
    unit, = G.one().terms

    def h_K(mono):  # h(m 1^*) in the ground algebra K: a factor drops out
        return STD.K.scalar(pair(mono, unit))

    def integrate(images):
        return lambda p: apply_tensor_map(HG.delta(p), images, G)

    def constant(p):
        return G.scalar(haar(p))

    return [law_check(f"haar.left_invariance_deg{degree}",
                      "(id x int) Delta(a) = (int a) 1_H", G, degree,
                      (integrate([None, h_K]), constant)),
            law_check(f"haar.right_invariance_deg{degree}",
                      "two-sided invariance of the Haar state", G, degree,
                      (integrate([h_K, None]), constant))]


def verify_positivity(q0: QRational, degree: int):
    """specialize(int(f f*), q0) > 0 for every nonzero f of degree <= degree.

    f = sum c_i m_i over the basis monomials m_i, with real c_i (star fixes
    Q(q), and q0 is real), has int(f f*) = c^T S c for the symmetrized
    moment matrix S of [int(m_i m_j*)](q0).  So the claim holds iff S is
    positive definite, which an exact LDL^T decides: every pivot must be
    positive (Sylvester's criterion).  A failure names the monomial at the
    first pivot that is not.

    The entries are integrated by weight.  m_i m_j^* is homogeneous of
    torus weight w(m_i) - w(m_j), since the relations of G are homogeneous
    and star negates the weight, and has degree <= 2 degree.  The checked
    premise: `haar` is evaluated once on every monomial of degree
    <= 2 degree, and an entry is read from the table `pair` only when its
    weight is one on which some monomial integrates to nonzero.  Every
    other entry is an exact Fraction(0), so the matrix is the one all N^2
    integrals give.
    Under the Haar state only weight (0, 0) survives; a functional that is
    nonzero on other weights (the counit, on every (k, k)) has those pairs
    integrated too, so nothing falls outside the gate.  The LDL^T sum skips
    the terms whose factor L[i][k] D[k] or L[j][k] D[k] is zero.
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
    # m_i m_j^* is homogeneous of weight w_i - w_j and degree <= 2 degree,
    # so it integrates to zero unless haar is nonzero on some monomial of
    # that weight and degree
    live = {torus_weight(mono) for p in basis_words(STD.G, 2 * degree)
            for mono in p.terms if haar(p)}
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
