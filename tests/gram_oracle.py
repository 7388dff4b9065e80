"""Three Gram forms that `qsu2.comod.solve_coinvariant_gram` computed
before it took the weights from the q-Pascal rows of its Manin steps, kept
here only as oracles for the Gram solve (tests/test_comod.py).

- The m^3 form: every product t[i][k]* t[i][l] for all m^3 index triples,
  one Haar call per (i, k) with the rational results added, and the
  coinvariance identity certified on the normalized diagonal itself, for
  every (k, l).
- The fraction-free form: the products for k <= l only, keyed in row-major
  order, one Haar call per k on the summed diagonal products, and the
  identity certified on the diagonal times the lcm of its denominators,
  whose entries are Laurent polynomials in q.
- The antipode read-off (`read_off_diag`): w_0 = 1 and each w_i read off
  one common monomial of t[i][0]* and S(t[0][i]).

The two Haar forms certify the sum_i w_i t[i][k]* t[i][l] = delta_kl w_k
form of the identity, which needs products of two degree-n elements.
`unitarity_defect` is the equivalent w_i t[i][k]* = w_k S(t[k][i]) on all
m^2 pairs, which the engine checked on V_n for every n after the read-off;
the engine now checks it on V_1 alone, the base of its induction.
"""

from __future__ import annotations

from qsu2.comod import VnComodule
from qsu2.haar import haar
from qsu2.hopf import hopf_G
from qsu2.ncalg import STD, DomainError, NCPoly, star
from qsu2.scalars import ONE, QScalar, ZERO


def star_first_products(n: int):
    """P[i][k][l] = t[i][k]* t[i][l] over the coaction matrix t of V_n."""
    t = VnComodule(n).coaction_matrix
    m = n + 1
    tstar = [[star(x) for x in row] for row in t]
    return [[[tstar[i][k] * t[i][l] for l in range(m)] for k in range(m)]
            for i in range(m)]


def coinvariance_defect(products, diag):
    """The first (k, l) where sum_i diag[i] t[i][k]* t[i][l] differs from
    diag[k] delta_kl 1, or None when the diagonal form is coinvariant."""
    G = STD.G
    m = len(diag)
    for k in range(m):
        for l in range(m):
            total = sum((products[i][k][l] * diag[i] for i in range(m)),
                        G.zero())
            if total != (G.scalar(diag[k]) if k == l else G.zero()):
                return k, l
    return None


def gram_diag(n: int):
    """The normalized Haar average sum_i h(t[i][k]* t[i][k]), k = 0..n."""
    products = star_first_products(n)
    m = n + 1
    raw = [sum((haar(products[i][k][k]) for i in range(m)), ZERO)
           for k in range(m)]
    return [r / raw[0] for r in raw]


def products_k_le_l(n: int):
    """P[k, l][i] = t[i][k]* t[i][l] over the coaction matrix t of V_n, for
    k <= l only, keyed in row-major order."""
    t = VnComodule(n).coaction_matrix
    m = n + 1
    tstar = [[star(x) for x in row] for row in t]
    return {(k, l): [tstar[i][k] * t[i][l] for i in range(m)]
            for k in range(m) for l in range(k, m)}


def laurent_weights(diag):
    """diag times the lcm of its q-free denominators: the same form, with
    every entry a Laurent polynomial in q (den 1)."""
    lcm = ONE
    for d in diag:
        # the den of d * lcm is den(d) / gcd(den(d), lcm)
        lcm = lcm * QScalar((d * lcm).den)
    return [d * lcm for d in diag]


def laurent_defect(products, weights):
    """The first (k, l), k <= l in row-major order, where
    sum_i weights[i] t[i][k]* t[i][l] differs from weights[k] delta_kl 1,
    or None when the diagonal form is coinvariant.

    The pairs k > l need no check: star is an antimultiplicative involution
    and fixes the real weights, so the (l, k) sum is the star of the (k, l)
    sum.  With Laurent weights and Laurent products no scalar product here
    runs a gcd.
    """
    G = STD.G
    for (k, l), column in products.items():
        acc = {}
        for p, w in zip(column, weights):
            for m, c in p.terms.items():
                acc[m] = acc.get(m, ZERO) + c * w
        total = NCPoly(G, {m: c for m, c in acc.items() if c})
        if total != (G.scalar(weights[k]) if k == l else G.zero()):
            return k, l
    return None


def haar_solve(n: int):
    """The Gram diagonal of V_n as the Haar average of the identity,
    normalized so <y^n|y^n> = 1 and certified fraction-free on the k <= l
    products; raises DomainError if the average vanishes on y^n or the
    certificate fails."""
    products = products_k_le_l(n)
    G = STD.G
    raw = [haar(sum(products[k, k], G.zero())) for k in range(n + 1)]
    if raw[0].is_zero():
        raise DomainError(f"the Haar average of <y^{n}|y^{n}> vanishes")
    diag = [r / raw[0] for r in raw]
    defect = laurent_defect(products, laurent_weights(diag))
    if defect is not None:
        raise DomainError(
            f"the Haar-averaged Gram form of V_{n} is not coinvariant at "
            f"(k, l) = {defect}")
    return diag


def read_off_diag(n: int):
    """The Gram diagonal of V_n read off the antipode: w_0 = 1 and each w_i
    the ratio of the coefficients of one common monomial of t[i][0]* and
    S(t[0][i]); raises DomainError when they share none."""
    t = VnComodule(n).coaction_matrix
    S = hopf_G().antipode
    diag = [ONE]
    for i in range(1, n + 1):
        lhs, rhs = star(t[i][0]), S(t[0][i])
        mono = next((m for m in lhs.terms if m in rhs.terms), None)
        if mono is None:
            raise DomainError(f"t[{i}][0]* and S(t[0][{i}]) share no monomial")
        diag.append(rhs.terms[mono] / lhs.terms[mono])
    return diag


def unitarity_defect(n: int, weights):
    """The first (i, k) of all m^2 pairs in row-major order with
    w_i t[i][k]* != w_k S(t[k][i]) over the coaction matrix t of V_n, or
    None, on the weights as given."""
    t = VnComodule(n).coaction_matrix
    S = hopf_G().antipode
    m = n + 1
    return next(((i, k) for i in range(m) for k in range(m)
                 if star(t[i][k]) * weights[i] != S(t[k][i]) * weights[k]),
                None)
