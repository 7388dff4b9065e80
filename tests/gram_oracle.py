"""The Haar-averaged Gram form as `qsu2.comod.solve_coinvariant_gram` built
it before its certificate became fraction-free: every product
t[i][k]* t[i][l] for all m^3 index triples, one Haar call per (i, k) with
the rational results added, and the coinvariance identity certified on the
normalized diagonal itself, for every (k, l).

It is kept here only as an oracle for the Gram solve (tests/test_comod.py),
so it shares neither the k <= l product layout nor the Laurent weights
with the code under test.
"""

from __future__ import annotations

from qsu2.comod import VnComodule
from qsu2.haar import haar
from qsu2.ncalg import STD, star
from qsu2.scalars import ZERO


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
