"""The resolution operator, the Theorem-4 operator and the Lemma integrals
as `qsu2.coherent` computed them before it read torus weights and
integrated term pairs from the table `haar.pair`, kept here only as oracles
(tests/test_coherent.py, tests/test_suites.py): every entry integrates the
full product, whatever the weights of its factors, from either chart."""

from __future__ import annotations

from qsu2 import coherent
from qsu2.comod import VnComodule
from qsu2.haar import haar
from qsu2.ncalg import star


def matrix(ch, n: int):
    """[int r_i r_k^* g_k] over the r_i of the chart `ch`, all (n+1)^2
    products formed and integrated."""
    r = coherent.assembled_coefficients(ch, n)
    g = coherent.gram(n)
    m = n + 1
    return [[haar(r[i] * star(r[k])) * g.diag[k] for k in range(m)]
            for i in range(m)]


def theorem4_matrix(n: int, w_vec):
    """[int w_j w_k^* g_k] over the components w_j of rho(w), w the vector
    w_vec of V_n, all (n+1)^2 products formed and integrated."""
    w = VnComodule(n).components(w_vec)
    g = coherent.gram(n)
    m = n + 1
    return [[haar(w[j] * star(w[k])) * g.diag[k] for k in range(m)]
            for j in range(m)]


def lemma_integral(i: int, j: int, n: int):
    """int u^i d^n (u^j d^n)^* from the full product."""
    return haar(coherent._lemma_side(i, n)
                * star(coherent._lemma_side(j, n)))
