"""The resolution operator, the Theorem-4 operator and the Lemma integrals
as `qsu2.coherent` computed them before it read torus weights and
integrated term pairs from the table `haar.pair`, kept here only as oracles
(tests/test_coherent.py, tests/test_suites.py, tests/test_acceptance.py):
every entry integrates the full product, whatever the weights of its
factors, from either chart.  Theorem 4 is decided here as `qsu2` decided it
before the orthogonality table, by polarization."""

from __future__ import annotations

import itertools

from qsu2 import coherent, comod
from qsu2.comod import NonScalarError, VnComodule, schur_scalar
from qsu2.haar import haar
from qsu2.ncalg import star
from qsu2.scalars import ONE, ZERO


def matrix(ch, n: int):
    """[int r_i r_k^* g_k] over the r_i of the chart `ch`, all (n+1)^2
    products formed and integrated."""
    r = coherent.assembled_coefficients(ch, n)
    g = comod.solve_coinvariant_gram(n)
    m = n + 1
    return [[haar(r[i] * star(r[k])) * g.diag[k] for k in range(m)]
            for i in range(m)]


def theorem4_matrix(n: int, w_vec):
    """[int w_j w_k^* g_k] over the components w_j of rho(w), w the vector
    w_vec of V_n, all (n+1)^2 products formed and integrated."""
    w = VnComodule(n).components(w_vec)
    g = comod.solve_coinvariant_gram(n)
    m = n + 1
    return [[haar(w[j] * star(w[k])) * g.diag[k] for k in range(m)]
            for j in range(m)]


def polarization_inputs(n: int):
    """e_i and e_i + e_i' of V_n for i <= i'."""
    m = n + 1
    for i, i2 in itertools.combinations_with_replacement(range(m), 2):
        yield [ONE if k in (i, i2) else ZERO for k in range(m)]


def theorem4_holds(n: int) -> bool:
    """Whether `theorem4_matrix(n, w)` is scalar at every polarization
    input w.  A(w) is quadratic in w (star is linear here), so by
    polarization it is scalar for every w iff it is at each of these."""
    try:
        for w in polarization_inputs(n):
            schur_scalar(theorem4_matrix(n, w), n)
    except NonScalarError:
        return False
    return True


def lemma_integral(i: int, j: int, n: int):
    """int u^i d^n (u^j d^n)^* from the full product."""
    return haar(coherent._lemma_side(i, n)
                * star(coherent._lemma_side(j, n)))
