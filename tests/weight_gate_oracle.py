"""`weight_slice` and `verify_positivity` as `qsu2.charts` and `qsu2.haar`
ran them before they read the torus bigrading, kept here only as oracles
(tests/test_charts.py, tests/test_haar.py).

`weight_slice` builds a kernel column for every canonical monomial up to
the degree.  `verify_positivity` integrates all N^2 products m_i m_j^* and
runs the LDL^T sum over every k.  Both look up `charts.coaction_B` and
`haar.haar` when called, so a test that installs a faulty coaction or
functional reaches the oracle as well as the code under test.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

from qsu2 import charts, linalg
from qsu2.hopf import basis_words
from qsu2.ncalg import NCPoly, STD, star, tensor_elem
from qsu2.report import check
from qsu2.scalars import ONE

# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


def weight_slice(alg, chi, degree):
    """Basis of {p in alg : rho_B(p) = p (x) chi} on the canonical monomials
    up to degree: the kernel of rho_B - (. x chi)."""
    rho = charts.coaction_B(alg)
    monos = alg.basis_monomials(degree)
    columns = []
    for m in monos:
        p = NCPoly(alg, {m: ONE})
        columns.append((rho(p) - tensor_elem(rho.target, [p, chi])).terms)
    return [NCPoly(alg, {m: c for m, c in zip(monos, vec) if c})
            for vec in linalg.kernel_basis(columns)]


def verify_positivity(q0, degree):
    """The exact LDL^T of the symmetrized moment matrix
    [int(m_i m_j^*)](q0) on the basis monomials of degree <= `degree`."""
    name = f"haar.positivity_q{q0}"
    anchor = ("the Haar state is positive (unitarity behind the resolution "
              "formula)")
    basis = basis_words(STD.G, degree)
    if not basis:
        return [check(name, None, anchor,
                      f"no basis monomial of degree <= {degree}")]
    starred = [star(m) for m in basis]
    moments = [[haar_module.haar(m * s).specialize(q0) for s in starred]
               for m in basis]
    S = [[(x + y) / 2 for x, y in zip(row, col)]
         for row, col in zip(moments, zip(*moments))]
    LD = []
    bad = None
    for i, row in enumerate(S):
        LD.append([])
        for j in range(i + 1):
            v = row[j] - sum((LD[i][k] * LD[j][k] / LD[k][k]
                              for k in range(j)), Fraction(0))
            LD[i].append(v)
        if LD[i][i] <= 0:
            bad = (str(basis[i]), str(LD[i][i]))
            break
    return [check(name, bad is None, anchor, bad)]
