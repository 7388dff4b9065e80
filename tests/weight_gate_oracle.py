"""`weight_slice`, `verify_positivity` and `verify_invariance` as
`qsu2.charts` and `qsu2.haar` ran them before they read the torus
bigrading, kept here only as oracles (tests/test_charts.py,
tests/test_haar.py).

The engine gates each by weight: `charts.weight_slice` solves on one right
weight once `_graded_by_right_weight` holds on `basis_words(alg, 1)`, and
the Haar checks read one probe, `haar._live_weights(D)`, the weights of
the basis monomials m of degree <= D with pair(m, 1) nonzero (positivity
at 2D, invariance at D, where only the Delta side is gated).  Here
`weight_slice` builds a kernel column for every canonical monomial up to
the degree.  `verify_positivity` integrates all N^2 products m_i m_j^* and
runs the LDL^T sum over every k.  `verify_invariance` applies Delta to
every basis monomial up to the degree and reads (int m) 1 from `haar`.
They look up `charts.coaction_B`, `haar.haar`, `haar.pair` and
`hopf_G().delta` when called, so a test that installs a faulty coaction,
functional or coproduct reaches the oracle as well as the code under test.

`homogeneous_weight` describes an integrand by its torus bigrading
(tests/test_haar.py, tests/test_suites.py).
"""

from __future__ import annotations

import importlib
from fractions import Fraction

from qsu2 import charts, linalg
from qsu2.comod import torus_weight
from qsu2.hopf import basis_words, hopf_G, law_check
from qsu2.ncalg import NCPoly, STD, apply_tensor_map, star, tensor_elem
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
        return [check(name, anchor, lambda: (
            None, f"no basis monomial of degree <= {degree}"))]
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
    return [check(name, anchor, lambda: (bad is None, bad))]


def verify_invariance(degree):
    """(id x int)Delta(m) = (int m) 1 = (int x id)Delta(m) on all basis
    monomials up to the degree."""
    G = STD.G
    HG = hopf_G()
    unit, = G.one().terms

    def h_K(mono):  # h(m 1^*) in the ground algebra K: a factor drops out
        return STD.K.scalar(haar_module.pair(mono, unit))

    def integrate(images):
        return lambda p: apply_tensor_map(HG.delta(p), images, G)

    def constant(p):
        return G.scalar(haar_module.haar(p))

    return [check(f"haar.left_invariance_deg{degree}",
                  "(id x int) Delta(a) = (int a) 1_H",
                  lambda: law_check(G, degree,
                                    (integrate([None, h_K]), constant))),
            check(f"haar.right_invariance_deg{degree}",
                  "two-sided invariance of the Haar state",
                  lambda: law_check(G, degree,
                                    (integrate([h_K, None]), constant)))]


def homogeneous_weight(p):
    """The torus weight every monomial of p has, or None when p is zero or
    mixes weights."""
    weights = {torus_weight(mono) for mono in p.terms}
    return weights.pop() if len(weights) == 1 else None
