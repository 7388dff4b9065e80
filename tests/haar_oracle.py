"""The Haar integral as `qsu2.haar.haar` computed it before it summed
against Laurent weights: each (bc)^r coefficient times the rational moment
(-q^-1)^r int zeta^r, with int zeta^r = (1 - q^-2)/(1 - q^-2(r+1)) formed
here, added to a running rational total, so every term runs its own
polynomial gcd.

It is kept here only as an oracle for `haar` (tests/test_haar.py), so it
shares neither the Jackson weight table nor the single division with the
code under test.

`positivity` is the verdict of `haar.verify_positivity` as it was found
before the LDL^T ran within the components of linked weights: the gated
moment matrix on all N^2 entries and one LDL^T over every index.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

from qsu2.comod import torus_weight
from qsu2.hopf import basis_words
from qsu2.ncalg import NCPoly, STD
from qsu2.scalars import ONE, ZERO, q_pow

# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


def haar(p: NCPoly):
    """The normalized two-sided Haar integral of an element of G."""
    total = ZERO
    for (k, r, s, t), c in p.terms.items():
        if k or t or r != s:
            continue
        # (bc)^r = (-q^-1 zeta)^r
        v = (ONE - q_pow(-2)) / (ONE - q_pow(-2 * (r + 1))) * q_pow(-r)
        if r % 2:
            v = -v
        total = total + c * v
    return total


def positivity(q0, degree):
    """(ok, witness) of the positivity check at `degree`, for 0 < q0 < 1
    and a nonempty basis: every entry of a live weight difference read
    from `haar.pair`, the others zero, and one LDL^T over all indices."""
    basis = basis_words(STD.G, degree)
    live = haar_module._live_weights(2 * degree)
    monos = [mono for m in basis for mono in m.terms]
    weights = [torus_weight(mono) for mono in monos]
    moments = [[haar_module.pair(m, s).specialize(q0)
                if (wm[0] - ws[0], wm[1] - ws[1]) in live
                else Fraction(0) for s, ws in zip(monos, weights)]
               for m, wm in zip(monos, weights)]
    S = [[(x + y) / 2 for x, y in zip(row, col)]
         for row, col in zip(moments, zip(*moments))]
    LD = []
    for i, row in enumerate(S):
        LD.append([])
        for j in range(i + 1):
            v = row[j] - sum((LD[i][k] * LD[j][k] / LD[k][k]
                              for k in range(j) if LD[i][k] and LD[j][k]),
                             Fraction(0))
            LD[i].append(v)
        if LD[i][i] <= 0:
            return False, (str(basis[i]), str(LD[i][i]))
    return True, None
