"""The Haar integral as `qsu2.haar.haar` computed it before it summed
against Laurent weights: each (bc)^r coefficient times the rational moment
(-q^-1)^r int zeta^r, with int zeta^r = (1 - q^-2)/(1 - q^-2(r+1)) formed
here, added to a running rational total, so every term runs its own
polynomial gcd.

It is kept here only as an oracle for `haar` (tests/test_haar.py), so it
shares neither the Jackson weight table nor the single division with the
code under test.
"""

from __future__ import annotations

from qsu2.ncalg import NCPoly
from qsu2.scalars import ONE, ZERO, q_pow


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
