"""The Woronowicz Haar integral on SU_q(2).

With respect to the basis decomposition of G, the integral vanishes off the
span of the (bc)^r monomials and takes the value

    int zeta^r = (1 - q^-2) / (1 - q^-2(r+1)),   zeta = -q b c,

which equals q^r / [r+1]_q in the symmetric q-integer convention (note the
positive power; two-sided invariance, checked below, forces it).  The
functional is defined on G only: integrands living in a localization must
first be rewritten into the image of G.
"""

from __future__ import annotations

import functools
import random

from .hopf import first_failing_word, hopf_G
from .ncalg import (DomainError, NCPoly, STD, apply_tensor_map,
                    normal_form_of_word, random_word, star)
from .report import check
from .scalars import ONE, QRational, QScalar, ZERO, q_number, q_pow

__all__ = [
    "haar",
    "zeta_moment",
    "verify_invariance",
    "verify_positivity",
    "zeta_moment_closed_form_report",
]

@functools.cache
def zeta_moment(r: int) -> QScalar:
    """int zeta^r = (1 - q^-2)/(1 - q^-2(r+1))."""
    return (ONE - q_pow(-2)) / (ONE - q_pow(-2 * (r + 1)))


def haar(p: NCPoly) -> QScalar:
    """The normalized two-sided Haar integral of an element of G."""
    if p.alg is not STD.G:
        raise DomainError(
            "the Haar integral is defined on G only; retract localized "
            "integrands into the image of G first")
    total = ZERO
    for (k, r, s, t), c in p.terms.items():
        if k or t or r != s:
            continue
        # (bc)^r = (-q^-1 zeta)^r
        v = zeta_moment(r) * q_pow(-r)
        if r % 2:
            v = -v
        total = total + c * v
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


@functools.cache
def _haar_K(mono) -> NCPoly:
    """The Haar integral of one monomial of G as an element of the ground
    algebra K, so that `apply_tensor_map` can integrate one tensor factor
    away.  Shared: callers only read it."""
    return STD.K.scalar(haar(NCPoly(STD.G, {mono: ONE})))


def verify_invariance(degree: int):
    """(id x int)Delta(m) = (int m) 1 = (int x id)Delta(m) on all basis
    monomials up to the degree."""
    G = STD.G
    HG = hopf_G()
    basis = [NCPoly(G, {mono: ONE}) for mono in G.basis_monomials(degree)]

    def integrate(images):
        return lambda p: apply_tensor_map(HG.delta(p), images, G)

    def integral(p):
        return G.scalar(haar(p))

    bad_left = first_failing_word(basis, (integrate([None, _haar_K]), integral))
    bad_right = first_failing_word(basis, (integrate([_haar_K, None]), integral))
    return [check(f"haar.left_invariance_deg{degree}", bad_left is None,
                  "(id x int) Delta(a) = (int a) 1_H", bad_left),
            check(f"haar.right_invariance_deg{degree}", bad_right is None,
                  "two-sided invariance of the Haar state", bad_right)]


def verify_positivity(q0: QRational, samples: int, degree: int, seed: int = 0):
    """specialize(int(f f*), q0) > 0 for random nonzero f."""
    if not (0 < q0 < 1):
        raise DomainError("positivity regime requires 0 < q0 < 1")
    rng = random.Random(seed)
    G = STD.G
    bad = None
    checked = 0
    while checked < samples:
        f = G.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + normal_form_of_word(G, random_word(G, rng, degree)) \
                * rng.choice([1, -1, 2]) * q_pow(rng.randint(-1, 1))
        if f.is_zero():
            continue
        checked += 1
        v = haar(f * star(f)).specialize(q0)
        if v <= 0:
            bad = (str(f), str(v))
            break
    return [check(f"haar.positivity_q{q0}", bad is None,
                  "the Haar state is positive (unitarity behind "
                  "the resolution formula)", bad)]
