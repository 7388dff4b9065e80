import importlib
from fractions import Fraction

import pytest

from qsu2.haar import (haar, verify_invariance, verify_positivity,
                       zeta_moment, zeta_moment_closed_form_report)
from qsu2.hopf import hopf_G
from qsu2.ncalg import DomainError, NCPoly, STD, parse_element, star
from qsu2.scalars import ONE, Q, q_number, q_pow

G = STD.G
# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


def g(text):
    return parse_element(text, G)


def test_normalization():
    assert haar(G.one()) == ONE


def test_zeta_moment_r1():
    assert zeta_moment(1) == g("q^2/(q^2+1)").scalar_part()


def test_haar_dd_star():
    d = G.gen("d")
    v = haar(d * star(d))
    assert v == (Q ** 2 / (Q ** 2 + 1))
    assert v.specialize(Fraction(1, 2)) == Fraction(1, 5)


def test_haar_kills_complement():
    for text in ("a", "b", "c", "d", "a b", "b^2 c", "b c d"):
        assert haar(g(text)).is_zero()


def test_haar_bc():
    # int bc = -q^-1 int zeta
    assert haar(g("b c")) == zeta_moment(1) * (-q_pow(-1))


def test_invariance_example_a():
    # (id x int)Delta(a) = a int a + b int c = 0 = (int a) 1
    HG = hopf_G()
    dp = HG.delta(G.gen("a"))
    left = G.zero()
    for mono, c in dp.terms.items():
        m1, m2 = HG.T2.split_mono(mono)
        left = left + NCPoly(G, {m1: c * haar(NCPoly(G, {m2: ONE}))})
    assert left.is_zero()


def test_invariance_suite():
    checks = verify_invariance(4)
    assert all(c["status"] == "pass" for c in checks)


def test_invariance_fails_on_a_wrong_moment():
    moment = haar_module.zeta_moment
    haar_module._haar_K.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(haar_module, "zeta_moment",
                       lambda r: moment(r) + ONE if r == 2 else moment(r))
            left, right = verify_invariance(5)
    finally:
        haar_module._haar_K.cache_clear()
    assert left["status"] == right["status"] == "fail"
    assert left["witness"] == "c^2 d^2"
    assert right["witness"] == "b^2 d^2"


def test_positivity():
    checks = verify_positivity(Fraction(1, 2), samples=30, degree=3, seed=4)
    assert all(c["status"] == "pass" for c in checks)


def test_positivity_bb_star():
    b = G.gen("b")
    assert haar(b * star(b)).specialize(Fraction(1, 2)) == Fraction(1, 5)


def test_zeta_moments_vs_symmetric_q_integer():
    # int zeta^r = q^r/[r+1]_q; the q^-r variant is a misprint and fails
    rep = zeta_moment_closed_form_report(6)
    assert rep["all_match_positive_power"]
    assert rep["negative_power_fails_from_r1"]
    for r in range(7):
        assert zeta_moment(r) == q_pow(r) / q_number(r + 1)


def test_star_symmetry():
    # int(p*) = int p on basis monomials (real coefficients)
    for mono in G.basis_monomials(4):
        p = NCPoly(G, {mono: ONE})
        assert haar(star(p)) == haar(p)


def test_localized_argument_rejected():
    with pytest.raises(DomainError):
        haar(STD.Gd.gen("d", -1))
