from qsu2.hopf import (chi, hopf_B, hopf_G, is_group_like, pi_map,
                       verify_hopf, verify_pi_hopf_map)
from qsu2.ncalg import NCPoly, STD, parse_element, tensor_elem
from qsu2.scalars import ONE, q_pow

G, B = STD.G, STD.B
HG, HB = hopf_G(), hopf_B()


def test_coproduct_unit():
    assert HG.delta(G.one()) == HG.T2.one()


def test_coproduct_a():
    expect = (tensor_elem(HG.T2, [G.gen("a"), G.gen("a")])
              + tensor_elem(HG.T2, [G.gen("b"), G.gen("c")]))
    assert HG.delta(G.gen("a")) == expect


def test_coproduct_lambda_inv_grouplike():
    lam_inv = B.gen("lambda", -1)
    assert HB.delta(lam_inv) == tensor_elem(HB.T2, [lam_inv, lam_inv])


def test_counit():
    assert HG.counit(parse_element("a d", G)) == ONE
    assert HG.counit(G.gen("b")) == 0


def test_antipode_derived_values():
    assert HG.antipode(G.gen("a")) == G.gen("d")
    assert HG.antipode(G.gen("d")) == G.gen("a")
    assert HG.antipode(G.gen("b")) == G.gen("b") * (-q_pow(-1))
    assert HG.antipode(G.gen("c")) == G.gen("c") * (-q_pow(1))
    assert HG.antipode_unique


def test_antipode_borel():
    assert HB.antipode(B.gen("lambda")) == B.gen("lambda", -1)
    assert HB.antipode(B.gen("xi")) == B.gen("xi") * (-q_pow(1))


def test_group_like():
    assert is_group_like(HB, B.gen("lambda", -3))
    assert is_group_like(HB, B.one())
    assert not is_group_like(HB, B.gen("lambda") + B.gen("xi"))
    assert chi(2).element == B.gen("lambda", -2)


def test_coassociativity_on_basis():
    from qsu2.ncalg import apply_tensor_map
    for mono in G.basis_monomials(5):
        p = NCPoly(G, {mono: ONE})
        dp = HG.delta(p)
        assert (apply_tensor_map(dp, [HG.delta, None], HG.T3)
                == apply_tensor_map(dp, [None, HG.delta], HG.T3))


def test_verify_hopf_passes():
    for which in ("G", "B"):
        checks = verify_hopf(which, degree=4, samples=40, seed=1)
        assert all(c["status"] != "fail" for c in checks), checks


def test_borel_star_reported_skipped():
    checks = verify_hopf("B", degree=3, samples=5, seed=0)
    skips = [c for c in checks if c["status"] == "skip"]
    assert any("star" in c["name"] for c in skips)


def test_corrupted_delta_fails_with_witness():
    checks = verify_hopf("G", degree=3, samples=10, seed=2,
                         corrupt_delta=True)
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed
    assert any("witness" in c for c in failed)


def test_pi_is_hopf_map():
    checks = verify_pi_hopf_map(degree=5)
    assert all(c["status"] == "pass" for c in checks)


def test_pi_images():
    pi = pi_map()
    assert pi(G.gen("a")) == B.gen("lambda")
    assert pi(G.gen("b")) == B.zero()
    assert pi(G.gen("d")) == B.gen("lambda", -1)
