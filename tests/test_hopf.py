import functools
import random

import pytest

import hopf_oracle
from qsu2 import charts, hopf
from qsu2.charts import chart, verify_chart
from qsu2.hopf import (_convolve_antipode, basis_words, hopf_B, hopf_G,
                       is_group_like, pi_map, verify_hopf, verify_pi_hopf_map)
from qsu2.ncalg import AlgebraMap, NCPoly, STD, parse_element, tensor_elem
from rewriting_oracle import (normal_form_of_word, random_word,
                              sample_words)
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


def test_coassociativity_on_basis():
    from qsu2.ncalg import apply_tensor_map
    for mono in G.basis_monomials(5):
        p = NCPoly(G, {mono: ONE})
        dp = HG.delta(p)
        assert (apply_tensor_map(dp, [HG.delta.image, None], HG.T3)
                == apply_tensor_map(dp, [None, HG.delta.image], HG.T3))


def test_verify_hopf_passes():
    for which in ("G", "B"):
        checks = verify_hopf(which)
        assert all(c["status"] != "fail" for c in checks), checks


def test_borel_star_reported_skipped():
    checks = verify_hopf("B")
    skips = [c for c in checks if c["status"] == "skip"]
    assert any("star" in c["name"] for c in skips)


def test_corrupted_delta_fails_with_witness():
    checks = verify_hopf("G", corrupt_delta=True)
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed
    assert any("witness" in c for c in failed)


@pytest.mark.parametrize("which", "BG")
def test_pi_antipode_compat_fails_without_an_antipode(monkeypatch, which):
    # with the negative control's Delta installed as the Hopf algebra, the
    # antipode solve fails: pi.antipode_compat fails with the witness
    # verify_hopf gives its antipode_convolution, not with a TypeError
    corrupted = hopf._corrupted(which)
    assert corrupted.antipode is None
    monkeypatch.setattr(hopf, f"_HOPF_{which}", corrupted)
    checks = {c["name"]: c for c in verify_pi_hopf_map()}
    assert sorted(checks) == ["pi.antipode_compat", "pi.coproduct_compat",
                              "pi.counit_compat"]
    assert checks["pi.antipode_compat"] == {
        "name": "pi.antipode_compat", "status": "fail",
        "paper_anchor": "S_B pi = pi S_G",
        "witness": f"no antipode solution on {which}: "
                   "inconsistent linear system"}
    convolution = {c["name"]: c for c in
                   verify_hopf(which, corrupt_delta=True)}
    assert (convolution[f"{which}.antipode_convolution"]["witness"]
            == checks["pi.antipode_compat"]["witness"])


def test_corrupted_delta_fails_the_same_five_checks():
    # the basis words put d and c before a and b, so the first failing
    # words differ from those of the old sample words, not the verdicts
    failed = {c["name"]: c.get("witness")
              for c in verify_hopf("G", corrupt_delta=True)
              if c["status"] == "fail"}
    assert failed == {
        "G.delta_algebra_map": None,
        "G.coassociativity": "d",
        "G.antipode_convolution":
            "no antipode solution on G: inconsistent linear system",
        "G.antipode_unique_in_ansatz": None,
        "G.star_coproduct": "c"}


def test_pi_is_hopf_map():
    checks = verify_pi_hopf_map()
    assert all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("gen, image, witnesses", [
    # b -> xi: Delta_B pi and (pi x pi) Delta_G first differ on d,
    # eps_B pi = eps_G still holds, and S first breaks on b
    ("b", "xi", {"coproduct_compat": "d", "counit_compat": None,
                 "antipode_compat": "b"}),
    # c -> lambda breaks all three laws first on c
    ("c", "lambda", {"coproduct_compat": "c", "counit_compat": "c",
                     "antipode_compat": "c"}),
])
def test_pi_laws_name_the_first_failing_word(monkeypatch, gen, image,
                                             witnesses):
    pi = pi_map()
    monkeypatch.setattr(hopf, "_PI", AlgebraMap(
        G, B, {**pi.images, gen: B.gen(image)}, name="pi"))
    checks = {c["name"]: c for c in verify_pi_hopf_map()}
    for name, witness in witnesses.items():
        assert checks[f"pi.{name}"].get("witness") == witness
        assert checks[f"pi.{name}"]["status"] == (
            "pass" if witness is None else "fail")


@pytest.mark.parametrize("owner, attr, fault, law, witness", [
    # eps(b) = 1: (id x eps) Delta(d) = c eps(b) + d eps(d) = c + d
    (HG, "eps", AlgebraMap(G, STD.K, {**HG.eps.images, "b": 1}),
     "G.counit_law", "d"),
    # a^* = b: eps(a^*) = 0 != eps(a) = 1
    (hopf, "star", AlgebraMap(G, G, {**STD.star.images, "a": G.gen("b")},
                              anti=True),
     "G.star_counit", "a"),
    # S(b) = -b: c^* = -q^-1 b, so S(S(c^*)^*) = -S(c) = q c
    (HG, "antipode", AlgebraMap(G, G, {**HG.antipode.images,
                                       "b": G.gen("b") * -1}, anti=True),
     "G.star_antipode_compat", "c"),
], ids=["counit_law", "star_counit", "star_antipode_compat"])
def test_hopf_law_names_the_first_failing_monomial(monkeypatch, owner, attr,
                                                   fault, law, witness):
    monkeypatch.setattr(owner, attr, fault)
    check = {c["name"]: c for c in verify_hopf("G")}[law]
    assert check["status"] == "fail"
    assert check["witness"] == witness


G_RELATIONS = ["ab=qba", "ac=qca", "bc=cb", "bd=qdb", "cd=qdc",
               "ad-da=(q-q^-1)bc", "ad-qbc=1"]


@pytest.mark.parametrize("amap, fails_unless_anti", [
    (STD.star, [r for r in G_RELATIONS if r != "bc=cb"]),
    (HG.antipode, [r for r in G_RELATIONS if r != "bc=cb"]),
    (HB.antipode, ["lambda xi=q xi lambda"]),
], ids=["star", "S_G", "S_B"])
def test_antihomomorphisms_respect_relations_only_reversed(amap,
                                                           fails_unless_anti):
    assert amap.anti and amap.check_relations() == []
    plain = AlgebraMap(amap.source, amap.target, amap.images)
    assert plain.check_relations() == fails_unless_anti


def test_pi_images():
    pi = pi_map()
    assert pi(G.gen("a")) == B.gen("lambda")
    assert pi(G.gen("b")) == B.zero()
    assert pi(G.gen("d")) == B.gen("lambda", -1)


@functools.cache
def _oracle_on_basis(which, corrupt):
    alg = hopf._standard(which).alg
    return hopf_oracle.verify_hopf(which, basis_words(alg, 5),
                                   corrupt_delta=corrupt)


@pytest.mark.parametrize("which,seed,corrupt", [
    ("G", 0, False), ("G", 1, False), ("G", 2, False),
    ("B", 0, False), ("B", 1, False), ("B", 2, False),
    ("G", 0, True), ("B", 0, True)])
def test_verify_hopf_matches_per_word_oracle(which, seed, corrupt):
    # the oracle on the basis words gives the same records, and on the old
    # seeded sample words the same verdicts (its witnesses may differ)
    alg = hopf._standard(which).alg
    got = verify_hopf(which, corrupt_delta=corrupt)
    assert got == _oracle_on_basis(which, corrupt)
    sampled = hopf_oracle.verify_hopf(
        which, sample_words(alg, 5, 100, seed), corrupt_delta=corrupt)
    assert ([(c["name"], c["status"]) for c in got]
            == [(c["name"], c["status"]) for c in sampled])


@pytest.mark.parametrize("which, degree", [("G", 5), ("B", 5)])
def test_basis_covers_the_old_sample_words(which, degree):
    # every monomial the seeded samples (seeds 0..2) reached is a basis
    # word of the check that replaced them
    alg = hopf._standard(which).alg
    basis = set(alg.basis_monomials(degree))
    for seed in range(3):
        for w in sample_words(alg, degree, 100, seed):
            assert set(w.terms) <= basis, (seed, w)


def test_convolution_matches_product_oracle():
    for hopf in (HG, HB):
        rng = random.Random(3)
        words = [normal_form_of_word(hopf.alg, random_word(hopf.alg, rng, 4))
                 for _ in range(40)]
        # differences of words, so that convolution terms can cancel
        for w in (x - y for x, y in zip(words[::2], words[1::2])):
            for side in ("left", "right"):
                assert (_convolve_antipode(hopf, w, side)
                        == hopf_oracle.convolve_antipode(hopf, w, side))



# the laws decided on the generators, by the suite that reports them
CHARTS = [chart("d"), chart("b")]  # built before any fault is installed
GENERATOR_LAWS = {
    "G.coassociativity", "G.counit_law", "G.antipode_convolution",
    "G.star_coproduct", "G.star_counit", "G.star_antipode_compat",
    "B.coassociativity", "B.counit_law", "B.antipode_convolution",
    "pi.coproduct_compat", "pi.counit_compat", "pi.antipode_compat",
    *(f"{ch.name}.{law}" for ch in CHARTS
      for law in ("rho_B_restricts", "gamma_comodule_map"))}


def _generator_law_records():
    checks = verify_hopf("G") + verify_hopf("B") + verify_pi_hopf_map()
    for ch in CHARTS:
        checks += verify_chart(ch)
    return {c["name"]: c for c in checks if c["name"] in GENERATOR_LAWS}


def _scan_records():
    # the degree-5 scans, and degree 4 for the chart laws
    checks = (hopf_oracle.verify_hopf("G", basis_words(G, 5))
              + hopf_oracle.verify_hopf("B", basis_words(B, 5))
              + hopf_oracle.verify_pi_hopf_map(basis_words(G, 5)))
    for ch in CHARTS:
        checks += hopf_oracle.chart_laws(ch, basis_words(G, 4),
                                         basis_words(B, 4))
    return {c["name"]: c for c in checks if c["name"] in GENERATOR_LAWS}


PI_IMAGES = dict(pi_map().images)


def _pi_with(gen, image):
    return AlgebraMap(G, B, {**PI_IMAGES, gen: image}, name="pi")


def _corrupt_both_deltas(mp):
    # the negative control's Delta, with the true antipodes kept
    for which in "GB":
        mp.setattr(hopf._standard(which), "delta",
                   hopf._corrupted(which).delta)


def _double_gamma_xi(mp):
    for ch in CHARTS:
        mp.setattr(ch, "gamma", AlgebraMap(
            B, ch.alg, {**ch.gamma.images, "xi": ch.gamma.images["xi"] * 2},
            name=ch.gamma.name))


# every fault that the law tests here and in tests/test_charts.py install
LAW_FAULTS = {
    "none": lambda mp: None,
    "pi_b_to_xi": lambda mp: mp.setattr(hopf, "_PI",
                                        _pi_with("b", B.gen("xi"))),
    "pi_c_to_lambda": lambda mp: mp.setattr(hopf, "_PI",
                                            _pi_with("c", B.gen("lambda"))),
    "eps_b_is_1": lambda mp: mp.setattr(
        HG, "eps", AlgebraMap(G, STD.K, {**HG.eps.images, "b": 1})),
    "star_a_is_b": lambda mp: mp.setattr(STD, "star", AlgebraMap(
        G, G, {**STD.star.images, "a": G.gen("b")}, name="star", anti=True)),
    "S_b_is_minus_b": lambda mp: mp.setattr(HG, "antipode", AlgebraMap(
        G, G, {**HG.antipode.images, "b": G.gen("b") * -1}, anti=True)),
    "corrupted_delta": _corrupt_both_deltas,
    "chart_pi_c_to_2xi": lambda mp: mp.setattr(
        charts, "pi_map", lambda: _pi_with("c", B.gen("xi") * 2)),
    "chart_gamma_xi_doubled": _double_gamma_xi,
}


@pytest.mark.parametrize("fault", sorted(LAW_FAULTS))
def test_generator_laws_match_the_degree_scans(monkeypatch, fault):
    # each law decided on the generators gives the record of its scan over
    # every basis word up to degree 5 (4 for the charts): same verdict,
    # same witness, on the standard data and under every fault
    LAW_FAULTS[fault](monkeypatch)
    got = _generator_law_records()
    assert sorted(got) == sorted(GENERATOR_LAWS)
    assert got == _scan_records()


# map -> the generator laws that apply it to a product, so fail when it
# breaks a relation
RELATION_FOLDS = {
    "Delta[G]": (lambda: HG.delta,
                 {"G.coassociativity", "G.star_coproduct"}),
    "Delta[B]": (lambda: HB.delta,
                 {"B.coassociativity", "pi.coproduct_compat"}),
    "eps[G]": (lambda: HG.eps, {"G.counit_law", "G.star_counit"}),
    "eps[B]": (lambda: HB.eps, {"B.counit_law", "pi.counit_compat"}),
    "star": (lambda: STD.star,
             {"G.star_coproduct", "G.star_antipode_compat"}),
    "S[G]": (lambda: HG.antipode,
             {"G.antipode_convolution", "G.star_antipode_compat"}),
    "S[B]": (lambda: HB.antipode,
             {"B.antipode_convolution", "pi.antipode_compat"}),
    "pi": (pi_map, {"pi.coproduct_compat", "pi.antipode_compat",
                    "d-chart.rho_B_restricts", "b-chart.rho_B_restricts"}),
    **{f"{part}[{ch.name}]": (
        functools.partial(getattr, ch, part),
        {f"{ch.name}.{law}" for law in laws})
       for ch in CHARTS for part, laws in [
           ("iota", ["rho_B_restricts"]),
           ("rho_B", ["rho_B_restricts", "gamma_comodule_map"]),
           ("gamma", ["gamma_comodule_map"])]},
}


@pytest.mark.parametrize("name", sorted(RELATION_FOLDS))
def test_a_broken_relation_fails_exactly_the_laws_that_need_it(monkeypatch,
                                                               name):
    # every generator scan still passes: only the relation check of the
    # map can fail a law, and it fails just those that apply the map to a
    # product, with a witness naming the map and the relation
    get, needs = RELATION_FOLDS[name]
    amap = get()
    monkeypatch.setattr(amap, "check_relations", lambda: ["xy=yx"])
    got = _generator_law_records()
    failed = {n: c.get("witness") for n, c in got.items()
              if c["status"] != "pass"}
    assert failed == dict.fromkeys(needs, f"{amap.name} fails relation xy=yx")
