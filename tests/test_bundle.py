import json
import random

import pytest

from qsu2 import bundle, hopf
from qsu2.bundle import (Section, _is_basis_of_span, c_chi, cotensor_slice,
                         glue_iso_check, in_cotensor, kappa, kappa_bar,
                         sections_space, vn_left_comodule)
from qsu2.charts import chart, cover
from qsu2.cli import main
from qsu2.ncalg import DomainError
from qsu2.scalars import Q, QScalar
from rewriting_oracle import normal_form_of_word, random_word


def test_cotensor_slice_n1():
    sl = cotensor_slice(1, 1)
    assert len(sl) == 2
    basis = {str(p) for p in sl}
    assert basis == {"b", "d"}


def test_cotensor_slice_n2():
    sl = cotensor_slice(2, 2)
    assert {str(p) for p in sl} == {"b^2", "b d", "d^2"}


def test_cotensor_slice_stable():
    assert len(cotensor_slice(1, 3)) == 2


def test_sections_dims():
    assert len(sections_space(0, 2)) == 1
    assert len(sections_space(1, 3)) == 2
    assert len(sections_space(3, 5)) == 4


def test_section_gluing_enforced():
    cov = cover()
    with pytest.raises(DomainError):
        Section(cov.b.alg.one(), cov.d.coinv_gen, 1)


def test_kappa_on_coinvariant():
    # kappa(f (x) 1) = f gamma(chi) for coinvariant f
    for which in ("d", "b"):
        ch = chart(which)
        M = c_chi(2)
        f = ch.coinv_gen ** 2
        out = kappa(ch, [f], M)
        assert out == [f * ch.gamma_chi(2)]
        assert in_cotensor(ch, out, M)


def test_kappa_trivial_comodule():
    ch = chart("d")
    M = c_chi(0)  # chi = 1: gamma(eps part) = 1, kappa is the identity
    f = ch.alg.gen("c") * ch.alg.gen("d", -2)
    assert kappa(ch, [f], M) == [f]


def test_kappa_kappa_bar_inverse():
    rng = random.Random(1)
    for which in ("d", "b"):
        ch = chart(which)
        for M in (c_chi(2), vn_left_comodule(1)):
            for _ in range(25):
                F = [normal_form_of_word(ch.alg, random_word(ch.alg, rng, 3))
                     for _ in range(len(M))]
                assert kappa(ch, kappa_bar(ch, F, M), M) == F
                assert kappa_bar(ch, kappa(ch, F, M), M) == F


@pytest.mark.parametrize("n", range(4))
def test_glue_iso(n):
    checks = glue_iso_check(n, max(n, 2))
    assert all(c["status"] != "fail" for c in checks), \
        [c for c in checks if c["status"] == "fail"]


def test_kappa_inverse_fails_when_kappa_bar_drops_the_antipode(monkeypatch):
    # gamma in place of gamma o S_B makes kappa-bar a second kappa, which
    # undoes nothing once chi != 1
    monkeypatch.setattr(bundle, "kappa_bar",
                        lambda ch, F, M: bundle._twist(ch, F, M, ch.gamma))
    checks = {c["name"]: c for c in glue_iso_check(1, 2)}
    assert checks["n=1.kappa_inverse"]["status"] == "fail"
    assert checks["n=1.kappa_inverse"]["witness"] == \
        "('d-chart', 'C_chi(n=1)', 'unit row 0')"


def test_is_basis_of_span():
    def vecs(rows):
        return [[QScalar.coerce(x) for x in row] for row in rows]

    # e0 + e1 and q (e0 + e1) + e2: a plane in a 4-dimensional space
    basis = vecs([[1, 1, 0, 0], [0, 0, 1, 0]])
    basis[1][:2] = [Q, Q]
    assert _is_basis_of_span(vecs([[0, 0, 1, 0], [2, 2, 1, 0]]), basis)
    # dependent vectors inside the span
    assert not _is_basis_of_span(vecs([[1, 1, 0, 0], [2, 2, 0, 0]]), basis)
    # independent vectors, one outside the span
    assert not _is_basis_of_span(vecs([[1, 1, 0, 0], [0, 0, 0, 1]]), basis)
    assert not _is_basis_of_span(vecs([[1, 0, 0, 0], [0, 0, 1, 0]]), basis)


def test_dims_all_cutoffs():
    # dim(sections) = dim(cotensor) = n+1 for every cutoff in [n+1, 6]
    for n in range(5):
        for degree in range(n + 1, 7):
            assert len(cotensor_slice(n, degree)) == n + 1
            assert len(sections_space(n, degree)) == n + 1


def test_bundle_without_an_antipode_on_B_fails_its_kappa_checks(monkeypatch,
                                                                 capsys):
    # the negative control's Delta installed on B: the antipode solve fails,
    # so kappa-bar and V_n's left coaction have no S_B; the checks that need
    # them fail with the failed solve as their witness, and the rest pass
    corrupted = hopf._corrupted("B")
    assert corrupted.antipode is None
    monkeypatch.setattr(hopf, "_HOPF_B", corrupted)
    expect = "no antipode solution: inconsistent linear system"
    with pytest.raises(DomainError, match=f"^{expect}$"):
        vn_left_comodule(1)
    code = main(["verify", "bundle", "--n", "0..1", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"]
              if c["status"] == "fail"}
    assert failed == dict.fromkeys(
        [f"n={n}.{name}" for n in (0, 1)
         for name in ("kappa_image_characterization", "kappa_inverse")],
        expect)
