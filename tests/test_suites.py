"""The suites' certificates: each fails under its own name, with a witness,
when the engine function or datum it certifies is broken, and no suite
draws a random number.  `qsu2 resolution` reports such a failure as a JSON
report and exit 1."""

import json
import random
from fractions import Fraction

import pytest

import resolution_oracle
from qsu2 import charts, coherent, suites
from qsu2.cli import main
from qsu2.comod import GramForm, NonScalarError
from qsu2.ncalg import Algebra, STD, rewriting_certificate
from qsu2.scalars import ONE, ZERO, q_pow
from weight_gate_oracle import homogeneous_weight

Q0 = Fraction(1, 2)


def _checks(suite, n_range=range(0, 4), degree=5):
    return {c["name"]: c for c in suites.SUITES[suite](n_range, degree, Q0)}


def _failed(check):
    return check["status"] == "fail" and "witness" in check


@pytest.fixture
def fresh_resolution():
    # resolution_operator is cached: a fault must neither meet a result
    # computed without it nor leave one behind
    coherent.resolution_operator.cache_clear()
    yield
    coherent.resolution_operator.cache_clear()


def _resolution_report(capsys, n):
    code = main(["resolution", "--n", str(n)])
    return code, json.loads(capsys.readouterr().out)


def test_engine_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    for name in ("random", "randint", "randrange", "choice", "choices",
                 "sample", "shuffle", "uniform", "getrandbits", "seed"):
        monkeypatch.setattr(random, name, refuse)
    assert suites.run_suite("all").passed
    assert not suites.run_suite("hopf_negative_control").passed


def test_confluence_fails_when_da_expand_drops_bc(monkeypatch, fresh_maps):
    original = Algebra._da_expand.__wrapped__

    def da_expand(self, t, k):
        return {m: c for m, c in original(self, t, k).items() if not m[1]}

    monkeypatch.setattr(Algebra, "_da_expand", da_expand)
    check = _checks("rewriting", degree=3)["confluence.G"]
    assert _failed(check)
    assert check["witness"].startswith("(x y) g != x (y g)")


@pytest.mark.parametrize("pair, relation", [
    ((0, 1), "ab=qba"), ((0, 2), "ac=qca"), ((1, 3), "bd=qdb"),
    ((2, 3), "cd=qdc")])
def test_confluence_fails_on_a_flipped_commutation_sign(monkeypatch, pair,
                                                        relation):
    # on G the a-d rule rests on every commutation exponent, so a flipped
    # sign breaks associativity as well as its relation
    monkeypatch.setitem(STD.G.comm, pair, -STD.G.comm[pair])
    checks = _checks("rewriting", degree=3)
    assert _failed(checks["confluence.G"])
    assert rewriting_certificate(STD.G, 3)["relations"] == [relation]


def test_no_ad_cooccurrence_fails_when_a_and_d_stay_together(monkeypatch,
                                                              fresh_maps):
    def keep(self, mono, coeff, acc):
        acc[mono] = acc.get(mono, ZERO) + coeff

    monkeypatch.setattr(Algebra, "_reduce_ordered", keep)
    check = _checks("rewriting", degree=3)["basis.no_ad_cooccurrence"]
    assert _failed(check)
    assert check["witness"] == "a d in (a) d"


def test_theorem4_fails_on_a_wrong_gram_diagonal(monkeypatch):
    # with the Gram diagonal [1, q^-2] in place of the coinvariant [1, 1],
    # the operator of w = e_0 is not scalar
    gram = coherent.gram
    monkeypatch.setattr(coherent, "gram", lambda n: GramForm(
        n, [ONE, q_pow(-2)]) if n == 1 else gram(n))
    check = _checks("theorem4", n_range=range(1, 2))["theorem4.scalar_n1"]
    assert _failed(check)
    assert check["witness"].startswith("(['1', '0'], ")


def test_reproducing_fails_on_a_non_scalar_resolution_matrix(monkeypatch):
    resolution = coherent.resolution_operator

    def skewed(n):
        res = resolution(n)
        matrix = [row[:] for row in res.matrix]
        matrix[0][n] = matrix[0][n] + ONE
        return coherent.ResolutionResult(n, matrix, res.alpha,
                                         res.chart_agreement)

    monkeypatch.setattr(coherent, "resolution_operator", skewed)
    check = _checks("coherent", n_range=range(1, 2))["reproducing.exact"]
    assert _failed(check)
    assert check["witness"] == "(1, 'E_00', 'e_1')"


def test_resolution_reports_a_non_scalar_matrix(monkeypatch, capsys,
                                                fresh_resolution):
    # the printed-order Gram diagonal [1, q^-2] makes the resolution
    # matrix non-scalar: a failed check, so a JSON report and exit 1
    gram = coherent.gram
    monkeypatch.setattr(coherent, "gram", lambda n: GramForm(
        n, [ONE, q_pow(-2)]) if n == 1 else gram(n))
    code, rep = _resolution_report(capsys, 1)
    assert code == 1
    assert rep["matrix_is_scalar"] is False
    # the operator raised before the charts were compared
    assert rep["alpha_exact"] is None and rep["chart_agreement"] is None


@pytest.mark.parametrize("argv, failed", [
    (["coherent", "--n", "1..1"], ["n=1.classical_limit",
                                   "n=1.resolution_scalar",
                                   "reproducing.exact"]),
    (["typos"], ["typo.qn_vs_qminusn"]),
    (["all"], ["gram.inverse_binomial_n1", "n=1.classical_limit",
               "n=1.resolution_scalar", "reproducing.exact", "resolution.n1",
               "theorem4.scalar_n1", "typo.qn_vs_qminusn"]),
], ids=["coherent", "typos", "all"])
def test_verify_reports_a_non_scalar_resolution_matrix(monkeypatch, capsys,
                                                       fresh_resolution,
                                                       argv, failed):
    # under the printed-order Gram diagonal at n = 1 every check that reads
    # the resolution operator fails with the NonScalarError as its witness,
    # and the command exits 1 with its report, not with a traceback
    gram = coherent.gram
    monkeypatch.setattr(coherent, "gram", lambda n: GramForm(
        n, [ONE, q_pow(-2)]) if n == 1 else gram(n))
    code = main(["verify", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == failed
    for c in checks:
        if c["status"] == "fail" and c["name"] != "gram.inverse_binomial_n1":
            assert "matrix is not scalar at entry (1, 1)" in c["witness"]


def test_chart_independence_fails_when_the_charts_disagree(monkeypatch,
                                                           capsys,
                                                           fresh_resolution):
    assembled = coherent.assembled_coefficients

    def skewed(ch, n):
        r = assembled(ch, n)
        if ch is charts.chart("b"):
            r[0] = r[0] * 2
        return r

    monkeypatch.setattr(coherent, "assembled_coefficients", skewed)
    check = _checks("coherent", n_range=range(1, 2))["n=1.chart_independence"]
    assert check["status"] == "fail"
    code, rep = _resolution_report(capsys, 1)
    assert code == 1
    assert rep["chart_agreement"] is False
    # the matrix is integrated from the d-chart, which the fault leaves alone
    assert rep["matrix_is_scalar"] is True


def test_chart_independence_holds_when_the_charts_differ_by_a_sign(
        monkeypatch, capsys, fresh_resolution):
    # r_b = -r_d: the coefficient vectors differ, so the b-chart triple is
    # built, and each r_i r_k* keeps its sign, so the triples still agree
    assembled = coherent.assembled_coefficients

    def negated(ch, n):
        if ch is charts.chart("b"):
            return [-x for x in assembled(charts.chart("d"), n)]
        return assembled(ch, n)

    monkeypatch.setattr(coherent, "assembled_coefficients", negated)
    assert negated(charts.chart("b"), 1) != assembled(charts.chart("d"), 1)
    check = _checks("coherent", n_range=range(1, 2))["n=1.chart_independence"]
    assert check["status"] == "pass"
    code, rep = _resolution_report(capsys, 1)
    assert code == 0
    assert rep["chart_agreement"] is True


def test_a_mixed_weight_coefficient_takes_the_full_product(monkeypatch,
                                                          capsys,
                                                          fresh_resolution):
    # r_1 of n = 2 gains r_0, a term of another torus weight, on both
    # charts: r_1 is no longer homogeneous, so its entries integrate the
    # full product, and int r_0 r_1^* picks up int r_0 r_0^* != 0
    assembled = coherent.assembled_coefficients

    def mixed(ch, n):
        r = assembled(ch, n)
        if n == 2:
            r[1] = r[1] + r[0]
        return r

    monkeypatch.setattr(coherent, "assembled_coefficients", mixed)
    r = mixed(charts.cover().d, 2)
    assert homogeneous_weight(r[0]) is not None
    assert homogeneous_weight(r[1]) is None
    # the operator names the first entry, and its value, at which the
    # ungated matrix is not scalar
    full = resolution_oracle.matrix(charts.cover().d, 2)
    i, k = next((i, k) for i in range(3) for k in range(3)
                if full[i][k] != (full[0][0] if i == k else ZERO))
    with pytest.raises(NonScalarError) as exc:
        coherent.resolution_operator(2)
    assert (exc.value.entry, exc.value.value) == ((i, k), full[i][k])
    code, rep = _resolution_report(capsys, 2)
    assert code == 1
    assert rep["matrix_is_scalar"] is False


def test_gauss_product_fails_on_a_wrong_matrix_product(monkeypatch):
    mat_mul = charts._mat_mul

    def skewed(A, B):
        out = mat_mul(A, B)
        out[0][0] = out[0][0] + out[0][0].alg.one()
        return out

    monkeypatch.setattr(charts, "_mat_mul", skewed)
    charts.chart.cache_clear()
    charts.cover.cache_clear()
    try:
        checks = _checks("charts", degree=2)
    finally:
        # the charts built under the fault must not outlive it
        charts.chart.cache_clear()
        charts.cover.cache_clear()
    for which in ("d", "b"):
        assert checks[f"{which}-chart.gauss_product"]["status"] == "fail"
