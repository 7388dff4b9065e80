"""The suites' certificates: each fails under its own name, with a witness,
when the engine function or datum it certifies is broken, and no suite
draws a random number.  `qsu2 resolution` reports such a failure as a JSON
report and exit 1."""

import collections
import functools
import importlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

import resolution_oracle
from qsu2 import charts, coherent, comod, ncalg, suites
from qsu2.cli import main
from qsu2.comod import GramForm, NonScalarError, VnComodule
from qsu2.haar import integral
from qsu2.hopf import hopf_G
from qsu2.ncalg import Algebra, DomainError, STD, rewriting_certificate
from qsu2.scalars import ONE, Q, ZERO, q_pow
from weight_gate_oracle import homogeneous_weight

Q0 = Fraction(1, 2)

# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


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


def test_confluence_fails_when_the_middle_drops_bc(monkeypatch, fresh_maps):
    # d^m a^m keeps only its constant term 1.  (Dropped from a^m d^m as
    # well, it leaves a product in which a d = d a = 1, a = d^-1: that is
    # associative, and only the relations would fail.)
    original = ncalg._ad_middle
    monkeypatch.setattr(ncalg, "_ad_middle", lambda m, sign: (
        original(m, sign)[:1] if sign < 0 else original(m, sign)))
    check = _checks("rewriting", degree=3)["confluence.G"]
    assert _failed(check)
    assert check["witness"].startswith("(x y) g != x (y g)")


def _swap_middles(monkeypatch):
    # a^m d^m and d^m a^m read each other's middle
    original = ncalg._ad_middle
    monkeypatch.setattr(ncalg, "_ad_middle",
                        lambda m, sign: original(m, -sign))


def test_swapped_middles_fail_confluence_and_the_pochhammer_product(
        monkeypatch, fresh_maps):
    # associativity fails on G and G_b, and d^r a^r is no longer the
    # product of the linear factors 1 + q^(-1-2k) b c that
    # `typo.dr_ar_bc_square` compares it with (the suite's own record is
    # tested under this fault in `test_a_fault_fails_typos_with_a_report`)
    _swap_middles(monkeypatch)
    checks = _checks("rewriting", degree=3)
    for name in ("confluence.G", "confluence.G_b"):
        assert _failed(checks[name]), name
        assert checks[name]["witness"].startswith("(x y) g != x (y g)")
    G = STD.G
    a, b, c, d = (G.gen(x) for x in "abcd")
    linear = G.one()
    for k in range(2):
        linear = linear * (G.one() + b * c * q_pow(-1 - 2 * k))
    assert d ** 2 * a ** 2 != linear


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
    # a d is left as it is, with the coefficient of its 1
    original = Algebra.mul_mono
    a, d = (1, 0, 0, 0), (0, 0, 0, 1)

    def mul_mono(self, m1, m2, coeff, acc):
        if self is STD.G and (m1, m2) == (a, d):
            acc[1, 0, 0, 1] = acc.get((1, 0, 0, 1), ZERO) + coeff
        else:
            original(self, m1, m2, coeff, acc)

    monkeypatch.setattr(Algebra, "mul_mono", mul_mono)
    check = _checks("rewriting", degree=3)["basis.no_ad_cooccurrence"]
    assert _failed(check)
    assert check["witness"] == "a d in (a) d"


def _install_printed_order_gram(monkeypatch):
    # the Gram diagonal [1, q^-2] of the printed order in place of the
    # coinvariant [1, 1] at n = 1, on the one name every reader calls
    sound = comod.solve_coinvariant_gram
    monkeypatch.setattr(comod, "solve_coinvariant_gram", lambda n: GramForm(
        n, [ONE, q_pow(-2)]) if n == 1 else sound(n))


def test_theorem4_fails_on_a_wrong_gram_diagonal(monkeypatch):
    # with the Gram diagonal [1, q^-2] in place of the coinvariant [1, 1],
    # the operator of w = e_0 is not scalar: column 0 of the orthogonality
    # table is int d d^* = q^2/(q^2 + 1) in row 0 and q^-2 int b b^* in row 1
    _install_printed_order_gram(monkeypatch)
    check = _checks("theorem4", n_range=range(1, 2))["theorem4.scalar_n1"]
    assert _failed(check)
    assert check["witness"] == ("column 0: row 0 is q^2/(q^2 + 1), "
                                "row 1 is 1/(q^2 + 1)")


def _corner_times_q(t):
    t[0][0] = t[0][0] * Q


def _swap_off_diagonal_corners(t):
    t[0][1], t[1][0] = t[1][0], t[0][1]


def _unit_in_column_0(t):
    for j in (0, 1):
        t[j][0] = t[j][0] + STD.G.one()


# fault -> (the n of the V_n whose coaction matrix it corrupts, the edit
# that it makes on a copy of that matrix)
THEOREM4_ENTRY_FAULTS = {
    "v1_corner_times_q": (1, _corner_times_q),
    "v2_entries_swapped": (2, _swap_off_diagonal_corners),
    "unit_in_v1_column_0": (1, _unit_in_column_0),
}


@pytest.mark.parametrize("fault", ["none", "wrong_gram_diagonal",
                                   *sorted(THEOREM4_ENTRY_FAULTS)])
def test_theorem4_gives_the_polarization_verdict(monkeypatch, fault):
    # the suite's verdict from the orthogonality table is the verdict of
    # the operators of e_i and e_i + e_i', integrated from every product.
    # Entry faults go on the cached V_n after its Gram form is cached (the
    # certificate would refuse them), and monkeypatch restores them
    for n in (1, 2):
        comod.solve_coinvariant_gram(n)
    sound = comod.solve_coinvariant_gram
    if fault == "wrong_gram_diagonal":
        _install_printed_order_gram(monkeypatch)
    elif fault in THEOREM4_ENTRY_FAULTS:
        n, corrupt = THEOREM4_ENTRY_FAULTS[fault]
        V = VnComodule(n)
        t = [row[:] for row in V.coaction_matrix]
        corrupt(t)
        monkeypatch.setattr(V, "coaction_matrix", t)
    checks = _checks("theorem4", n_range=range(1, 3))
    verdicts = {n: resolution_oracle.theorem4_holds(n) for n in (1, 2)}
    assert verdicts == {n: checks[f"theorem4.scalar_n{n}"]["status"] == "pass"
                        for n in (1, 2)}
    assert all(verdicts.values()) == (fault == "none")
    if fault == "unit_in_v1_column_0":
        # the two rows of the table without its premise agree, so each
        # column is constant: only the homogeneity of the entries catches
        # this fault
        t, g = VnComodule(1).coaction_matrix, sound(1)
        bare = [[g.diag[j] * integral(x, x) for x in row]
                for j, row in enumerate(t)]
        assert bare[0] == bare[1]
        assert "is not homogeneous" in checks["theorem4.scalar_n1"]["witness"]


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
    _install_printed_order_gram(monkeypatch)
    code, rep = _resolution_report(capsys, 1)
    assert code == 1
    assert rep["matrix_is_scalar"] is False
    # the operator raised before the charts were compared
    assert rep["alpha_exact"] is None and rep["chart_agreement"] is None


READS_THE_OPERATOR = ["n=1.alpha_closed_form", "n=1.alpha_product_identity",
                      "n=1.chart_independence", "n=1.classical_limit"]


@pytest.mark.parametrize("argv, failed", [
    (["coherent", "--n", "1..1"], [*READS_THE_OPERATOR, "reproducing.exact"]),
    (["typos"], ["typo.qn_vs_qminusn"]),
    (["all"], ["gram.inverse_binomial_n1", *READS_THE_OPERATOR,
               "reproducing.exact", "resolution.n1", "theorem4.scalar_n1",
               "typo.qn_vs_qminusn"]),
], ids=["coherent", "typos", "all"])
def test_verify_reports_a_non_scalar_resolution_matrix(monkeypatch, capsys,
                                                       fresh_resolution,
                                                       argv, failed):
    # under the printed-order Gram diagonal at n = 1 every check that reads
    # the resolution operator fails with the NonScalarError as its witness,
    # and the command exits 1 with its report, not with a traceback
    _install_printed_order_gram(monkeypatch)
    code = main(["verify", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == failed
    for c in checks:
        if c["name"] == "theorem4.scalar_n1":
            # Theorem 4 reads the orthogonality table, not the operator
            assert c["witness"] == ("column 0: row 0 is q^2/(q^2 + 1), "
                                    "row 1 is 1/(q^2 + 1)")
        elif c["status"] == "fail" and c["name"] != "gram.inverse_binomial_n1":
            assert "matrix is not scalar at entry (1, 1)" in c["witness"]


GOLDEN = pathlib.Path(__file__).parents[1] / "perfbench/golden/verify_all.json"


def _refuse_bc_cubed(monkeypatch):
    # a Haar functional that refuses every element with a term (bc)^r,
    # r >= 3: the positivity, moment, q-beta and Lemma integrals at degree 6
    # and the resolution operator of V_3 reach one
    sound = haar_module.haar

    def haar(p):
        if any(k == t == 0 and r == s >= 3 for k, r, s, t in p.terms):
            raise DomainError("the functional refuses (bc)^r, r >= 3")
        return sound(p)

    monkeypatch.setattr(haar_module, "haar", haar)


def _refuse_v3(monkeypatch):
    # V_3 cannot be built, so neither can any V_n, n >= 3
    sound = comod._extend_coaction_matrix

    def extend(t, n):
        if n == 3:
            raise DomainError("no coaction matrix for V_3")
        return sound(t, n)

    monkeypatch.setattr(comod, "_extend_coaction_matrix", extend)


# fault -> its installation, under the test's monkeypatch and request
NAMED_FAULTS = {
    "swapped_middles": lambda mp, request: _swap_middles(mp),
    "flipped_manin_sign": lambda mp, request: request.getfixturevalue(
        "flipped_manin_sign"),
    "printed_order_gram": lambda mp, request: _install_printed_order_gram(mp),
    "haar_refuses_bc_cubed": lambda mp, request: _refuse_bc_cubed(mp),
    "v3_refused": lambda mp, request: _refuse_v3(mp),
}


def _names(suite):
    return sorted(c["name"] for c in suites.run_suite(suite).checks)


@pytest.mark.parametrize("fault", sorted(NAMED_FAULTS))
def test_a_fault_changes_no_record_name(fresh_engine, monkeypatch, request,
                                        fault):
    # a check that raises fails under its own name: each suite lists the
    # records it lists without the fault, and between them the 184 of the
    # golden `verify all` (the swapped middles break the b-chart's Gauss
    # ansatz, which five suites read)
    sound = {suite: _names(suite) for suite in suites._ALL_SUITES}
    golden = json.loads(json.loads(GOLDEN.read_text())["stdout"])
    assert (set().union(*sound.values())
            == {c["name"] for c in golden["checks"]})
    fresh_engine()
    NAMED_FAULTS[fault](monkeypatch, request)
    assert {suite: _names(suite) for suite in suites._ALL_SUITES} == sound


def test_a_fault_fails_typos_with_a_report(fresh_engine, monkeypatch,
                                            capsys):
    # under the swapped middles `verify typos` and `verify all` exit 1 with
    # every record, where they exited 3 with none
    _swap_middles(monkeypatch)
    checks = _checks("typos")
    # the failed ledger records name where they fail
    for name, witness in (
            ("typo.dr_ar_bc_square",
             "r = 1: d^r a^r is not the linear product"),
            ("typo.lemma_sign", "(i, n) = (0, 1)")):
        assert checks[name]["status"] == "fail", name
        assert checks[name]["witness"] == witness, name
    assert main(["verify", "typos"]) == 1
    assert capsys.readouterr().err == ""
    assert main(["verify", "all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and len(json.loads(out)["checks"]) == 184


def _integrate_to_zero(monkeypatch):
    # every Jackson integral of the q-beta identities is 0
    monkeypatch.setattr(coherent, "jackson_q_integral_01", lambda f, p: ZERO)
    monkeypatch.setattr(coherent, "ramanujan_qbeta", functools.cache(
        coherent.ramanujan_qbeta.__wrapped__))


def _b_chart_solved_with_the_identity(monkeypatch):
    # the b-chart's decomposition claims w = id
    monkeypatch.setattr(charts.chart("b").gauss, "w_is_identity", True)


@pytest.mark.parametrize("name, fault, witness", [
    ("typo.ramanujan_integrand_reading", _integrate_to_zero,
     "(alpha, beta) = (1, 1): 0 != 1"),
    ("typo.gauss_w_matrices", _b_chart_solved_with_the_identity,
     "b-chart: solvable with w = id"),
])
def test_a_failed_ledger_record_names_its_witness(monkeypatch, name, fault,
                                                  witness):
    fault(monkeypatch)
    record = _checks("typos")[name]
    assert record["status"] == "fail"
    assert record["witness"] == witness


@pytest.mark.parametrize("fault", ["haar_refuses_bc_cubed", "v3_refused"])
def test_a_raising_fault_keeps_every_record(fresh_engine, monkeypatch,
                                            request, capsys, fault):
    # an engine error inside any check fails that check: `verify all` exits
    # 1 with all 184 records, where it exited 3 with none, and each record
    # that fails names the error
    NAMED_FAULTS[fault](monkeypatch, request)
    assert main(["verify", "all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert err == "" and len(checks) == 184
    message = {"haar_refuses_bc_cubed": "the functional refuses (bc)^r",
               "v3_refused": "no coaction matrix for V_3"}[fault]
    failed = {c["name"]: c["witness"] for c in checks
              if c["status"] == "fail"}
    must_fail = {"haar_refuses_bc_cubed": [
        "haar.positivity_q1/2", "haar.zeta_moments_closed_form",
        "qbeta.closed_form", "typo.qbeta_binomial_position",
        "resolution.n3", "n=3.lemma_integral"],
        "v3_refused": ["comod.axioms_n3", "gram.inverse_binomial_n3",
                       "comod.simplicity_probe", "resolution.n3",
                       "n=3.d_chart_closed_form"]}[fault]
    for name in must_fail:
        assert message in failed[name], name


def test_qbeta_reads_the_installed_functional(monkeypatch, fresh_engine):
    # with the counit in place of the Haar state, int zeta^i (...) is 1 at
    # i = 0 and 0 above: the q-beta records integrate the functional that is
    # installed, as the Lemma does
    monkeypatch.setattr(haar_module, "haar", hopf_G().counit)
    checks = _checks("coherent", n_range=range(1, 2))
    for name in ("qbeta.closed_form", "n=1.lemma_integral"):
        assert checks[name]["status"] == "fail", name
    # the ledger record names the first row that fails as well
    record = _checks("typos")["typo.qbeta_binomial_position"]
    assert record["status"] == "fail"
    assert record["witness"] == "(i, n) = (0, 1): the integral is 1"


@pytest.mark.parametrize("suite", ["haar", "all"])
def test_an_out_of_range_q_is_refused_before_any_suite_runs(monkeypatch,
                                                           suite):
    # q = 2 is user input that the positivity check cannot read: an error
    # (exit 3), not a failed check, and no suite does any work first
    def entered(*args):
        raise AssertionError("a suite ran")

    for key in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, key, entered)
    with pytest.raises(DomainError, match="requires 0 < q0 < 1"):
        suites.run_suite(suite, q0=Fraction(2))
    # a suite that does not read q runs at q = 2
    with pytest.raises(AssertionError, match="a suite ran"):
        suites.run_suite("charts", q0=Fraction(2))


def test_the_rewriting_certificate_is_built_once_per_algebra(monkeypatch):
    # `confluence.G` and `basis.no_ad_cooccurrence` read one certificate
    built = collections.Counter()
    sound = suites.rewriting_certificate

    def counted(alg, degree):
        built[alg.name] += 1
        return sound(alg, degree)

    monkeypatch.setattr(suites, "rewriting_certificate", counted)
    assert all(c["status"] == "pass"
               for c in _checks("rewriting", degree=3).values())
    assert built == {"G": 1, "G_b": 1, "G_d": 1, "G_bd": 1}


@pytest.mark.parametrize("argv, names", [
    (["theorem4", "--n", "2..2"], ["theorem4.scalar_n2"]),
    (["coherent", "--n", "2..2"], [f"n=2.section_property_v{k}"
                                   for k in range(3)]),
    (["all"], ["theorem4.scalar_n2", *(f"n=2.section_property_v{k}"
                                       for k in range(3))]),
], ids=["theorem4", "coherent", "all"])
def test_a_failed_gram_certificate_is_a_failed_check(capsys, fresh_steps,
                                                     fresh_resolution,
                                                     flipped_manin_sign,
                                                     argv, names):
    # a wrong Manin exponent fails the Gram certificate of V_2 at step 2:
    # the checks that read the Gram form fail with its message as witness,
    # and the command exits 1 with its report, not 3 with no report
    code = main(["verify", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in names:
        assert checks[name]["witness"] == (
            "step 2: column 0 of the coaction matrix of V_2 is not its "
            "reading from V_1 (x) V_1")


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
