import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import comod_oracle
import gram_oracle
from qsu2 import comod, hopf, linalg, scalars, suites
from qsu2.cli import main
from qsu2.comod import (STAR_FIRST, STAR_SECOND, NonScalarError, VnComodule,
                        _gram_order, _inverse_binomials, _unitarity_defect,
                        gram_order_report,
                        intertwiner_space_dimension, pairing, schur_scalar,
                        solve_coinvariant_gram, verify_comodule_axioms,
                        weight_covectors)
from qsu2.hopf import hopf_G
from qsu2.ncalg import STD, DomainError, star
from qsu2.scalars import ONE, Q, ZERO, gauss_binomial, q_pow

G, B = STD.G, STD.B


def test_coaction_of_x():
    V = VnComodule(1)
    # basis index is the x-exponent: e_1 = x, and rho(x) = x (x) a + y (x) c
    # has the component c on e_0 = y and a on e_1 = x
    assert V.components([ZERO, ONE]) == [G.gen("c"), G.gen("a")]


def test_coaction_matrix_matches_power_oracle():
    # V_n extended from V_(n-1) degree by degree against the columns read
    # off rho(x)^i rho(y)^(n-i)
    for n in range(11):
        got = VnComodule(n).coaction_matrix
        want = comod_oracle.coaction_matrix(n)
        assert ([[x.terms for x in row] for row in got]
                == [[x.terms for x in row] for row in want]), n


def test_vn_build_does_not_nest_a_call_per_degree(monkeypatch):
    # V_n extends the cached V_(n-1); a V_n that recursed through the cache
    # would nest n calls, and a deep enough n would end in a RecursionError.
    # The build reads V_0..V_(n-1) in ascending order instead, so from a
    # cold cache the depth is V_n, then V_k, then the cached V_(k-1) it
    # reads: three calls, whatever n is
    build = comod.VnComodule
    depth, deepest = [0], [0]

    def counted(n):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return build(n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(comod, "VnComodule", counted)
    depths = {}
    for n in (6, 12):
        build.cache_clear()
        deepest[0] = 0
        V = counted(n)
        depths[n] = deepest[0]
    assert depths == {6: 3, 12: 3}
    assert V.n == 12 and len(V.coaction_matrix) == 13
    assert V.coaction_matrix[0][0] == G.gen("d", 12)


def test_negative_n_rejected_on_every_call():
    # a failed construction must not leave a half-built V_n behind
    for _ in range(2):
        with pytest.raises(ValueError):
            VnComodule(-1)


def test_keyword_n_rejected():
    # n is positional-only, so the cache cannot hold a second V_3 under n=3
    with pytest.raises(TypeError):
        VnComodule(n=3)


def test_coaction_of_y_squared():
    V = VnComodule(2)
    # rho(y^2) = y^2 (x) d^2 + x y (x) (1 + q^-2) b d + x^2 (x) b^2
    got = V.components([ONE, ZERO, ZERO])  # y^2 = e_0
    assert got == [G.gen("d", 2), G.gen("b") * G.gen("d") * (ONE + q_pow(-2)),
                   G.gen("b", 2)]


def test_coaction_trivial():
    V = VnComodule(0)
    assert V.components([ONE]) == [G.one()]


def test_comodule_axioms():
    for n in range(6):
        assert verify_comodule_axioms(n) is None


def _double_corner(monkeypatch, n):
    # t[0][0] = d^n of V_n doubled on the cached V_n
    V = VnComodule(n)
    t = [row[:] for row in V.coaction_matrix]
    t[0][0] = t[0][0] * 2
    monkeypatch.setattr(V, "coaction_matrix", t)


@pytest.fixture
def doubled_v1_corner(monkeypatch, fresh_steps):
    # t[0][0] = d of V_1 doubled, with no step certified from the true
    # matrix and none left behind from the corrupted one
    _double_corner(monkeypatch, 1)


def test_comodule_axioms_name_a_corrupted_entry(doubled_v1_corner):
    # Delta(2d) = 2(c (x) b + d (x) d) is not 2d (x) 2d + c (x) b, so the
    # coproduct law fails on that entry first; the Gram checks that read
    # the form fail with the failed base case as their witness
    assert verify_comodule_axioms(1) == ("coproduct", 0, 0)
    checks = {c["name"]: c for c in
              suites.SUITES["gram"](range(1, 2), 5, Fraction(1, 2))}
    assert checks["comod.axioms_n1"]["status"] == "fail"
    assert checks["comod.axioms_n1"]["witness"] == "('coproduct', 0, 0)"
    for name in ("gram.inverse_binomial_n1", "gram.positive_at_half_n1"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["witness"].startswith("base case: "), name


def test_verify_gram_reports_a_corrupted_v1_with_exit_1(doubled_v1_corner,
                                                         capsys):
    code = main(["verify", "gram", "--n", "0..1", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    failed = {c["name"]: c["witness"] for c in checks
              if c["status"] == "fail"}
    # the weight covector of V_1 is read from the corrupted matrix as well
    assert sorted(failed) == ["comod.axioms_n1", "comod.weight_covector_n1",
                              "gram.inverse_binomial_n1",
                              "gram.positive_at_half_n1"]
    assert failed["gram.inverse_binomial_n1"] == (
        "base case: the coaction matrix of V_1 breaks the comodule axioms "
        "at ('coproduct', 0, 0)")


def test_doubled_v1_corner_is_unitary_and_fails_the_base_case(
        doubled_v1_corner):
    # both sides of w_0 t[0][0]* = w_0 S(t[0][0]) double, so unitarity
    # alone would accept the corrupted matrix: the axioms must catch it
    assert _unitarity_defect([ONE, ONE]) is None
    with pytest.raises(DomainError, match=r"^base case: .*V_1"):
        solve_coinvariant_gram(1)


def _step_witness(k, i):
    # the witness of step k when column i of V_k is not its reading
    return (f"step {k}: column {i} of the coaction matrix of V_{k} is not "
            f"its reading from V_1 (x) V_{k - 1}")


def test_a_doubled_v2_corner_is_unitary_and_fails_its_step(monkeypatch,
                                                           fresh_steps):
    # V_1 and the step's readings from it are sound, and unitarity doubles
    # on both sides again: only the reading of column 0 of V_2 from
    # V_1 (x) V_1 catches the corrupted entry
    _double_corner(monkeypatch, 2)
    assert gram_oracle.unitarity_defect(2, _inverse_binomials(2)) is None
    with pytest.raises(DomainError) as exc:
        solve_coinvariant_gram(2)
    assert str(exc.value) == _step_witness(2, 0)


@pytest.mark.parametrize("entry", [(n, j, i) for n in (2, 3)
                                   for j in range(n + 1) for i in range(n + 1)])
def test_every_doubled_v2_entry_fails_its_step(monkeypatch, fresh_steps,
                                               entry):
    # every entry of the cached V_2, and of the cached V_3: each column of
    # V_n is read from V_1 (x) V_(n-1) through y, through x or both, so no
    # entry escapes the certificate of step n, which names its column
    n, j, i = entry
    V = VnComodule(n)
    t = [row[:] for row in V.coaction_matrix]
    assert t[j][i]
    t[j][i] = t[j][i] * 2
    monkeypatch.setattr(V, "coaction_matrix", t)
    with pytest.raises(DomainError) as exc:
        comod._certified_step(n)
    assert str(exc.value) == _step_witness(n, i)


# the corner (col, col) of column col of V_k doubled as
# `_extend_coaction_matrix` builds it, by fault name: (k, col)
BUILT_WRONG_CORNERS = {"v2_column_0_built_doubled": (2, 0),
                       "v2_column_2_built_doubled": (2, 2),
                       "v3_column_0_built_doubled": (3, 0),
                       "v3_column_3_built_doubled": (3, 3)}


def _build_corner_doubled(monkeypatch, k, col):
    extend = comod._extend_coaction_matrix

    def doubled(t, n):
        out = extend(t, n)
        if n == k:
            out[col][col] = out[col][col] * 2
        return out
    monkeypatch.setattr(comod, "_extend_coaction_matrix", doubled)


@pytest.mark.parametrize("fault", sorted(BUILT_WRONG_CORNERS))
def test_a_corner_built_wrong_fails_the_gram_records(monkeypatch,
                                                     fresh_steps, fault):
    # the step certificate reads V_k from V_1 (x) V_(k-1), never through
    # the construction that built it wrong, so the Gram records fail with
    # the step's witness, next to the direct axioms record (and, for
    # column 0, the weight covector read from the same matrix)
    k, col = BUILT_WRONG_CORNERS[fault]
    _build_corner_doubled(monkeypatch, k, col)
    checks = {c["name"]: c for c in
              suites.SUITES["gram"](range(k, k + 1), 5, Fraction(1, 2))}
    for name in (f"gram.inverse_binomial_n{k}", f"gram.positive_at_half_n{k}"):
        assert checks[name]["status"] == "fail", name
        assert checks[name]["witness"] == _step_witness(k, col), name
    assert sorted(name for name, c in checks.items()
                  if c["status"] == "fail") == sorted(
        [f"comod.axioms_n{k}", f"gram.inverse_binomial_n{k}",
         f"gram.positive_at_half_n{k}"]
        + [f"comod.weight_covector_n{k}"] * (col == 0))


# the construction faults of the Gram suite's fault comparison: every entry
# of V_2 and V_3 doubled, times q or plus the unit as `_extend_coaction_matrix`
# builds it, by (k, j, i, change), and the flipped Manin sign: 76 faults
ENTRY_CHANGES = {"doubled": lambda x: x * 2, "times_q": lambda x: x * Q,
                 "plus_unit": lambda x: x + G.one()}
BUILD_FAULTS = [(k, j, i, change) for k in (2, 3) for j in range(k + 1)
                for i in range(k + 1) for change in sorted(ENTRY_CHANGES)]


def _build_entry_changed(monkeypatch, k, j, i, change):
    extend = comod._extend_coaction_matrix

    def changed(t, n):
        out = extend(t, n)
        if n == k:
            out[j][i] = ENTRY_CHANGES[change](out[j][i])
        return out
    monkeypatch.setattr(comod, "_extend_coaction_matrix", changed)


@pytest.mark.parametrize("fault", BUILD_FAULTS + ["flipped_manin_sign"],
                         ids=lambda f: "_".join(map(str, f))
                         if isinstance(f, tuple) else f)
def test_the_axioms_record_keeps_the_direct_verdict(request, monkeypatch,
                                                    fresh_steps, fault):
    # above n = 1 `comod.axioms_n{n}` reads the step certificate; under each
    # construction fault its verdict at n = 2, 3 is that of the comodule
    # axioms run directly on the V_n built with the fault
    if fault == "flipped_manin_sign":
        request.getfixturevalue(fault)
    else:
        _build_entry_changed(monkeypatch, *fault)
    checks = {c["name"]: c for c in
              suites.SUITES["gram"](range(2, 4), 5, Fraction(1, 2))}
    for n in (2, 3):
        direct = verify_comodule_axioms(n)
        record = checks[f"comod.axioms_n{n}"]
        assert (record["status"] == "pass") == (direct is None), (n, direct)


def test_a_wrong_manin_exponent_fails_at_step_2(fresh_steps,
                                                flipped_manin_sign):
    assert verify_comodule_axioms(1) is None
    for n in (2, 3):
        with pytest.raises(DomainError) as exc:
            solve_coinvariant_gram(n)
        assert str(exc.value) == _step_witness(2, 0), n


def _certificate(certify, n):
    # ("pass", the certified row) or ("fail", the message)
    try:
        return "pass", certify(n)
    except DomainError as exc:
        return "fail", str(exc)


CERTIFICATE_FAULTS = {
    "none": lambda request: None,
    "doubled_v1_corner": lambda request: _double_corner(
        request.getfixturevalue("monkeypatch"), 1),
    "flipped_manin_sign": lambda request: request.getfixturevalue(
        "flipped_manin_sign"),
    "doubled_v2_corner": lambda request: _double_corner(
        request.getfixturevalue("monkeypatch"), 2),
}


@pytest.mark.parametrize("fault", sorted(CERTIFICATE_FAULTS)
                         + sorted(BUILT_WRONG_CORNERS))
def test_cached_steps_match_the_per_n_chain(request, fresh_steps, fault):
    # the per-step certificate, which reads V_k from the left, gives the
    # verdict and the row of the old chain rebuilt from V_1 for each n with
    # the construction, on the sound matrices and under each fault, with
    # the steps certified by smaller n read from the cache.  Messages
    # differ by design
    if fault in CERTIFICATE_FAULTS:
        CERTIFICATE_FAULTS[fault](request)
        built_wrong = None
    else:
        built_wrong = BUILT_WRONG_CORNERS[fault]
        _build_corner_doubled(request.getfixturevalue("monkeypatch"),
                              *built_wrong)
    for n in range(7):
        got = _certificate(comod._certified_step, n)
        want = _certificate(comod_oracle.certify_corepresentation, n)
        if built_wrong is not None and n == built_wrong[0]:
            # the one intended difference: the chain runs the construction
            # that built the corner wrong, and its own inner columns agree,
            # so it passes V_n, while the left reading refuses the corner
            k, col = built_wrong
            assert want == ("pass", tuple(gauss_binomial(k, i, q_pow(-2))
                                          for i in range(k + 1)))
            assert got == ("fail", _step_witness(k, col))
        else:
            assert got[0] == want[0], (fault, n, got, want)
            if got[0] == "pass":
                assert got == want, (fault, n)
    if fault == "none":
        assert comod._certified_step.cache_info().currsize == 7


def test_resolution_curve_certifies_each_step_once():
    # `resolution --n 0..6` in one fresh process certifies the base cases
    # 0, 1 and the steps 2..6, each once, where rebuilding the chain per n
    # ran 15 steps; it builds V_1..V_6 with one extension each, and no
    # step runs the construction again: each reads V_k from V_(k-1)
    script = ("import contextlib, io\n"
              "from qsu2 import comod\n"
              "from qsu2.cli import main\n"
              "extend, degrees = comod._extend_coaction_matrix, []\n"
              "def counted(t, n):\n"
              "    degrees.append(n)\n"
              "    return extend(t, n)\n"
              "comod._extend_coaction_matrix = counted\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(['resolution', '--n', str(n)])"
              " for n in range(7)]\n"
              "info = comod._certified_step.cache_info()\n"
              "print(codes, info.misses, degrees)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[0, 0, 0, 0, 0, 0, 0] 7 [1, 2, 3, 4, 5, 6]\n"


def test_gram_without_an_antipode_is_a_domain_error(monkeypatch, capsys,
                                                    fresh_steps):
    # the negative control's Delta installed on G: V_0 passes its axioms,
    # so the base case reaches the antipode, whose solve failed; the Gram
    # checks fail with the failed solve as their witness.  fresh_steps: a
    # base case certified with the sound antipode would skip the solve
    corrupted = hopf._corrupted("G")
    assert corrupted.antipode is None
    monkeypatch.setattr(hopf, "_HOPF_G", corrupted)
    expect = r"^no antipode solution on G: inconsistent linear system$"
    with pytest.raises(DomainError, match=expect):
        _unitarity_defect([ONE, ONE])
    with pytest.raises(DomainError, match=expect):
        solve_coinvariant_gram(0)
    code = main(["verify", "gram", "--n", "0..0", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"]
              if c["status"] == "fail"}
    assert failed == dict.fromkeys(
        ["gram.inverse_binomial_n0", "gram.positive_at_half_n0"],
        "no antipode solution on G: inconsistent linear system")


def test_unitarity_rejects_the_all_ones_and_printed_order_diagonals():
    # on the full-loop oracle: the engine checks unitarity on V_1 alone
    for n in (2, 3):
        printed = _gram_order(n, STAR_SECOND)[2]
        assert printed != _inverse_binomials(n), n
        assert gram_oracle.unitarity_defect(n, printed) == (0, 1), n
        assert gram_oracle.unitarity_defect(n, [ONE] * (n + 1)) == (0, 1), n
        assert gram_oracle.unitarity_defect(
            n, _inverse_binomials(n)) is None, n


def test_unitarity_names_the_first_failing_pair_in_row_major_order(
        monkeypatch):
    # the base case on V_1: a corrupted t[1][0] first shows at (0, 1),
    # where S(t[1][0]) is compared, before (1, 0), where t[1][0]* is
    V = VnComodule(1)
    t = [row[:] for row in V.coaction_matrix]
    t[1][0] = t[1][0] + G.gen("b")
    monkeypatch.setattr(V, "coaction_matrix", t)
    assert _unitarity_defect([ONE, ONE]) == (0, 1)
    assert gram_oracle.unitarity_defect(1, [ONE, ONE]) == (0, 1)


def test_the_base_case_runs_once_per_process(monkeypatch, fresh_steps):
    # the base case is cached with the steps: solving V_0..V_6 checks the
    # axioms on V_0 and on V_1 once each and the unitarity of V_1 once,
    # where a base case run per n checked them 7 and 6 times
    axioms, unitarity = [], []
    verify, defect = comod.verify_comodule_axioms, comod._unitarity_defect

    def counted_axioms(n):
        axioms.append(n)
        return verify(n)

    def counted_defect(weights):
        unitarity.append(weights)
        return defect(weights)
    monkeypatch.setattr(comod, "verify_comodule_axioms", counted_axioms)
    monkeypatch.setattr(comod, "_unitarity_defect", counted_defect)
    for n in range(7):
        assert solve_coinvariant_gram(n).diag == _inverse_binomials(n), n
    assert axioms == [0, 1]
    assert unitarity == [(ONE, ONE)]


def test_a_wrong_antipode_fails_the_v1_base_case(monkeypatch, fresh_steps):
    # S(x) q^2 in place of S: V_1 and the steps are sound, so only the
    # unitarity of V_1 for diag(1, 1) sees it, first at t[0][0]* = S(t[0][0])
    S = hopf_G().require_antipode()
    monkeypatch.setattr(hopf.HopfAlgebra, "require_antipode",
                        lambda self: lambda x: S(x) * q_pow(2))
    assert solve_coinvariant_gram(0).diag == [ONE]
    for n in (1, 3):
        with pytest.raises(DomainError) as exc:
            solve_coinvariant_gram(n)
        assert str(exc.value) == (
            "base case: V_1 is not unitary for diag(1, 1): "
            "t[i][k]* != S(t[k][i]) at (i, k) = (0, 0)")


def test_step_rows_match_the_read_off_and_full_unitarity_oracles():
    # the q-Pascal rows against the weights the engine read off the
    # antipode before, certified by the unitarity it checked on all m^2
    # pairs of V_n
    for n in range(11):
        diag = solve_coinvariant_gram(n).diag
        assert diag == gram_oracle.read_off_diag(n), n
        assert gram_oracle.unitarity_defect(n, diag) is None, n
        assert diag == _inverse_binomials(n), n


def test_a_wrong_q_power_in_a_step_row_fails_the_gram_suite(fresh_steps,
                                                            monkeypatch):
    # the row of step 3 with one entry off by a factor q: V_3, and V_4,
    # whose row is built from it, print a diagonal that is not the inverse
    # binomials, while V_2 still passes.  fresh_steps comes first, so it
    # clears the rows built under the fault after the fault is undone
    certified = comod._certified_step

    def wrong_power(k):
        row = certified(k)
        return row[:1] + (row[1] * Q,) + row[2:] if k == 3 else row
    monkeypatch.setattr(comod, "_certified_step", wrong_power)
    checks = {c["name"]: c for c in
              suites.SUITES["gram"](range(2, 5), 5, Fraction(1, 2))}
    assert checks["gram.inverse_binomial_n2"]["status"] == "pass"
    for n in (3, 4):
        check = checks[f"gram.inverse_binomial_n{n}"]
        assert check["status"] == "fail", n
        assert check["witness"] != [str(d) for d in _inverse_binomials(n)]


def test_gram_stars_only_the_entries_of_v1(monkeypatch, fresh_steps):
    # no unitarity check above V_1: from cold caches, the Gram solve of
    # V_6 takes the star of the four entries of V_1 and nothing else
    starred = []

    def counted(x):
        starred.append(x)
        return star(x)
    monkeypatch.setattr(comod, "star", counted)
    assert solve_coinvariant_gram(6).diag == _inverse_binomials(6)
    assert starred == [x for row in VnComodule(1).coaction_matrix
                       for x in row]


def test_weight_covectors_span_yn():
    for n in range(1, 6):
        vs = weight_covectors(n, B.gen("lambda", -n))
        assert len(vs) == 1
        assert vs[0][0] == ONE  # the y^n coordinate
        assert all(x.is_zero() for x in vs[0][1:])


def test_weight_covector_mismatch_empty():
    assert weight_covectors(2, B.gen("lambda", -1)) == []


def test_weight_covectors_match_the_tensor_form_oracle():
    # read entry by entry from pi(t), the kernel columns carry the same
    # equations as the Manin (x) B monomials of (id x pi) rho(v) - v (x) chi,
    # so the reduced row echelon form, and with it the basis, is the same
    for n in range(7):
        for k in (n - 1, n, n + 1):
            if k < 0:
                continue
            chi = B.gen("lambda", -k)
            assert weight_covectors(n, chi) == \
                comod_oracle.weight_covectors(n, chi), (n, k)


def test_gram_n0_n1():
    g0 = solve_coinvariant_gram(0)
    assert g0.diag == [ONE]
    g1 = solve_coinvariant_gram(1)
    assert g1.diag == [ONE, ONE]


def test_gram_inverse_binomial():
    for n in range(5):
        g = solve_coinvariant_gram(n)
        assert g.diag == [gauss_binomial(n, i, q_pow(-2)).inverse()
                          for i in range(n + 1)]


def test_gram_positive_at_half():
    for n in range(5):
        g = solve_coinvariant_gram(n)
        assert all(d.specialize(Fraction(1, 2)) > 0 for d in g.diag)


def test_gram_coinvariance_exact():
    # re-verify the identity sum <w0|z0> w1* z1 = <w|z> 1 independently
    for n in range(5):
        g = solve_coinvariant_gram(n)
        t = VnComodule(n).coaction_matrix
        for k in range(n + 1):
            for l in range(n + 1):
                total = G.zero()
                for i in range(n + 1):
                    total = total + star(t[i][k]) * t[i][l] * g.diag[i]
                expect = G.scalar(g.diag[k]) if k == l else G.zero()
                assert total == expect


def test_haar_gram_matches_kernel_solve():
    # oracle: the full (n+1)^2 kernel solve in the star-first order has one
    # solution, it is diagonal, and it is the Haar average
    for n in range(7):
        assert _gram_order(n, STAR_FIRST) == (
            1, True, solve_coinvariant_gram(n).diag), n


def test_haar_gram_inverse_binomial_beyond_kernel_oracle():
    for n in (7, 8):
        assert solve_coinvariant_gram(n).diag == _inverse_binomials(n), n


def test_haar_gram_solves_no_kernel(monkeypatch):
    def refuse(columns):
        raise AssertionError("kernel_basis called")
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    assert solve_coinvariant_gram(3).diag == _inverse_binomials(3)


def test_haar_gram_certificate_rejects_counit_average(monkeypatch):
    # negative control on the Haar-averaged oracle: averaging with the
    # counit instead of the Haar integral gives a form that is not
    # coinvariant
    monkeypatch.setattr(gram_oracle, "haar", hopf_G().counit)
    for n in (2, 3):
        with pytest.raises(DomainError):
            gram_oracle.haar_solve(n)


def test_haar_gram_certificate_rejects_printed_order_diagonal():
    printed = _gram_order(1, STAR_SECOND)[2]
    assert printed == [ONE, q_pow(-2)]
    products = gram_oracle.products_k_le_l(1)
    assert gram_oracle.laurent_defect(products, printed) is not None
    assert gram_oracle.laurent_defect(products, _inverse_binomials(1)) is None
    # an off-diagonal pair is checked too
    products[0, 1][1] = products[0, 1][1] + G.one()
    assert gram_oracle.laurent_defect(
        products, _inverse_binomials(1)) == (0, 1)
    # the engine's base case rejects the printed order as well
    assert _unitarity_defect(printed) == (0, 1)


def test_haar_gram_matches_fraction_oracle():
    # the antipode solve, the m^3 Haar average and the fraction-free Haar
    # average give the same form, and both Haar certificates accept it
    for n in range(9):
        diag = solve_coinvariant_gram(n).diag
        assert diag == gram_oracle.gram_diag(n) == _inverse_binomials(n), n
        assert diag == gram_oracle.haar_solve(n), n
        assert gram_oracle.coinvariance_defect(
            gram_oracle.star_first_products(n), diag) is None, n
        products = gram_oracle.products_k_le_l(n)
        assert gram_oracle.laurent_defect(
            products, gram_oracle.laurent_weights(diag)) is None
        # the identity is homogeneous: the fractional weights pass as well
        if n <= 4:
            assert gram_oracle.laurent_defect(products, diag) is None, n


def test_star_first_products_cover_k_le_l_in_row_major_order():
    for n in range(4):
        m = n + 1
        full = gram_oracle.star_first_products(n)
        products = gram_oracle.products_k_le_l(n)
        assert list(products) == [(k, l) for k in range(m)
                                  for l in range(k, m)]
        for (k, l), column in products.items():
            assert column == [full[i][k][l] for i in range(m)], (n, k, l)


def test_both_certificates_reject_the_printed_order_diagonal():
    printed = _gram_order(1, STAR_SECOND)[2]
    assert printed == [ONE, q_pow(-2)]
    witness = gram_oracle.coinvariance_defect(
        gram_oracle.star_first_products(1), printed)
    assert witness is not None
    products = gram_oracle.products_k_le_l(1)
    assert gram_oracle.laurent_defect(
        products, gram_oracle.laurent_weights(printed)) == witness
    assert gram_oracle.laurent_defect(products, printed) == witness


def test_both_certificates_reject_the_counit_average():
    counit = hopf_G().counit
    for n in (2, 3):
        m = n + 1
        full = gram_oracle.star_first_products(n)
        raw = [sum((counit(full[i][k][k]) for i in range(m)), ZERO)
               for k in range(m)]
        diag = [r / raw[0] for r in raw]
        witness = gram_oracle.coinvariance_defect(full, diag)
        assert witness is not None, n
        assert gram_oracle.laurent_defect(
            gram_oracle.products_k_le_l(n),
            gram_oracle.laurent_weights(diag)) == witness, n


def test_both_certificates_report_a_corrupted_off_diagonal_product():
    for n in (1, 2, 3):
        diag = _inverse_binomials(n)
        full = gram_oracle.star_first_products(n)
        full[1][0][1] = full[1][0][1] + G.one()
        assert gram_oracle.coinvariance_defect(full, diag) == (0, 1), n
        products = gram_oracle.products_k_le_l(n)
        products[0, 1][1] = products[0, 1][1] + G.one()
        assert gram_oracle.laurent_defect(
            products, gram_oracle.laurent_weights(diag)) == (0, 1), n


def test_laurent_weights_are_laurent_and_proportional():
    for n in range(9):
        diag = _inverse_binomials(n)
        weights = gram_oracle.laurent_weights(diag)
        assert all(w.den == (1,) for w in weights), n
        assert all(w == diag[i] * weights[0] for i, w in enumerate(weights))


def test_gram_certificate_runs_no_gcd(monkeypatch):
    # the certificate inside the fraction-free Haar oracle is handed
    # Laurent weights, so with the polynomial gcd disabled it still
    # certifies
    def no_gcd(f, g):
        raise AssertionError("polynomial gcd in the certificate")

    certify = gram_oracle.laurent_defect
    calls = []

    def guarded(products, weights):
        calls.append(weights)
        assert all(w.den == (1,) for w in weights)
        with monkeypatch.context() as patch:
            patch.setattr(scalars, "_pgcd_full", no_gcd)
            return certify(products, weights)

    monkeypatch.setattr(gram_oracle, "laurent_defect", guarded)
    for n in range(7):
        assert gram_oracle.haar_solve(n) == _inverse_binomials(n), n
    assert len(calls) == 7


def test_printed_order_not_orthonormal():
    rep = gram_order_report(1)
    assert rep[STAR_SECOND]["diagonal"]
    assert rep[STAR_SECOND]["matches_inverse_binomial"] is False
    assert rep[STAR_FIRST]["matches_inverse_binomial"] is True


def test_pairing_examples():
    # F = sum_i e_i (x) F[i] is given by its components over e_0 = y, e_1 = x
    g1 = solve_coinvariant_gram(1)
    y_d = [G.gen("d"), G.zero()]
    # <y (x) d | y> = g_0 d = d
    assert pairing(y_d, [ONE, ZERO], g1) == G.gen("d")
    x_u = [G.zero(), G.gen("a")]
    # orthogonality: <x (x) a | y> = 0
    assert pairing(x_u, [ONE, ZERO], g1).is_zero()
    both = [G.one(), G.gen("a")]
    # <x (x) a + y (x) 1 | x> = g_1 a
    assert pairing(both, [ZERO, ONE], g1) == G.gen("a") * g1.diag[1]


def test_schur_scalar():
    assert schur_scalar([[ONE, ZERO], [ZERO, ONE]], 1) == ONE
    assert schur_scalar([[Q, ZERO], [ZERO, Q]], 1) == Q
    with pytest.raises(NonScalarError) as exc:
        schur_scalar([[ONE, ZERO], [ZERO, Q]], 1)
    assert exc.value.entry == (1, 1)


def test_simplicity_probe():
    for n in range(4):
        assert intertwiner_space_dimension(n) == 1
