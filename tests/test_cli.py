import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qsu2 import cli
from qsu2.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_nf(capsys):
    code, out, _ = run(capsys, "eval", "d a", "--algebra", "G",
                       "--action", "nf")
    assert code == 0
    assert out.strip() == "1 + q^-1 b c"


def test_eval_star(capsys):
    code, out, _ = run(capsys, "eval", "b", "--action", "star")
    assert code == 0
    assert out.strip() == "-q c"


def test_eval_haar_reduced(capsys):
    code, out, _ = run(capsys, "eval", "b c", "--action", "haar")
    assert code == 0
    assert out.strip() == "-q/(q^2 + 1)"


def test_haar_with_specialization(capsys):
    code, out, _ = run(capsys, "haar", "b c", "--q", "1/2")
    assert code == 0
    assert "at q = 1/2: -2/5" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "((b", "--action", "nf")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("expr, message", [
    ("", "unexpected end of input"), ("a +", "unexpected end of input"),
    ("a *", "unexpected end of input"), ("-", "unexpected end of input"),
    ("2/", "unexpected end of input"), ("(a", "expected ), got end of input"),
])
def test_a_parse_error_at_the_end_names_the_end_of_input(capsys, expr,
                                                         message):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"
    assert "None" not in err


def test_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "eval", "b^-1", "--algebra", "G_b",
                       "--action", "star")
    assert code == 3
    assert "domain error" in err


def test_verify_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "haar", "--format", "text")
    assert code == 0
    assert "0 failed" in out


def test_verify_negative_control_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "hopf_negative_control",
                       "--format", "json")
    assert code == 1
    rep = json.loads(out)
    failed = [c for c in rep["checks"] if c["status"] == "fail"]
    assert failed and any("witness" in c for c in failed)


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "resolution", "--n", "1",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert all("paper_anchor" in c for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)


def test_verify_deterministic_given_seed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "gram", "--n", "0..2",
                           "--seed", "7", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        rep.pop("runtime_ms")  # wall-clock field excluded from determinism
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_resolution_command(capsys):
    code, out, _ = run(capsys, "resolution", "--n", "2", "--q", "1/2")
    assert code == 0
    rep = json.loads(out)
    assert rep["alpha_exact"] == "q^4/(q^4 + q^2 + 1)"
    assert rep["alpha_at_q"] == "1/21"
    assert rep["matrix_is_scalar"] and rep["chart_agreement"]
    assert all(c["matches_closed_form"] for c in rep["lemma_checks"])


def test_resolution_tsv(capsys):
    code, out, _ = run(capsys, "resolution", "--n", "1", "--format", "tsv")
    assert code == 0
    assert out.startswith("key\tvalue")


def test_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_tsv_format(capsys):
    code, out, _ = run(capsys, "verify", "haar", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "name\tstatus\tpaper_anchor\twitness"


class ClosedPipe(list):
    """argv run with a stdout whose reader has gone, as under
    `qsu2 ... | head -1`: every write to it raises BrokenPipeError."""


@pytest.mark.parametrize("argv, expected", [
    (["eval", "a^-1"], 3),
    (["eval", "a/b"], 3),
    (["eval", "1/(q-q)"], 3),
    (["haar", "1/(q-1)", "--q", "1"], 3),
    (["verify", "haar", "--q", "2"], 3),
    (["verify", "gram", "--n", "3..1"], 2),
    (["resolution", "--n", "-1"], 2),
    (["resolution", "--n", "2..5"], 2),
    (["verify", "cover", "--degree", "-1"], 1),
    (["verify", "haar", "--q", "1/0"], 2),
    (["eval", "a", "--action", "haar", "--q", "1/0"], 2),
    (["resolution", "--n", "1", "--q", "1/0"], 2),
    (["verify", "theorem4", "--n", "5..6"], 0),
    (["verify", "theorem4", "--n", "0..0"], 1),
    (["verify", "coherent", "--n", "5..5"], 0),
    (["verify", "haar", "--degree", "-2"], 0),
    (["verify", "hopf", "--degree", "-1"], 0),
    (["verify", "charts", "--degree", "-1"], 0),
    (ClosedPipe(["verify", "cover", "--format", "tsv"]), 0),
    (ClosedPipe(["verify", "hopf_negative_control", "--format", "tsv"]), 1),
    (ClosedPipe(["resolution", "--n", "2"]), 0),
    # q = 2 is outside the positivity regime, which only `haar` reads
    (["verify", "all", "--q", "2"], 3),
    (["verify", "charts", "--q", "2"], 0),
])
def test_exit_code_contract(capsys, monkeypatch, argv, expected):
    if isinstance(argv, ClosedPipe):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code, out, err = run(capsys, *argv)
    else:
        code, out, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected == 3:
        assert err.startswith("domain error:")
    if expected in (2, 3):
        assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "gram", "--q", "abc"],
     "argument --q: q must be a positive rational P/R, got 'abc'"),
    (["verify", "gram", "--q", "-1"],
     "argument --q: q must be a positive rational P/R, got '-1'"),
    (["verify", "gram", "--n", "x"],
     "argument --n: 'x' is not a nonempty range A..B of degrees >= 0"),
    (["verify", "gram", "--n", "1..x"],
     "argument --n: '1..x' is not a nonempty range A..B of degrees >= 0"),
    (["resolution", "--n", "x"],
     "argument --n: expected one N >= 0, got 'x'"),
    (["resolution", "--n", "2..5"],
     "argument --n: expected one N >= 0, got '2..5'"),
    (["eval", "a", "--action", "haar", "--q", "abc"],
     "argument --q: q must be a positive rational P/R, got 'abc'"),
    # the reports print q: a q past Python's int-to-string digit limit
    # (4,300 by default) could not be printed
    (["haar", "b c", "--q", "1e-10000"],
     "argument --q: q = '1e-10000' is past Python's int-to-string digit "
     "limit"),
    (["resolution", "--n", "1", "--q", "1e-10000"],
     "argument --q: q = '1e-10000' is past Python's int-to-string digit "
     "limit"),
    (["verify", "haar", "--q", "1e-10000"],
     "argument --q: q = '1e-10000' is past Python's int-to-string digit "
     "limit"),
], ids=["q_abc", "q_negative", "n_x", "n_1..x", "resolution_n_x",
        "resolution_n_2..5", "eval_q_abc", "haar_q_digits",
        "resolution_q_digits", "verify_q_digits"])
def test_a_malformed_value_names_the_expected_form(capsys, argv, message):
    # argparse names the type function of a value that raises ValueError;
    # each parser raises ArgumentTypeError instead, which names the form
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(message)
    assert "_parse" not in err


def test_check_without_requested_n_is_skipped(capsys):
    # theorem4 needs an n >= 1: it skips and says so; it neither passes on
    # zero samples nor runs on an n that was not requested
    _, out, _ = run(capsys, "verify", "theorem4", "--n", "0..0",
                    "--format", "json")
    check, = json.loads(out)["checks"]
    assert (check["name"], check["status"], check["witness"]) == (
        "theorem4.scalar", "skip", "no n >= 1 among the requested 0..0")


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cover_without_a_degree_is_skipped(capsys, degree):
    # the equalizer is checked on degrees 1..degree: an empty range is one
    # skip that names it, and the exit stays 1 (no check passed)
    code, out, _ = run(capsys, "verify", "cover", "--degree", degree,
                       "--format", "json")
    check, = json.loads(out)["checks"]
    assert code == 1
    assert (check["name"], check["status"], check["witness"]) == (
        "cover.equalizer", "skip", f"no degree in the empty range 1..{degree}")


@pytest.mark.parametrize("suite, n, names", [
    ("theorem4", "5..6", ["theorem4.scalar_n5", "theorem4.scalar_n6"]),
    ("coherent", "5..5", ["reproducing.exact"]),
])
def test_every_requested_n_is_checked(capsys, suite, n, names):
    # no check drops a requested n: n = 5 and 6 are checked, not skipped
    code, out, _ = run(capsys, "verify", suite, "--n", n, "--format", "json")
    checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert code == 0
    assert {name: checks.get(name) for name in names} == dict.fromkeys(
        names, "pass")
    assert "skip" not in checks.values()


@pytest.mark.parametrize("suite, degree, names", [
    ("haar", "-2", {"haar.left_invariance_deg-2": "skip",
                    "haar.right_invariance_deg-2": "skip"}),
    # laws decided on the generators read no degree: they pass at any
    ("hopf", "-1", {"pi.coproduct_compat": "pass",
                    "pi.counit_compat": "pass"}),
    ("charts", "-1", {"b-chart.rho_B_restricts": "pass",
                      "d-chart.rho_B_restricts": "pass"}),
])
def test_law_on_no_basis_monomial_is_skipped(capsys, suite, degree, names):
    # a law checked on an empty word list skips and names the degree
    _, out, _ = run(capsys, "verify", suite, "--degree", degree,
                    "--format", "json")
    checks = json.loads(out)["checks"]
    empty = {c["name"] for c in checks
             if c.get("witness") == f"no basis monomial of degree <= {degree}"}
    assert empty == {name for name, status in names.items()
                     if status == "skip"}
    assert {c["name"]: c["status"] for c in checks
            if c["name"] in names} == names
    assert not any(c["status"] == "fail" for c in checks)


# generators of every algebra, so that most draws use one foreign to the
# chosen algebra and must fail to parse
_ATOMS = ["a", "b", "c", "d", "lambda", "xi", "x", "y", "q", "1/2", "(q-q)",
          "0", "1", "2", "(-3)"]
_powers = st.tuples(st.sampled_from(_ATOMS), st.integers(-3, 3)).map(
    lambda t: f"{t[0]}^{t[1]}")
_exprs = st.recursive(
    st.sampled_from(_ATOMS) | _powers,
    lambda e: st.tuples(e, st.sampled_from([" + ", " - ", " ", "*", "/"]),
                        e).map("".join) | e.map(lambda x: f"({x})"),
    max_leaves=4)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=_exprs,
       algebra=st.sampled_from(["G", "G_b", "G_d", "G_bd", "B", "M"]),
       action=st.sampled_from(["nf", "coproduct", "star", "haar"]),
       q=st.sampled_from([None, "1/2", "1", "3", "1/0", "0"]))
def test_eval_fuzz_keeps_exit_code_contract(capsys, expr, algebra, action, q):
    argv = ["eval", expr, "--algebra", algebra, "--action", action]
    code, _, err = run(capsys, *argv, *(["--q", q] if q else []))
    assert code in (0, 2, 3), (argv, q, err)
    assert "Traceback" not in err


# n <= 2 and degree <= 3 keep each suite under about 0.2 s
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suite=st.sampled_from(["haar", "gram", "cover", "resolution", "typos",
                              "charts", "rewriting"]),
       n=st.sampled_from(["0", "0..2", "2..1", "-1", "..2", "1..", "x"]),
       degree=st.sampled_from([str(d) for d in range(-2, 4)] + ["x"]),
       q=st.sampled_from(["1/2", "3/4", "1", "2", "0", "-1", "1/0", "x",
                          "1e-2200"]),
       seed=st.integers())
def test_verify_fuzz_keeps_exit_code_contract(capsys, suite, n, degree, q,
                                              seed):
    argv = ["verify", suite, "--n", n, "--degree", degree, "--q", q,
            "--seed", str(seed)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("depth, code", [(1, 0), (200, 0), (201, 2),
                                         (250, 2), (1000, 2)])
def test_nested_parentheses_parse_or_fail_with_exit_2(capsys, depth, code):
    # the recursive descent spends four frames on each level: past
    # MAX_NESTING levels it refuses the input instead of overflowing the
    # Python stack
    expr = "(" * depth + "a" + ")" * depth
    got, out, err = run(capsys, "eval", expr)
    assert got == code
    if code:
        assert err == "parse error: parentheses nest over 200 deep\n"
    else:
        assert out == "a\n"


PAST_DIGIT_LIMIT = ("domain error: the result is past Python's "
                    "int-to-string digit limit")


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "1" * 5000 + " a"], 2,
     "parse error: an integer literal of 5000 digits is too long"),
    (["eval", "2^20000"], 3, PAST_DIGIT_LIMIT),
    (["haar", "b c", "--q", "1e-4000"], 3, PAST_DIGIT_LIMIT),
    (["resolution", "--n", "1", "--q", "1e-4000"], 3, PAST_DIGIT_LIMIT),
    (["verify", "resolution", "--n", "1..1", "--q", "1e-2200"], 3,
     PAST_DIGIT_LIMIT),
    (["verify", "all", "--q", "1e-4000"], 3, PAST_DIGIT_LIMIT),
], ids=["literal", "eval_result", "haar_at_q", "resolution_alpha_at_q",
        "verify_resolution_witness", "verify_all"])
def test_an_integer_past_the_digit_limit_keeps_the_exit_code_contract(
        capsys, argv, code, message):
    # Python refuses to convert an int of more digits than its limit (4,300
    # by default) to a string: a literal past it is a parse error, and a
    # result that holds one, a printed alpha or a check's witness, is a
    # domain error, with one message and nothing on stdout
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("q", ["1e-3000000", "1E+3000000", "2.5e-1000000"])
def test_a_huge_q_exponent_is_refused_before_fraction_builds_it(
        capsys, monkeypatch, q):
    # Fraction("1e-N") builds 10^N, so an exponent whose size alone puts q
    # past the digit limit is refused before Fraction sees the text, with
    # the message of the printability check; a q of 4,001 printed digits
    # still reaches Fraction, and its result at q is past the limit
    seen = []

    def spy(*args):
        seen.append(args)
        return Fraction(*args)
    monkeypatch.setattr(cli, "Fraction", spy)
    code, out, err = run(capsys, "haar", "b c", "--q", q)
    assert (code, out, (q,) in seen) == (2, "", False)
    assert err.splitlines()[-1].endswith(
        f"argument --q: q = {q!r} is past Python's int-to-string digit limit")
    code, out, err = run(capsys, "haar", "b c", "--q", "1e-4000")
    assert (code, out, err) == (3, "", PAST_DIGIT_LIMIT + "\n")
    assert ("1e-4000",) in seen


@pytest.mark.parametrize("command", ["cmd_eval", "cmd_verify",
                                     "cmd_resolution"])
def test_an_unrelated_value_error_propagates_out_of_main(
        capsys, monkeypatch, command):
    # main maps a ParseError, a DomainError, a zero divisor and the digit
    # limit to exit codes, and no other ValueError: that one ends in a
    # traceback, which the tests and the benchmark's `raised` flag see
    def broken(args):
        print("half a report")
        raise ValueError("not a domain error")
    argv = {"cmd_eval": ["eval", "a"], "cmd_verify": ["verify", "haar"],
            "cmd_resolution": ["resolution", "--n", "1"]}[command]
    monkeypatch.setattr(cli, command, broken)
    with pytest.raises(ValueError, match="^not a domain error$"):
        main(argv)
    assert capsys.readouterr().err == ""
