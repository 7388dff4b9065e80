import pytest

from qsu2.comod import NonScalarError
from qsu2.ncalg import DomainError
from qsu2.report import VerificationReport, check
from qsu2.scalars import PoleError


def verdict(ok, witness=None):
    return lambda: (ok, witness)


def test_check_status_and_witness():
    assert check("x", "anchor", verdict(True, (1, 2))) == {
        "name": "x", "status": "pass", "paper_anchor": "anchor"}
    assert check("x", "anchor", verdict(False, (1, 2))) == {
        "name": "x", "status": "fail", "paper_anchor": "anchor",
        "witness": "(1, 2)"}
    assert "witness" not in check("x", "anchor", verdict(False))
    # a falsy witness is still a witness
    assert check("x", "anchor", verdict(False, 0))["witness"] == "0"


def test_a_body_that_returns_none_skips():
    skipped = check("x", "anchor", verdict(None, "no involution"))
    assert skipped == {"name": "x", "status": "skip", "paper_anchor": "anchor",
                       "witness": "no involution"}


def test_keep_witness_records_the_witness_of_a_pass():
    kept = check("x", "anchor", verdict(True, 3), keep_witness=True)
    assert kept["status"] == "pass" and kept["witness"] == "3"
    failed = check("x", "anchor", verdict(False, 3), keep_witness=True)
    assert failed["status"] == "fail" and failed["witness"] == "3"


@pytest.mark.parametrize("error", [
    DomainError("b-chart: no gamma in the Gauss ansatz"),
    NonScalarError((1, 1), 2)], ids=["DomainError", "NonScalarError"])
def test_an_engine_error_in_the_body_fails_the_check(error):
    def body():
        raise error

    assert check("x", "anchor", body) == {
        "name": "x", "status": "fail", "paper_anchor": "anchor",
        "witness": str(error)}
    # the witness is the error, whether or not a pass would keep it
    assert check("x", "anchor", body, keep_witness=True)["witness"] == str(
        error)


@pytest.mark.parametrize("error", [
    PoleError("pole at q = 1"), ZeroDivisionError("division by zero"),
    ValueError("Exceeds the limit (4300 digits) for integer string "
               "conversion")], ids=["PoleError", "ZeroDivisionError",
                                    "ValueError"])
def test_an_error_from_user_input_propagates(error):
    # the CLI turns these into exit 3, not into a failed check
    def body():
        raise error

    with pytest.raises(type(error)) as raised:
        check("x", "anchor", body)
    assert raised.value is error


def test_report_passes_only_with_a_pass():
    skip = check("s", "anchor", verdict(None, "no n in range"))
    ok = check("p", "anchor", verdict(True))
    bad = check("f", "anchor", verdict(False))

    def passed(*checks):
        return VerificationReport("x", list(checks), 0, 0).passed

    assert not passed()
    assert not passed(skip)
    assert passed(skip, ok)
    assert not passed(ok, bad)
