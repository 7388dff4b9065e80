from qsu2.report import VerificationReport, check


def test_check_status_and_witness():
    assert check("x", True, "anchor", (1, 2)) == {
        "name": "x", "status": "pass", "paper_anchor": "anchor"}
    assert check("x", False, "anchor", (1, 2)) == {
        "name": "x", "status": "fail", "paper_anchor": "anchor",
        "witness": "(1, 2)"}
    assert "witness" not in check("x", False, "anchor")
    # a falsy witness is still a witness
    assert check("x", False, "anchor", 0)["witness"] == "0"
    skipped = check("x", None, "anchor", "no involution")
    assert skipped["status"] == "skip"
    assert skipped["witness"] == "no involution"
    kept = check("x", True, "anchor", 3, keep_witness=True)
    assert kept["status"] == "pass" and kept["witness"] == "3"


def test_report_passes_only_with_a_pass():
    skip = check("s", None, "anchor", "no n in range")
    ok = check("p", True, "anchor")
    bad = check("f", False, "anchor")

    def passed(*checks):
        return VerificationReport("x", list(checks), 0, 0).passed

    assert not passed()
    assert not passed(skip)
    assert passed(skip, ok)
    assert not passed(ok, bad)
