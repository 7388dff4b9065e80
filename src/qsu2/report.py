"""Machine-readable verification reports (shared JSON schema, version 1).

A report is deterministic up to the runtime_ms field, which is
wall-clock by nature; consumers comparing reports byte-for-byte should
strip it first.  No check samples, so the `seed` field only records the
seed the caller passed.  Checks are ordered by name.  A check that
raises fails: `attempt` is the one place that turns an engine error raised
inside a check into that check's `fail`, so a report lists the same check
names whether or not something raised.
"""

from __future__ import annotations

import json
import time

from .ncalg import DomainError

SCHEMA_VERSION = 1


def check(name, ok, anchor, witness=None, keep_witness=False):
    """One check record: name, status, paper anchor and, where kept, witness.

    `ok` is truthy for pass, falsy for fail and None for skip.  A witness
    explains a failed or skipped check and is dropped from a passing one,
    unless `keep_witness` marks it as a value the report records either way.
    The witness is stored as its string form.
    """
    status = "skip" if ok is None else "pass" if ok else "fail"
    out = {"name": name, "status": status, "paper_anchor": anchor}
    if witness is not None and (status != "pass" or keep_witness):
        out["witness"] = str(witness)
    return out


def attempt(name, anchor, body, keep_witness=False):
    """The check record of `body()`, which returns (ok, witness); a body that
    raises a DomainError fails, with the error as its witness."""
    try:
        ok, witness = body()
    except DomainError as exc:
        ok, witness = False, exc
    return check(name, ok, anchor, witness, keep_witness)


class VerificationReport:
    def __init__(self, suite: str, checks, seed: int, runtime_ms: int):
        self.suite = suite
        self.checks = sorted(checks, key=lambda c: c["name"])
        self.seed = seed
        self.runtime_ms = runtime_ms

    @property
    def passed(self) -> bool:
        """No check failed, and at least one passed: a report that is empty
        or holds only skips fails."""
        statuses = {c["status"] for c in self.checks}
        return "pass" in statuses and "fail" not in statuses

    def counts(self):
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c["status"]] = out.get(c["status"], 0) + 1
        return out

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_tsv(self) -> str:
        lines = ["name\tstatus\tpaper_anchor\twitness"]
        for c in self.checks:
            lines.append("\t".join([
                c["name"], c["status"], c.get("paper_anchor", ""),
                str(c.get("witness", "")).replace("\t", " "),
            ]))
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}[c["status"]]
            line = f"  [{mark}] {c['name']}"
            if c["status"] != "pass" and "witness" in c:
                line += f"  -- {c['witness']}"
            lines.append(line)
        counts = self.counts()
        lines.append(f"  {counts['pass']} passed, {counts['fail']} failed, "
                     f"{counts['skip']} skipped")
        return "\n".join(lines)


class timed:
    """Context manager measuring wall time in milliseconds."""

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.ms = int((time.monotonic() - self.t0) * 1000)
        return False
