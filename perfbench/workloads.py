"""The three benchmark workloads: their inputs and their output oracles.

Every workload is a list of ``qsu2`` command lines run in one cold process.
The oracles compare each output with a golden copy in ``golden/``,
recorded by ``record_golden.py`` at the commit that introduced the
benchmark, with the ``runtime_ms`` field stripped.

- ``verify_all``: ``qsu2 verify all`` with the CLI defaults (n 0..3,
  degree 5, suite seed 0, q = 1/2).  The golden report is fixed, so the
  input is the same for every benchmark seed.
- ``resolution_curve``: ``qsu2 resolution --n k`` for k = 0..6, ascending;
  also the same for every seed.  alpha at q = 1/2 is checked against
  q^n/[n+1]_q computed here with plain Fractions.
- ``eval_mix``: 2000 ``qsu2 eval`` requests drawn by the seed, without
  repetition, from a recorded pool of twice that many, in a fixed mix of
  actions and algebras; 6% are malformed or out-of-domain.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RESOLUTION_NS = range(0, 7)

# category -> requests per batch.  The pool holds twice as many of each.
EVAL_MIX = {
    "nf_G": 400, "nf_G_b": 240, "nf_G_d": 240, "nf_G_bd": 240,
    "star_G": 280, "coproduct_G": 240, "haar_G": 240,
    "parse_error": 40,   # exit 2
    "domain_error": 40,  # exit 3
    # ROADMAP item 4: `a^-1`, division by a non-scalar and `1/(q-q)` on G
    # end in a traceback (exit 1) where the contract says 3.
    "known_defect": 40,
}


def normalize(stdout: str) -> str:
    """The output with a JSON report's wall-clock runtime_ms removed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(doc, dict) and "runtime_ms" in doc:
        del doc["runtime_ms"]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return stdout


def _load(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


class Outcome:
    """Checked operations of one process: `failed` are wrong answers,
    `defects` are recorded known defects (a traceback that matches the
    golden copy)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = 0
        self.errors = []

    def fail(self, why, n=1):
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)


# the suites `verify all` runs, named here because the benchmark's parent
# process does not import qsu2
SUITES = ["rewriting", "hopf", "haar", "gram", "charts", "cover", "bundle",
          "coherent", "theorem4", "resolution", "typos"]


class VerifyAll:
    name = "verify_all"
    suite_latency = True   # latency unit: one suite
    # per-layer metrics a traced run must see above zero
    required = ["scalars.mul_calls", "scalars.add_calls", "scalars.div_calls",
                "ncalg.mul_mono_calls", "ncalg.map_calls", "ncalg.star_calls",
                "haar.calls", "linalg.kernel_calls", "comod.gram_calls",
                "hopf.verify_s"] + [f"suites.{s}_s" for s in SUITES] + [
                f"coherent.resolution_n{n}_s" for n in range(4)]

    def cases(self, seed):
        return [["verify", "all", "--format", "json"]]

    def check(self, seed, results) -> Outcome:
        golden = _load("verify_all.json")
        expected = json.loads(golden["stdout"])["checks"]
        out = Outcome()
        code, stdout, raised, tb = results[0]
        try:
            checks = json.loads(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            checks = []
        out.attempted = max(len(checks), len(expected), 1)
        if not checks:
            out.fail("report holds no checks", out.attempted)
            return out
        by_name = {c["name"]: c for c in checks}
        for want in expected:
            got = by_name.get(want["name"])
            if got != want or got["status"] == "fail":
                out.fail(f"check {want['name']}: {got}")
        if len(checks) != len(expected):
            out.fail(f"{len(checks)} checks, golden has {len(expected)}")
        if (code, normalize(stdout), raised or tb) != \
                (golden["exit"], golden["stdout"], False) and not out.failed:
            out.fail("report differs from the golden copy")
        return out


def expected_alpha(n: int, q=Fraction(1, 2)) -> Fraction:
    """q^n / [n+1]_q with the symmetric q-number, in plain Fractions."""
    q_number = sum(q ** (n - 2 * k) for k in range(n + 1))
    return q ** n / q_number


class ResolutionCurve:
    name = "resolution_curve"
    suite_latency = False  # latency unit: one `qsu2 resolution --n k`
    required = ["scalars.mul_calls", "scalars.add_calls",
                "ncalg.mul_mono_calls", "ncalg.star_calls", "haar.calls",
                "linalg.kernel_calls", "linalg.kernel_cols",
                "comod.gram_calls"] + [
                f"coherent.resolution_n{n}_s" for n in RESOLUTION_NS]

    def cases(self, seed):
        return [["resolution", "--n", str(n)] for n in RESOLUTION_NS]

    def check(self, seed, results) -> Outcome:
        golden = _load("resolution_curve.json")
        out = Outcome()
        for n, (code, stdout, raised, tb) in zip(RESOLUTION_NS, results):
            out.attempted += 1
            want = golden[str(n)]
            try:
                doc = json.loads(stdout)
                alpha = Fraction(doc["alpha_at_q"])
            except (ValueError, KeyError, TypeError):
                out.fail(f"n={n}: unreadable report")
                continue
            if alpha != expected_alpha(n):
                out.fail(f"n={n}: alpha {alpha} != {expected_alpha(n)}")
            elif (code, normalize(stdout), raised or tb) != \
                    (want["exit"], want["stdout"], False):
                out.fail(f"n={n}: report differs from the golden copy")
        if len(results) != len(RESOLUTION_NS):
            out.fail(f"{len(results)} reports for {len(RESOLUTION_NS)} n")
        return out


class EvalMix:
    name = "eval_mix"
    suite_latency = False  # latency unit: one request
    required = ["scalars.mul_calls", "scalars.add_calls", "scalars.div_calls",
                "ncalg.mul_mono_calls", "ncalg.map_calls", "ncalg.star_calls",
                "ncalg.parse_self_s", "haar.calls"]

    def _draw(self, seed):
        pool = _load("eval_pool.json")
        rng = random.Random(seed)
        batch = []
        for cat, count in EVAL_MIX.items():
            batch += rng.sample(pool[cat], count)
        rng.shuffle(batch)
        return batch

    def cases(self, seed):
        return [entry[0] for entry in self._draw(seed)]

    def check(self, seed, results) -> Outcome:
        out = Outcome()
        batch = self._draw(seed)
        if len(results) != len(batch):
            out.fail(f"{len(results)} results for {len(batch)} requests")
        for (argv, g_code, g_stdout, g_raised), r in zip(batch, results):
            code, stdout, raised, tb = r
            out.attempted += 1
            clean = not raised and not tb
            if (code, stdout) == (g_code, g_stdout) and clean:
                continue
            if g_raised:
                if (code, stdout) == (g_code, g_stdout):
                    out.defects += 1       # the recorded defect, unchanged
                    continue
                if clean and code in (2, 3) and not stdout:
                    continue               # fixed: now a contract exit code
            out.fail(f"{argv}: exit {code}, raised {raised or tb}, "
                     f"stdout {stdout[:80]!r}")
        return out


WORKLOADS = {w.name: w for w in (VerifyAll(), ResolutionCurve(), EvalMix())}
