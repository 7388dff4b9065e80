"""Record the golden outputs the benchmark's oracles compare against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it from the repository root at the commit whose answers are taken as
correct.  It writes ``perfbench/golden/``:

- ``verify_all.json``: the ``qsu2 verify all --format json`` report;
- ``resolution_curve.json``: the ``qsu2 resolution --n k`` report, k = 0..6;
- ``eval_pool.json``: the ``qsu2 eval`` request pool, generated here from a
  fixed seed, with each request's exit code, stdout and whether it raised.

Reports are stored with ``runtime_ms`` removed.  Every pool request is
checked to end the way its category says (exit 0, 2 or 3 without a
traceback, or a traceback for the known defects).
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import call_cli  # noqa: E402
from workloads import (EVAL_MIX, GOLDEN, RESOLUTION_NS,  # noqa: E402
                       normalize)

POOL_SEED = 303357
INVERTIBLE = {"G": "", "G_b": "b", "G_d": "d", "G_bd": "bd"}
COEFFS = ["", "", "2 ", "3 ", "q ", "q^-1 ", "q^2 ", "(q + 1) ",
          "1/2 ", "(q - q^-1) ", "2 q^-2 ", "(1 - q^2)/q "]
HAAR_Q = ["1/2", "1/3", "2/3", "3/4", "2"]


def monomial(rng, algebra, max_degree):
    """A word of 1..3 generator powers, written in a random order."""
    parts, degree = [], 0
    for _ in range(rng.randint(1, 3)):
        g = rng.choice("abcd")
        e = rng.randint(1, 2)
        if degree + e > max_degree:
            break
        degree += e
        if g in INVERTIBLE[algebra] and rng.random() < 0.4:
            e = -e
        parts.append(g if e == 1 else f"{g}^{e}")
    return " ".join(parts) or rng.choice("abcd")


def expression(rng, algebra, max_degree):
    text = ""  # no leading "-": argparse would read the argument as a flag
    for i in range(rng.randint(1, 3)):
        if i:
            text += rng.choice([" + ", " - "])
        text += rng.choice(COEFFS) + monomial(rng, algebra, max_degree)
    return text


def valid_request(rng, category):
    action, algebra = category.split("_", 1)
    if action == "nf":
        return ["eval", expression(rng, algebra, 4), "--algebra", algebra]
    if action == "star":
        return ["eval", expression(rng, "G", 4), "--action", "star"]
    if action == "coproduct":
        return ["eval", expression(rng, "G", 3), "--action", "coproduct"]
    argv = ["eval", expression(rng, "G", 4), "--action", "haar"]
    if rng.random() < 0.5:
        argv += ["--q", rng.choice(HAAR_Q)]
    return argv


def invalid_request(rng, category):
    expr = expression(rng, "G", 3)
    if category == "parse_error":
        kind = rng.randrange(6)
        if kind == 5:
            return ["eval", expr, "--action", "haar", "--q", "0"]
        bad = [expr + " +", "(" + expr, expr + " )", expr + " x",
               expr + " ^ a"][kind]
        return ["eval", bad]
    if category == "domain_error":
        algebra = rng.choice(["G_b", "G_d", "G_bd"])
        action = rng.choice(["star", "coproduct", "haar"])
        return ["eval", expression(rng, algebra, 3), "--algebra", algebra,
                "--action", action]
    g = rng.choice("abcd")
    bad = [f"{expr} + {g}^-{rng.randint(1, 3)}",
           f"{g}^-1 {expr}" if rng.random() < 0.5 else f"{g}^-1",
           f"({expr})/(q - q)",
           f"1/(q-q) {expr}",
           f"({expr})/{g}"][rng.randrange(5)]
    return ["eval", bad, "--action", rng.choice(["nf", "star", "haar"])]


EXPECTED_EXIT = {"parse_error": 2, "domain_error": 3}


def record_pool(main):
    rng = random.Random(POOL_SEED)
    pool = {}
    for category, count in EVAL_MIX.items():
        entries, seen = [], set()
        while len(entries) < 2 * count:
            if category in EXPECTED_EXIT or category == "known_defect":
                argv = invalid_request(rng, category)
            else:
                argv = valid_request(rng, category)
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            code, stdout, raised, tb = call_cli(main, argv)
            if category == "known_defect":
                ok = raised
            else:
                ok = code == EXPECTED_EXIT.get(category, 0) and not (raised or tb)
            if not ok:
                raise SystemExit(f"{category}: {argv} ended with exit {code}, "
                                 f"raised={raised}, stdout={stdout!r}")
            entries.append([argv, code, stdout, raised])
        pool[category] = entries
    return pool


def record(main, argv):
    code, stdout, raised, tb = call_cli(main, argv)
    if code != 0 or raised or tb:
        raise SystemExit(f"{argv} ended with exit {code}")
    return {"exit": code, "stdout": normalize(stdout)}


def write(name, doc):
    with open(os.path.join(GOLDEN, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    from qsu2.cli import main as cli_main
    os.makedirs(GOLDEN, exist_ok=True)
    write("verify_all.json",
          record(cli_main, ["verify", "all", "--format", "json"]))
    write("resolution_curve.json",
          {str(n): record(cli_main, ["resolution", "--n", str(n)])
           for n in RESOLUTION_NS})
    write("eval_pool.json", record_pool(cli_main))


if __name__ == "__main__":
    main()
