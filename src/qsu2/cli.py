"""Command-line entry point.

    qsu2 eval EXPR [--algebra G] [--action nf|coproduct|star|haar]
    qsu2 haar EXPR [--q P/R]
    qsu2 verify SUITE [--n A..B] [--degree D] [--seed S] [--q P/R]
                      [--format text|json|tsv]
    qsu2 resolution --n N [--q P/R] [--format json|tsv]

Exit codes: 0 success / all checks pass, 1 failing check (or no check
passed), 2 parse error, 3 domain error; the same when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from fractions import Fraction

from . import coherent, hopf
from .comod import NonScalarError
from .haar import haar as haar_integral
from .ncalg import DomainError, STD, parse_element, star
from .parsing import ParseError
from .report import timed
from .suites import SUITES, run_suite

ALGEBRAS = {"G": STD.G, "G_b": STD.Gb, "G_d": STD.Gd, "G_bd": STD.Gbd,
            "B": STD.B, "M": STD.M}


def _parse_q(text: str) -> Fraction:
    past_limit = argparse.ArgumentTypeError(
        f"q = {text!r} is past Python's int-to-string digit limit")
    # a nonzero q = m 10^k prints more than |k| - 2 len(m) digits: refuse
    # a huge k before Fraction builds 10^|k| (a limit of 0, or none before
    # Python 3.10.7, is no limit)
    mantissa, e, k = text.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    with contextlib.suppress(ValueError):
        if e and abs(int(k)) - 2 * len(mantissa) > limit > 0:
            raise past_limit
    try:
        q0 = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} divides by zero") from None
    except ValueError:
        q0 = None
    if q0 is None or q0 <= 0:
        raise argparse.ArgumentTypeError(
            f"q must be a positive rational P/R, got {text!r}")
    try:  # the reports print q
        str(q0)
    except ValueError:
        raise past_limit from None
    return q0


def _parse_range(text: str) -> range:
    a, _, b = text.partition("..")
    try:
        r = range(int(a), int(b or a) + 1)
    except ValueError:
        r = range(0)
    if not r or r.start < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonempty range A..B of degrees >= 0")
    return r


def _parse_n(text: str) -> int:
    with contextlib.suppress(argparse.ArgumentTypeError):
        if len(r := _parse_range(text)) == 1:
            return r.start
    raise argparse.ArgumentTypeError(f"expected one N >= 0, got {text!r}")


def cmd_eval(args) -> int:
    p = parse_element(args.expr, ALGEBRAS[args.algebra])
    if args.action == "coproduct":
        if args.algebra not in ("G", "B"):
            raise DomainError("coproduct is defined on G and B")
        p = (hopf.hopf_G() if args.algebra == "G" else hopf.hopf_B()).delta(p)
    elif args.action == "star":
        p = star(p)
    elif args.action == "haar":
        p = haar_integral(p)
    print(p)
    if args.action == "haar" and args.q is not None:
        print(f"at q = {args.q}: {p.specialize(args.q)}")
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name != "all" and name not in SUITES:
        print(f"unknown suite {name!r}; choose from "
              f"{', '.join(sorted(SUITES))}, all", file=sys.stderr)
        return 2
    report = run_suite(name, n_range=args.n, degree=args.degree,
                       seed=args.seed, q0=args.q)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "tsv":
        print(report.to_tsv())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_resolution(args) -> int:
    n = args.n
    out = {"n": n, "alpha_exact": None, "alpha_at_q": None,
           "matrix_is_scalar": False, "chart_agreement": None,
           "lemma_checks": [], "qbeta_checks": []}
    try:
        with timed() as t:
            res = coherent.resolution_operator(n)
            out["alpha_exact"] = str(res.alpha)
            out["alpha_at_q"] = str(res.alpha_at(args.q))
            out["matrix_is_scalar"] = True
            out["chart_agreement"] = res.chart_agreement
            out["lemma_checks"] = coherent.lemma_table(n)
            out["qbeta_checks"] = [
                {"i": i, "matches_inverse_binomial_form":
                    coherent.qbeta_check(i, n)["matches_inverse_binomial_form"]}
                for i in range(n + 1)]
    except NonScalarError as exc:
        # a failed check, not an error: the report below says
        # "matrix_is_scalar": false and the exit is 1
        print(f"check failed: {exc}", file=sys.stderr)
    out["runtime_ms"] = t.ms
    ok = (out["matrix_is_scalar"] and out["chart_agreement"]
          and all(c["matches_closed_form"] for c in out["lemma_checks"])
          and all(c["matches_inverse_binomial_form"]
                  for c in out["qbeta_checks"]))
    if args.format == "tsv":
        print("key\tvalue")
        for k, v in out.items():
            print(f"{k}\t{json.dumps(v) if isinstance(v, list) else v}")
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qsu2",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--algebra", default="G", choices=list(ALGEBRAS))
    p.add_argument("--action", default="nf",
                   choices=["nf", "coproduct", "star", "haar"])
    p.add_argument("--q", type=_parse_q, default=None, metavar="P/R")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("haar", help="Haar integral of a G expression")
    p.add_argument("expr")
    p.add_argument("--q", type=_parse_q, default=None, metavar="P/R")
    p.set_defaults(fn=cmd_eval, algebra="G", action="haar")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--n", type=_parse_range, default=range(0, 4),
                   metavar="A..B")
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=_parse_q, default=Fraction(1, 2),
                   metavar="P/R")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "tsv"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("resolution", help="resolution-of-unity report")
    p.add_argument("--n", type=_parse_n, required=True, metavar="N")
    p.add_argument("--q", type=_parse_q, default=Fraction(1, 2),
                   metavar="P/R")
    p.add_argument("--format", default="json", choices=["json", "tsv"])
    p.set_defaults(fn=cmd_resolution)

    return ap


def main(argv=None) -> int:
    """Run one command and return its exit code.  This is the one place
    that maps errors to exit codes: a ParseError exits 2; a DomainError, a
    zero divisor (PoleError from --q included) or an int past Python's
    int-to-string digit limit exits 3; any other exception propagates.
    The command's stdout is written when it is done, and not at all on an
    exit of 2 or 3.  A reader that closed the pipe early (`| head -1`)
    leaves the exit code as it is and prints no traceback."""
    out, code = io.StringIO(), None
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
            code = args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = 2
    except (DomainError, ZeroDivisionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        code = 3
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print("domain error: the result is past Python's int-to-string "
              "digit limit", file=sys.stderr)
        code = 3
    finally:
        if code not in (2, 3):
            try:
                sys.stdout.write(out.getvalue())
                sys.stdout.flush()
            except BrokenPipeError:
                # what is still buffered, flushed again at exit, goes nowhere
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
