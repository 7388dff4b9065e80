"""The qsu2 benchmark: one workload, run in cold single-threaded processes.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports qsu2 from ``src/`` there.
Each child process starts with empty caches, imports qsu2 (timed as set-up)
and runs the workload's command lines once through ``qsu2.cli.main``.
Children run one at a time (closed loop, one client) until the time given
by ``--seconds`` is spent; every figure is the median over the children.
Five processes that only import qsu2 run first, so set-up time is a median
of at least six imports.

The shared host's speed drifts by a fifth from one minute to the next.
Each child therefore also times a fixed reference task that runs no qsu2
code, and the times after set-up are reported at the reference speed: as
measured, multiplied by ``REF_NOMINAL_S`` over that child's reference time.
The printed lines give the raw times too.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced children alternate, at least two of each; the
per-layer metrics come from the traced ones, their counts must agree
exactly, and ``trace.overhead_share`` compares traced with untraced wall
time.  Spans of the first traced child are written to ``.bench_trace/``.

Every output is checked against the oracles in ``workloads.py``, and every
child must print the same normalized output.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import RESOLUTION_NS, SUITES, WORKLOADS, normalize  # noqa: E402

DEADLINE_S = 170          # the whole run, children included
IMPORT_PROBES = 5
# The median time of the child's reference task (child.reference_s) over
# ten minutes on the host of the baseline in trajectory.json.  A child's
# times are scaled by this over the reference time it measured.
REF_NOMINAL_S = 0.0852


class BenchError(RuntimeError):
    pass


def spawn(job, deadline):
    """Run one child process on `job`; return its parsed result and the
    wall time of the whole process."""
    # bytecode is cached under src/ as in an installed package, so set-up
    # time excludes compiling except in the first child of a checkout
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
            env=env, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError("child process ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(k)]


def digest(results):
    h = hashlib.sha256()
    for code, stdout, raised, tb in results:
        h.update(json.dumps([code, normalize(stdout), raised, tb]).encode())
    return h.hexdigest()


def run_children(workload, seed, seconds, traced, deadline):
    """Run children until `seconds` are spent.  Untraced: at least one.
    Traced: untraced and traced children alternate, at least two of each,
    so that both see the same drift in machine speed."""
    job = {"mode": "run", "suite_latency": workload.suite_latency,
           "requests": workload.cases(seed)}
    mandatory = 4 if traced else 1
    start = time.monotonic()
    children = []
    while len(children) < mandatory or (
            time.monotonic() - start
            + statistics.median(c["process_s"] for c in children) / 2
            <= seconds):
        i = len(children)
        trace = traced and i % 2 == 1
        child = spawn(dict(job, trace=trace), deadline)
        child["traced"] = trace
        children.append(child)
    return children


def check_children(workload, seed, children):
    """Apply the oracles to every child; return (attempted, failed,
    defects, errors)."""
    attempted = failed = defects = 0
    errors = []
    digests = set()
    for child in children:
        outcome = workload.check(seed, child["results"])
        child["ops"] = outcome.attempted
        attempted += outcome.attempted
        failed += outcome.failed
        defects += outcome.defects
        errors += outcome.errors
        digests.add(digest(child["results"]))
        errors += [f"unwrapped binding: {s}" for s in child.get("stale", [])]
    if len(digests) > 1:
        errors.append(f"children disagree: {len(digests)} output digests")
    return attempted, failed, defects, errors


def host_scale(child):
    """The host's speed during `child` relative to the reference speed:
    the nominal reference time over the mean of the two the child
    measured.  A time measured in the child, times this, is the time at
    the reference speed."""
    return REF_NOMINAL_S / statistics.mean(child["ref_s"])


def end_to_end(children, probes, scale=host_scale):
    """Medians over the children.  Times after set-up are multiplied by
    `scale(child)`."""
    med = statistics.median
    lat = [[x * scale(c) for x in c["latencies_s"]] for c in children]
    wall = [c["wall_s"] * scale(c) for c in children]
    return {
        "setup_s": (med([c["setup_s"] for c in children + probes]), "s"),
        "wall_s": (med(wall), "s"),
        "peak_rss_mb": (med([c["peak_rss_kb"] for c in children]) / 1024,
                        "MiB"),
        "p50_ms": (med([percentile(x, 50) for x in lat]) * 1000, "ms"),
        "p99_ms": (med([percentile(x, 99) for x in lat]) * 1000, "ms"),
        "ops_per_s": (med([c["ops"] / w for c, w in zip(children, wall)]),
                      "1/s"),
    }


def layer_metrics(counts, times):
    """The per-layer metrics of one traced child, as (value, unit)."""
    def n(key):
        return (counts.get(key, 0), "count")

    def t(key, kind="self_s"):
        return (times.get(key, {}).get(kind, 0.0), "s")

    def share(num, den):
        return (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0,
                "share")

    out = {
        "scalars.mul_calls": n("scalars.mul"),
        "scalars.add_calls": n("scalars.add"),
        "scalars.div_calls": n("scalars.div"),
        "scalars.self_s": (sum(t(k)[0] for k in ("scalars.mul", "scalars.add",
                                                 "scalars.div")), "s"),
        "scalars.laurent_share": share("laurent_muls", "scalars.mul"),
        "ncalg.mul_mono_calls": n("ncalg.mul_mono"),
        "ncalg.mul_mono_self_s": t("ncalg.mul_mono"),
        "ncalg.mul_mono_repeat_share": share("mul_mono_repeats",
                                             "ncalg.mul_mono"),
        "ncalg.map_calls": n("ncalg.map"),
        "ncalg.map_self_s": t("ncalg.map"),
        "ncalg.map_mono_repeat_share": share("map_mono_repeats", "map_monos"),
        "ncalg.star_calls": n("ncalg.star"),
        "ncalg.star_self_s": t("ncalg.star"),
        "ncalg.parse_self_s": t("ncalg.parse"),
        "hopf.verify_s": t("hopf.verify", "inclusive_s"),
        "linalg.kernel_calls": n("linalg.kernel"),
        "linalg.kernel_cols": n("kernel_cols"),
        "linalg.kernel_self_s": t("linalg.kernel"),
        "comod.gram_calls": n("comod.gram"),
        "comod.gram_s": t("comod.gram", "inclusive_s"),
        "haar.calls": n("haar"),
        "haar.self_s": t("haar"),
    }
    for k in RESOLUTION_NS:
        out[f"coherent.resolution_n{k}_s"] = t(f"coherent.resolution_n{k}",
                                                "inclusive_s")
    for name in SUITES:
        out[f"suites.{name}_s"] = t(f"suites.{name}", "inclusive_s")
    return out


def per_layer(workload, children, errors):
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    per_child = [layer_metrics(c["counts"], c["times"]) for c in traced]
    out = {}
    for name, (value, unit) in per_child[0].items():
        values = [m[name][0] for m in per_child]
        if unit in ("count", "share"):
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced runs: {values}")
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    for name in workload.required:
        if not out[name][0]:
            errors.append(f"{name} reads zero on {workload.name}")
    traced_wall = statistics.median(c["wall_s"] * host_scale(c)
                                    for c in traced)
    plain_wall = statistics.median(c["wall_s"] * host_scale(c)
                                   for c in plain)
    out["trace.overhead_share"] = (traced_wall / plain_wall - 1, "share")
    return out


def write_spans(workload, seed, child):
    path = os.path.join(ROOT, ".bench_trace", f"{workload.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"columns": ["id", "name", "parent", "start_s", "end_s"],
                   "spans": child["spans"]}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsu2", "__init__.py")):
        print(f"no qsu2 sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S

    try:
        # the import-only processes go first: they also warm the file
        # cache and the interpreter before the timed children
        probes = [] if args.trace else [
            spawn({"mode": "import"}, deadline) for _ in range(IMPORT_PROBES)]
        children = run_children(workload, args.seed, args.seconds,
                                bool(args.trace), deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, defects, errors = check_children(workload, args.seed,
                                                        children)
    if args.trace:
        metrics = per_layer(workload, children, errors)
        spans_at = write_spans(workload, args.seed,
                               next(c for c in children if c["traced"]))
        raw = {}
    else:
        metrics = end_to_end(children, probes)
        raw = end_to_end(children, probes, scale=lambda c: 1.0)

    traced = sum(1 for c in children if c["traced"])
    print(f"workload {workload.name}  seed {args.seed}  "
          f"processes {len(children)} ({traced} traced)"
          + ("" if args.trace else f" + {len(probes)} import-only"))
    if raw:
        speed = statistics.median(host_scale(c) for c in children)
        print(f"  host ran at {speed:.4g} x the reference speed; times after "
              f"set-up are given at the reference speed, raw as measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit:6s}"
              + (f"  raw {raw[name][0]:.6g}" if raw else ""))
    print(f"  {'fail_share':32s} {(failed + defects) / attempted:>14.6g} "
          f"share  ({failed} wrong, {defects} known defects, "
          f"{attempted} attempted)")
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_at, ROOT)}")
    for err in errors[:10]:
        print(f"  ERROR {err}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
