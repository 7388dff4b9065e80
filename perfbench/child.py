"""One cold benchmark process: import qsu2, run a list of CLI requests.

Reads a JSON job from stdin and prints one JSON result line on stdout:

    {"mode": "run" | "import", "trace": bool, "suite_latency": bool,
     "requests": [[argv...], ...]}

Every request goes through ``qsu2.cli.main`` in this process, with stdout
and stderr captured.  A request that raises ends like the real command
line: exit code 1 and a traceback on stderr.  The parent process checks
the outputs; this process only runs and measures.

Before the import and after the last request the process also times a
fixed reference task that runs no qsu2 code (``ref_s``).  The parent uses
it to report times at a fixed host speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def call_cli(main, argv):
    """Run main(argv) like the `qsu2` entry point; return
    [exit_code, stdout, raised, traceback_on_stderr]."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception:
            traceback.print_exc()
            code, raised = 1, True
    return [code, out.getvalue(), raised,
            "Traceback (most recent call last)" in err.getvalue()]


def reference_s():
    """Wall time of a fixed pure-Python task that uses no qsu2 code:
    Fraction arithmetic and a dict keyed by tuples, as the engine does.
    The collector is off, so the time does not depend on what else the
    process holds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 6000):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            table[i % 97, str(i)] = acc.numerator % 1000
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _time_suites(suites, sink):
    """Record the wall time of each suite call into sink."""
    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - t0)
        return wrapper
    for key, fn in list(suites.items()):
        suites[key] = timed(fn)


def main() -> int:
    job = json.load(sys.stdin)
    ref_before = reference_s()
    gc.collect()   # the import starts with empty collector generations
    t0 = time.perf_counter()
    import qsu2.cli
    setup_s = time.perf_counter() - t0
    here = os.path.dirname(os.path.abspath(qsu2.__file__))
    if here != os.path.join(ROOT, "src", "qsu2"):
        print(f"qsu2 imported from {here}, not from this checkout",
              file=sys.stderr)
        return 2
    if job["mode"] == "import":
        print(json.dumps({"setup_s": setup_s,
                          "ref_s": [ref_before, reference_s()]}))
        return 0

    tracer = None
    suite_times = []
    if job["trace"]:
        from tracer import Tracer  # perfbench/ is sys.path[0] here
        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.request", qsu2.cli.main)
    else:
        if job["suite_latency"]:
            _time_suites(qsu2.cli.SUITES, suite_times)
        main_fn = qsu2.cli.main

    results, latencies = [], []
    t_start = time.perf_counter()
    for argv in job["requests"]:
        t = time.perf_counter()
        results.append(call_cli(main_fn, argv))
        latencies.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - t_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"setup_s": setup_s, "wall_s": wall_s,
           "ref_s": [ref_before, reference_s()],
           "peak_rss_kb": peak_rss_kb,
           "latencies_s": suite_times if job["suite_latency"] else latencies,
           "results": results}
    if tracer is not None:
        out.update(counts=tracer.counts(), times=tracer.times(),
                   spans=tracer.spans, stale=tracer.stale_bindings())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
