"""Layer tracing for the qsu2 benchmark.

The tracer wraps the public functions of each qsu2 layer from the outside;
nothing in the package is edited.  Every wrapper pushes a frame on one
shared stack, so each layer's self time is its wall time minus the time
spent in wrapped calls made from inside it.

Hot arithmetic (scalar operators, ``Algebra.mul_mono``, algebra maps,
star, parsing, the Haar functional) is kept as aggregated counts and self
time.  The coarse layer boundaries (suites, Hopf verification, Gram
solves, resolution operators, kernel solves, CLI requests) are also kept
as spans: name, start, end and the enclosing span, in memory until the
run ends.

A function imported by value (``from .haar import haar``) is a separate
binding of the same object, so wrappers are installed on every module
global, class attribute and module-level dict entry in ``qsu2`` that holds
the original; ``stale_bindings`` reports any reference left behind.
"""

from __future__ import annotations

import gc
import sys
import time
import types

# (layer, module, qualified name) of every wrapped function; the suites are
# added from suites.SUITES.  The suites and the layers in SPAN_LAYERS also
# record spans.
WRAPPED = [
    ("scalars.mul", "qsu2.scalars", "QScalar.__mul__"),
    ("scalars.add", "qsu2.scalars", "QScalar.__add__"),
    ("scalars.div", "qsu2.scalars", "QScalar.__truediv__"),
    ("scalars.div", "qsu2.scalars", "QScalar.__rtruediv__"),
    ("ncalg.mul_mono", "qsu2.ncalg", "Algebra.mul_mono"),
    ("ncalg.map", "qsu2.ncalg", "AlgebraMap.__call__"),
    ("ncalg.star", "qsu2.ncalg", "star"),
    ("ncalg.parse", "qsu2.ncalg", "parse_element"),
    ("haar", "qsu2.haar", "haar"),
    ("linalg.kernel", "qsu2.linalg", "kernel_basis"),
    ("hopf.verify", "qsu2.hopf", "verify_hopf"),
    ("hopf.verify", "qsu2.hopf", "verify_pi_hopf_map"),
    ("comod.gram", "qsu2.comod", "solve_coinvariant_gram"),
    ("coherent.resolution", "qsu2.coherent", "resolution_operator"),
]
SPAN_LAYERS = {"linalg.kernel", "hopf.verify", "comod.gram",
               "coherent.resolution", "cli.request"}


def _is_span(layer):
    return layer in SPAN_LAYERS or layer.startswith("suites.")


def _resolve(module, qualname):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _laurent(x) -> bool:
    """True when x is an int, a Fraction or a QScalar whose denominator is
    c*q^k; a trimmed denominator is a q-monomial iff all lower coefficients
    vanish."""
    den = getattr(x, "den", None)
    return den is None or not any(den[:-1])


class Tracer:
    def __init__(self):
        self.stats = {}        # layer -> [calls, self_s, inclusive_s]
        self.spans = []        # [id, name, parent_id, start_s, end_s]
        self.laurent_muls = 0
        self.mul_mono_repeats = 0
        self.map_monos = 0
        self.map_mono_repeats = 0
        self.kernel_cols = 0
        self._stack = [[0.0]]  # per frame: time spent in wrapped callees
        self._span_stack = [None]
        self._t0 = time.perf_counter()
        self._originals = []
        self._own_cells = set()

    # -- wrapper construction ---------------------------------------------

    def _stat(self, layer):
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def wrap(self, layer, fn, before=None, span_name=None):
        """Return a wrapper of fn that accounts its time to `layer`.

        `before(*args)` runs ahead of the call for extra counts;
        `span_name(*args)` names the span (and, for spans, the stat key).
        """
        stack = self._stack
        clock = time.perf_counter
        if _is_span(layer):
            spans, span_stack, t_base = self.spans, self._span_stack, self._t0

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args)
                name = span_name(*args) if span_name else layer
                stat = self._stat(name)
                frame = [0.0]
                stack.append(frame)
                span = [len(spans), name, span_stack[-1], 0.0, 0.0]
                spans.append(span)
                span_stack.append(span[0])
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    span_stack.pop()
                    span[3], span[4] = t0 - t_base, t1 - t_base
                    stack.pop()
                    stack[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt - frame[0]
                    stat[2] += dt
            return wrapper

        stat = self._stat(layer)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt
        return wrapper

    # -- per-layer counting hooks -----------------------------------------

    def _before_hooks(self):
        seen_mono = set()
        seen_map = set()

        def mul(a, b):
            if _laurent(a) and _laurent(b):
                self.laurent_muls += 1

        def mul_mono(alg, m1, m2, *rest):
            key = (alg, m1, m2)
            if key in seen_mono:
                self.mul_mono_repeats += 1
            else:
                seen_mono.add(key)

        def amap(m, p):
            for mono in p.terms:
                key = (m, mono)
                self.map_monos += 1
                if key in seen_map:
                    self.map_mono_repeats += 1
                else:
                    seen_map.add(key)

        def kernel(columns):
            self.kernel_cols += len(columns)

        return {"scalars.mul": mul, "ncalg.mul_mono": mul_mono,
                "ncalg.map": amap, "linalg.kernel": kernel}

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions and the suites."""
        hooks = self._before_hooks()
        span_names = {
            "coherent.resolution": lambda n, *a: f"coherent.resolution_n{n}",
        }
        for layer, module, qualname in WRAPPED:
            fn = _resolve(module, qualname)
            self._replace(fn, self.wrap(layer, fn, hooks.get(layer),
                                        span_names.get(layer)))
        # suites run through the SUITES table; rebind also covers the
        # module-level names of the suite functions
        for key, fn in list(sys.modules["qsu2.suites"].SUITES.items()):
            self._replace(fn, self.wrap(f"suites.{key}", fn))

    def _replace(self, fn, wrapper):
        if not rebind(fn, wrapper):
            raise RuntimeError(f"no binding of {fn.__module__}.{fn.__qualname__}")
        self._originals.append(fn)
        self._own_cells.update(id(c) for c in wrapper.__closure__)

    def stale_bindings(self):
        """Every reference to a wrapped original other than the wrappers'
        own: a non-empty list means some call path bypasses the tracer."""
        out = []
        for fn in self._originals:
            for ref in gc.get_referrers(fn):
                if (ref is self._originals or isinstance(ref, types.FrameType)
                        or id(ref) in self._own_cells):
                    continue
                out.append(f"{fn.__module__}.{fn.__qualname__} held by "
                           f"{_describe(ref)}")
        return out

    # -- results ------------------------------------------------------------

    def counts(self):
        """Deterministic counters: the same inputs give the same values."""
        out = {layer: s[0] for layer, s in sorted(self.stats.items())}
        out.update(laurent_muls=self.laurent_muls,
                   mul_mono_repeats=self.mul_mono_repeats,
                   map_monos=self.map_monos,
                   map_mono_repeats=self.map_mono_repeats,
                   kernel_cols=self.kernel_cols)
        return out

    def times(self):
        return {layer: {"self_s": s[1], "inclusive_s": s[2]}
                for layer, s in sorted(self.stats.items())}


def _describe(ref):
    """Name the qsu2 module, class or dict that ref is, else its type."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("qsu2") or mod is None:
            continue
        if vars(mod) is ref:
            return f"module {name}"
        for attr, val in vars(mod).items():
            if val is ref:
                return f"{name}.{attr}"
            if isinstance(val, type) and isinstance(ref, dict) \
                    and vars(val) == ref:
                return f"class {name}.{attr}"
    return type(ref).__name__


def rebind(original, wrapper) -> int:
    """Replace every qsu2 binding of `original` by `wrapper`.

    Covers module globals, class attributes (including aliases such as
    ``__rmul__ = __mul__``) and values of module-level dicts.  Returns the
    number of bindings replaced.
    """
    replaced = 0
    for name, mod in list(sys.modules.items()):
        if not name.startswith("qsu2") or not isinstance(mod, types.ModuleType):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                replaced += 1
            elif isinstance(val, type) and val.__module__ == name:
                for key, member in list(vars(val).items()):
                    if member is original:
                        setattr(val, key, wrapper)
                        replaced += 1
            elif isinstance(val, dict):
                for key, member in list(val.items()):
                    if member is original:
                        val[key] = wrapper
                        replaced += 1
    return replaced
