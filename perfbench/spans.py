"""Layer spans and coefficient-op counts, installed from outside tmfkit.

The traced run wraps the public functions of each tmfkit layer by patching
every module namespace (and class) that binds them, so calls between modules
are traced too.  A span records its parent through the active stack: a
layer's self time is its spans' durations minus the time covered by wrapped
child calls, and the self times of all layers add up to the time spent in
root spans.

The counting pass is separate: it wraps the ring arithmetic methods, which
run tens of thousands of times per request, so it is never combined with a
timed or traced run.

Run as a script, this module is a traced ``tmfkit`` command line: it
installs the spans, runs ``tmfkit.cli.main`` on its arguments, and writes
the span summary as one JSON line on stderr.
"""

import importlib
import json
import sys
import time

LAYERS = ("algebra", "series", "fgl", "weierstrass", "modforms", "chart",
          "cli")

# (metric prefix, module, class or None, attribute).  Series.__mul__ is
# reported as mul_1var or mul_multivar by the number of variables.
TRACED = (
    ("algebra.poly_mul", "algebra", "Poly", "__mul__"),
    ("algebra.poly_divmod", "algebra", "Poly", "divmod"),
    ("algebra.poly_gcd", "algebra", None, "poly_gcd"),
    ("series.mul", "series", "Series", "__mul__"),
    ("series.compose", "series", "Series", "compose"),
    ("series.subst", "series", "Series", "subst"),
    ("series.reverse", "series", "Series", "reverse"),
    ("series.inverse_unit", "series", "Series", "inverse_unit"),
    ("series.divide_exact", "series", "Series", "divide_exact"),
    ("fgl.validate", "fgl", "FormalGroupLaw", "validate"),
    ("fgl.logarithm", "fgl", "FormalGroupLaw", "logarithm"),
    ("fgl.n_series", "fgl", "FormalGroupLaw", "n_series"),
    ("fgl.check_homomorphism", "fgl", None, "check_homomorphism"),
    ("fgl.height_profile", "fgl", None, "height_profile"),
    ("weierstrass.formal_group", "weierstrass", None, "formal_group"),
    ("weierstrass.hasse_invariant", "weierstrass", None, "hasse_invariant"),
    ("weierstrass.exact_height", "weierstrass", None, "exact_height"),
    ("weierstrass.deuring_coefficient", "weierstrass", None,
     "deuring_coefficient"),
    ("weierstrass.supersingular_polynomial", "weierstrass", None,
     "supersingular_polynomial"),
    ("modforms.q_expansion", "modforms", None, "q_expansion"),
    ("modforms.j_q_expansion", "modforms", None, "j_q_expansion"),
    ("chart.descent_ss", "chart", None, "descent_ss"),
    ("chart.tmf_pi", "chart", None, "tmf_pi"),
    ("chart.duality_check", "chart", None, "duality_check"),
    ("chart.lifts_to_homotopy", "chart", None, "lifts_to_homotopy"),
    ("cli.main", "cli", None, "main"),
)

SPAN_NAMES = tuple(
    n for prefix, *_ in TRACED
    for n in ((prefix + "_1var", prefix + "_multivar")
              if prefix == "series.mul" else (prefix,)))

COEFF_KINDS = ("QQ", "ZZ", "Fp", "Fp2")
COEFF_METHODS = ("add", "sub", "mul", "neg", "divide", "inv")

# names of the per-layer metrics that span_metrics() and the harness emit
CLI_PROBES = ("cli.interpreter_ms", "cli.import_ms")
TRACE_TOTALS = ("trace.overhead_ratio", "trace.span_coverage",
                "trace.request_s", "trace.harness_s")


def per_layer_names():
    names = []
    for span in SPAN_NAMES:
        names += [span + ".calls", span + ".busy_s"]
    names.append("series.reverse.compose_calls")
    names += ["algebra.coeff_ops." + k for k in COEFF_KINDS]
    for layer in LAYERS:
        names += [layer + ".self_s", layer + ".raised"]
    return names + list(CLI_PROBES) + list(TRACE_TOTALS)


class Tracer:
    """Aggregated spans: calls, busy time (outermost call of each name),
    self time per layer, and exceptions that leave a layer."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.reverse_composes = 0
        self.root_s = 0.0
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        self._stack = []   # [name, layer, start, time covered by children]

    def enter(self, name, layer):
        self.calls[name] += 1
        if name == "series.compose" and self._depth["series.reverse"]:
            self.reverse_composes += 1
        self._depth[name] += 1
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def leave(self, raised):
        end = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += dur
        self.self_s[layer] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            if raised and parent[1] != layer:
                self.raised[layer] += 1
        else:
            self.root_s += dur
            if raised:
                self.raised[layer] += 1

    def summary(self):
        return {"calls": self.calls, "busy": self.busy,
                "self_s": self.self_s, "raised": self.raised,
                "reverse_composes": self.reverse_composes,
                "root_s": self.root_s}


def merge_summaries(summaries):
    """Sum span summaries (e.g. one per traced CLI child process)."""
    out = Tracer().summary()
    for s in summaries:
        for key in ("calls", "busy", "self_s", "raised"):
            for k, v in s[key].items():
                out[key][k] += v
        out["reverse_composes"] += s["reverse_composes"]
        out["root_s"] += s["root_s"]
    return out


def span_metrics(summary):
    """Per-layer metrics from a span summary (values only)."""
    m = {}
    for span in SPAN_NAMES:
        m[span + ".calls"] = summary["calls"][span]
        m[span + ".busy_s"] = summary["busy"][span]
    m["series.reverse.compose_calls"] = summary["reverse_composes"]
    for layer in LAYERS:
        m[layer + ".self_s"] = summary["self_s"][layer]
        m[layer + ".raised"] = summary["raised"][layer]
    return m


def _modules():
    import tmfkit
    mods = [tmfkit]
    for name in LAYERS:
        mods.append(importlib.import_module("tmfkit." + name))
    return mods


def _wrap(fn, prefix, layer, tracer):
    if prefix == "series.mul":
        def wrapper(self, other):
            tracer.enter("series.mul_1var" if len(self.vars) == 1
                         else "series.mul_multivar", layer)
            try:
                out = fn(self, other)
            except BaseException:
                tracer.leave(True)
                raise
            tracer.leave(False)
            return out
    else:
        def wrapper(*args, **kwargs):
            tracer.enter(prefix, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(True)
                raise
            tracer.leave(False)
            return out
    wrapper.__name__ = getattr(fn, "__name__", prefix)
    wrapper.__wrapped__ = fn
    return wrapper


def _patch(replacements):
    """Apply (owner, attribute, new value) edits; return an undo function."""
    undo = []
    for owner, attr, new in replacements:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore


def install_spans(tracer):
    """Wrap every traced function wherever tmfkit binds it; returns the
    function that removes the wrappers again."""
    mods = _modules()
    edits = []
    for prefix, modname, clsname, attr in TRACED:
        mod = importlib.import_module("tmfkit." + modname)
        layer = prefix.split(".")[0]
        if clsname is None:
            orig = getattr(mod, attr)
            new = _wrap(orig, prefix, layer, tracer)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        edits.append((m, name, new))
        else:
            cls = getattr(mod, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(raw.__func__, prefix, layer, tracer))
            else:
                new = _wrap(raw, prefix, layer, tracer)
            edits.append((cls, attr, new))
    return _patch(edits)


def install_counters(counts):
    """Count ring add/sub/mul/neg/divide/inv calls by coefficient ring into
    ``counts`` (a dict keyed by COEFF_KINDS).  Only the outermost ring call
    counts, so Ring.sub's own add and neg are not counted twice."""
    from tmfkit import algebra
    kinds = ((algebra.QuadExtField, "Fp2"), (algebra.IntegersMod, "Fp"),
             (algebra.Rationals, "QQ"), (algebra.Integers, "ZZ"))
    depth = [0]

    def kind_of(ring):
        for cls, kind in kinds:
            if isinstance(ring, cls):
                return kind
        return None

    def wrap(fn):
        def wrapper(self, *args):
            if depth[0]:
                return fn(self, *args)
            kind = kind_of(self)
            if kind is not None:
                counts[kind] += 1
            depth[0] += 1
            try:
                return fn(self, *args)
            finally:
                depth[0] -= 1
        return wrapper

    edits = []
    for cls in (algebra.Ring,) + tuple(c for c, _ in kinds):
        for attr in COEFF_METHODS:
            if attr in cls.__dict__:
                edits.append((cls, attr, wrap(cls.__dict__[attr])))
    return _patch(edits)


def _cli_child(argv):
    tracer = Tracer()
    install_spans(tracer)
    from tmfkit import cli
    code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
