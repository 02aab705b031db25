"""Per-layer spans around wheelecc, installed from outside the package.

`instrument()` rebinds every public function of the layer modules, both the
name in the defining module and each `from ... import` binding of it in
the other wheelecc modules, to a wrapper that records a span: name, layer,
start, end, parent span and operation id.  Spans stay in memory until
`write_spans` at the end of the pass.  A layer's self time is the time of its
spans minus the time of the spans opened inside them.  Reported times are
speed-normalised per operation like the end-to-end times (see speed.py).

Deliberate choices:
- `rat` and `rat_str` run once per scalar and are not wrapped; wrapping
  them roughly doubles `gen inverse 200`.  Entries are counted once per
  constructed `MatrixQ`/`VectorQ` instead (`ratq.entries_built`).
- The `MatrixQ`/`VectorQ` constructors get spans of their own.  Callers
  often pass a lazy generator (`mat_mul` does), so the wrapper materialises
  the rows before opening the span: generator work is charged to the caller
  and the constructor span holds only the coercion.
- Each `VerifyContext` cached property gets a build span, so objects shared
  by several checks are not charged to whichever check touches them first.
- Bookkeeping for the repeat counters runs inside spans of layer "trace",
  which the reported layers exclude like any other child span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("ratq", "circulant", "closedform", "graphs", "oracle", "checks", "cli")
ORACLE_FNS = (
    "bareiss_det",
    "rank_exact",
    "inverse_exact",
    "inertia_exact",
    "penrose_check",
    "is_irreducible",
    "power_iteration_rho",
    "rank_certificate_check",
)
PER_SCALAR = {"rat", "rat_str"}
# Per-entry or per-row accessors and the equality test (the comparison,
# charged to the checks layer) are left unwrapped on the ratq classes.
ACCESSORS = {
    "__getitem__", "__iter__", "__len__", "__eq__", "__hash__", "__repr__",
    "row", "col", "iter_rows", "is_square", "_same_shape",
}
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "op")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._oracle_seen: set = set()
        self._builds_seen: set = set()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.begin_op(-1)

    def begin_op(self, op: int) -> None:
        self.op = op
        self._oracle_seen = set()
        self._builds_seen = set()

    # -- span recording --------------------------------------------------

    def _open(self, name: str, layer: str, start: float) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, start, 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][3] = self.clock()

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        clock, open_, close = self.clock, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = open_(name, layer, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def bookkeeping(self, what: str, fn):
        """Run fn inside a span of layer "trace", so parents do not pay for it."""
        idx = self._open(what, "trace", self.clock())
        try:
            return fn()
        finally:
            self._close(idx)

    # -- counters ----------------------------------------------------------

    def _count_mults(self, args, kwargs):
        a, b = args
        self.counts["ratq.mat_mul.mults"] += a.rows * a.cols * b.cols

    def _oracle_before(self, name):
        def before(args, kwargs):
            def note():
                key = (name, args, tuple(sorted(kwargs.items())))
                if key in self._oracle_seen:
                    self.counts["oracle.repeat_calls"] += 1
                else:
                    self._oracle_seen.add(key)

            self.counts["oracle.calls"] += 1
            self.bookkeeping("trace.oracle_key", note)

        return before

    def _build_after(self, name, built_types):
        def after(args, kwargs, result):
            if isinstance(result, tuple) and result and all(isinstance(r, built_types) for r in result):
                result = result[0]
            if not isinstance(result, built_types):
                return
            self.counts["closedform.builds"] += 1
            key = (name, args, tuple(sorted(kwargs.items())))
            if key in self._builds_seen:
                self.counts["closedform.repeat_builds"] += 1
            else:
                self._builds_seen.add(key)

        return after

    def _new_n(self, args, kwargs):
        self._oracle_seen = set()

    def _traced_init(self, cls, init):
        name = f"ratq.{cls.__name__}.__init__"
        is_matrix = hasattr(cls, "iter_rows")
        clock, open_, close, counts = self.clock, self._open, self._close, self.counts

        @functools.wraps(init)
        def traced_init(obj, data, *args, **kwargs):
            if is_matrix:
                data = [r if isinstance(r, (list, tuple)) else list(r) for r in data]
            elif not isinstance(data, (list, tuple)):
                data = list(data)
            idx = open_(name, "ratq", clock())
            try:
                init(obj, data, *args, **kwargs)
            finally:
                close(idx)
            counts["ratq.entries_built"] += obj.rows * obj.cols if is_matrix else len(obj)

        return traced_init


def _public_functions(mod):
    return [
        (name, obj)
        for name, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_")
    ]


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, wrapped)


def instrument(package) -> Tracer:
    """Install spans on the already imported wheelecc package; returns the tracer."""
    tr = Tracer()
    mods = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    prefix = package.__name__ + "."
    everywhere = [package] + [m for k, m in list(sys.modules.items()) if k.startswith(prefix)]
    ratq, circulant, checks, cli = mods["ratq"], mods["circulant"], mods["checks"], mods["cli"]
    built_types = (ratq.MatrixQ, ratq.VectorQ, circulant.CirculantQ)

    for layer, mod in mods.items():
        for name, fn in _public_functions(mod):
            if layer == "ratq" and name in PER_SCALAR:
                continue
            before = after = None
            if layer == "ratq" and name == "mat_mul":
                before = tr._count_mults
            elif layer == "oracle":
                before = tr._oracle_before(name)
            elif layer == "closedform":
                after = tr._build_after(name, built_types)
            elif layer == "checks" and name == "run_checks":
                before = tr._new_n
            _rebind(everywhere, fn, tr.wrap(fn, f"{layer}.{name}", layer, before, after))

    # Rendering helpers are private to cli; span each of them as "cli.render".
    for name, fn in list(vars(cli).items()):
        if isinstance(fn, types.FunctionType) and "render" in name:
            _rebind(everywhere, fn, tr.wrap(fn, "cli.render", "cli"))

    for cls in (ratq.MatrixQ, ratq.VectorQ):
        for name, fn in list(vars(cls).items()):
            if not isinstance(fn, types.FunctionType) or name in ACCESSORS:
                continue
            if name == "__init__":
                setattr(cls, name, tr._traced_init(cls, fn))
            else:
                setattr(cls, name, tr.wrap(fn, f"ratq.{cls.__name__}.{name}", "ratq"))

    ctx_cls = checks.VerifyContext
    for name, prop in list(vars(ctx_cls).items()):
        if isinstance(prop, functools.cached_property):
            built = functools.cached_property(tr.wrap(prop.func, f"checks.context.{name}", "checks"))
            built.__set_name__(ctx_cls, name)
            setattr(ctx_cls, name, built)
    checks.CHECKS = tuple(
        dataclasses.replace(c, run=tr.wrap(c.run, f"checks.check.{c.name}", "checks"))
        for c in checks.CHECKS
    )
    return tr


def summarize(spans: list[list], counts: dict, op_scale: list[float], pauses: list) -> dict:
    """Per-layer metrics from the recorded spans and counters.

    `pauses` are the (start, end) intervals of the speed samples taken
    inside operations (see speed.py); each is taken out of the innermost
    span it interrupted and out of all that span's ancestors.  Span times of
    operation i are then multiplied by op_scale[i].
    """
    raw = [end - start for _, _, start, end, _, _ in spans]
    for a, b in pauses:
        inner = max((i for i, s in enumerate(spans) if s[2] <= a and b <= s[3]), key=lambda i: spans[i][2], default=-1)
        while inner >= 0:
            raw[inner] -= b - a
            inner = spans[inner][4]
    dur = [d * op_scale[s[5]] for d, s in zip(raw, spans)]
    child = [0.0] * len(spans)
    in_render = [False] * len(spans)
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_render[i] = in_render[parent] or spans[parent][0] == "cli.render"
    self_s: Counter = Counter()
    incl: Counter = Counter()
    calls: Counter = Counter()
    render_s = top_s = 0.0
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        d = dur[i]
        self_s[layer] += d - child[i]
        incl[name] += d
        calls[name] += 1
        if name == "cli.render" and not in_render[i]:
            render_s += d
        if parent < 0:
            top_s += d
    # A check's own time leaves out the shared context objects it happened
    # to build first; those are reported under context_build_s.
    per_check: Counter = Counter()
    for i, (name, _, _, _, _, _) in enumerate(spans):
        if name.startswith("checks.check."):
            per_check[name[len("checks.check."):]] += dur[i]
    for i, (name, _, _, _, parent, _) in enumerate(spans):
        if name.startswith("checks.context."):
            while parent >= 0 and not spans[parent][0].startswith("checks.check."):
                parent = spans[parent][4]
            if parent >= 0:
                per_check[spans[parent][0][len("checks.check."):]] -= dur[i]
    c = Counter(counts)
    oracle_calls = c["oracle.calls"]
    metrics = {
        "ratq.mat_mul.s": incl["ratq.mat_mul"],
        "ratq.mat_mul.calls": calls["ratq.mat_mul"],
        "ratq.mat_mul.mults": c["ratq.mat_mul.mults"],
        "ratq.self_s": self_s["ratq"],
        "ratq.entries_built": c["ratq.entries_built"],
        "oracle.self_s": self_s["oracle"],
    }
    for fn in ORACLE_FNS:
        metrics[f"oracle.{fn}.s"] = incl[f"oracle.{fn}"]
        metrics[f"oracle.{fn}.calls"] = calls[f"oracle.{fn}"]
    metrics.update({
        "oracle.repeat_calls": c["oracle.repeat_calls"],
        "oracle.unique_ratio": 1.0 - c["oracle.repeat_calls"] / oracle_calls if oracle_calls else 1.0,
        "closedform.self_s": self_s["closedform"],
        "closedform.builds": c["closedform.builds"],
        "closedform.repeat_builds": c["closedform.repeat_builds"],
        "circulant.self_s": self_s["circulant"],
        "circulant.circ_mul.s": incl["circulant.circ_mul"],
        "graphs.self_s": self_s["graphs"],
        "checks.self_s": self_s["checks"],
        "checks.context_build_s": sum(v for k, v in incl.items() if k.startswith("checks.context.")),
        "cli.render_s": render_s,
    })
    detail = {
        "spans": len(spans),
        "self_s_by_layer": dict(self_s),
        "traced_top_level_s": top_s,
        "oracle_calls": oracle_calls,
        "per_check_s": per_check,
        "context_build_s": {k[len("checks.context."):]: v for k, v in incl.items() if k.startswith("checks.context.")},
    }
    return {"metrics": metrics, "detail": detail}


def write_spans(tr: Tracer, pauses: list, path: str) -> None:
    """Raw spans (perf_counter seconds), counters and speed-sample pauses, written at the end of a pass."""
    with open(path, "w") as fh:
        json.dump({"fields": SPAN_FIELDS, "counts": tr.counts, "pauses": pauses, "spans": tr.spans}, fh,
                  separators=(",", ":"))


def read_spans(path: str) -> tuple[list[list], dict, list]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["counts"], data["pauses"]
