"""Outside-in tracing of modborder's layers.

The tracer wraps the library's public functions and methods at run time,
from the benchmark's own code, and leaves the library's source alone.  A
function is wrapped at every module namespace that binds it (modules import
names directly, so `normal_remainder` lives in both `division` and
`characterize`); a method is wrapped once, on its class.  Each wrapper
belongs to the layer -- the module -- that defines the function.

Most wrappers record a span (name, layer, start, end, op id, parent span).
Methods called tens of thousands of times per op (order-ideal lookups,
`Vector.__init__`, ...) only count their calls, because a span on each
would swamp what it measures; their time stays in the caller's self time.
Every wrapper counts the calls that raised as its layer's errors.

Spans stay in memory until `write` puts them on disk at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "ring",
    "textio",
    "ordermodule",
    "linalg",
    "division",
    "characterize",
    "borderbasis",
    "groebner",
    "quotient",
    "subideal",
    "cli",
)

# The only ring callable traced: the rest of the ring (term helpers, orders,
# Poly/Vector arithmetic) runs millions of times per run.
RING_TRACED = {"Vector.__init__"}

# Called too often for spans: counted only.
COUNT_ONLY = {
    "OrderIdeal.__init__",
    "OrderIdeal.index",
    "OrderIdeal.border",
    "OrderIdeal.border_closure",
    "OrderIdeal.corners",
    "OrderIdeal.is_empty",
    "OrderModule.index",
    "OrderModule.index_vec",
    "OrderModule.factor_through_border",
    "OrderModule.border",
    "OrderModule.border_closure",
    "OrderModule.corners",
    "Prebasis.vector",
    "Prebasis.vectors",
    "DivisionResult.__init__",
    "RatMatrix.__init__",
    "RatMatrix.row",
    "NeighborPair.__init__",
    "ProblemFile.__init__",
    "modterm_divides",
    "Vector.__init__",
}

PARSE = {"parse_vector", "parse_poly", "read_problem"}

# metric -> qualified name whose outermost spans give a busy time.
NAMED_BUSY = {
    "ordermodule.build.busy_s": "OrderModule.__init__",
    "division.reconstruct.busy_s": "reconstruct_prebasis",
    "characterize.buchberger.busy_s": "buchberger_check",
    "characterize.commuting.busy_s": "commuting_check",
}

# metric -> qualified name whose calls are counted over every binding.
NAMED_CALLS = {
    "linalg.rref.calls": "RatMatrix.rref",
    "linalg.matmul.calls": "RatMatrix.mul",
    "ordermodule.index.calls": "OrderIdeal.index",
    "ordermodule.border.calls": "OrderIdeal.border",
    "ordermodule.factor.calls": "OrderModule.factor_through_border",
    "ordermodule.build.calls": "OrderModule.__init__",
    "division.divide.calls": "divide",
    "characterize.sv_pairs": "sv_vector",
    "ring.vector_new.calls": "Vector.__init__",
    "groebner.gb.calls": "groebner_basis",
    "groebner.nf.calls": "gb_normal_form",
    "quotient.epsilon.calls": "QuotientContext.epsilon",
    "cli.main.calls": "main",
}

# metric -> (qualified name, binding module): calls made through that binding.
SITE_CALLS = {
    "borderbasis.degree_rounds": ("span_basis", "borderbasis"),
    "borderbasis.stab_rounds": ("intersect_with_coordinate_space", "borderbasis"),
}

COUNT_METRICS = (
    "linalg.rref.calls",
    "linalg.rref.cells",
    "linalg.rref.max_cells",
    "linalg.matmul.calls",
    "borderbasis.degree_rounds",
    "borderbasis.stab_rounds",
    "ordermodule.index.calls",
    "ordermodule.border.calls",
    "ordermodule.factor.calls",
    "ordermodule.build.calls",
    "division.divide.calls",
    "division.steps_per_divide",
    "characterize.sv_pairs",
    "ring.vector_new.calls",
    "ring.vector_new.coeffs",
    "groebner.gb.calls",
    "groebner.nf.calls",
    "quotient.epsilon.calls",
    "cli.main.calls",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def _targets(module, layer):
    """(qualified name, owner, attribute, raw attribute) for each callable
    defined in `module` that the tracer wraps."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            if layer != "ring":
                yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                qual = f"{name}.{attr}"
                if layer == "ring" and qual not in RING_TRACED:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield qual, obj, attr, raw


class Tracer:
    """Installs wrappers on a freshly imported modborder and collects spans
    and counts while installed."""

    def __init__(self, modules):
        # modules: {layer: module object}, plus "modborder" for the package.
        self.modules = modules
        self.spans = []
        self.site_calls = Counter()  # (qualified name, binding module) -> calls
        self.counts = Counter()  # rref shapes, division steps, vector sizes
        self.errors = Counter()
        self.op = -1  # id of the op being run, set by the caller
        self._stack = []
        self._layer_depth = Counter()
        self._name_depth = Counter()
        self._divide_depth = 0
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, qual, layer, site):
        spans, stack, counts, errors = self.spans, self._stack, self.counts, self.errors
        site_calls = self.site_calls
        layer_depth, name_depth = self._layer_depth, self._name_depth
        key = (qual, site)
        is_divide = qual == "divide"
        is_rref = qual == "RatMatrix.rref"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site_calls[key] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = layer_depth[layer] == 0
            outer_name = name_depth[qual] == 0
            layer_depth[layer] += 1
            name_depth[qual] += 1
            stack.append(sid)
            if is_divide:
                tracer._divide_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                if is_divide:
                    tracer._divide_depth -= 1
                stack.pop()
                layer_depth[layer] -= 1
                name_depth[qual] -= 1
                spans[sid] = (sid, parent, qual, layer, start, end, tracer.op, outer, outer_name)
            if is_rref:
                mat = args[0]
                cells = mat.rows * mat.cols
                counts["rref.cells"] += cells
                counts["rref.rows"] += mat.rows
                counts["rref.rank"] += len(result[1])
                if cells > counts["rref.max_cells"]:
                    counts["rref.max_cells"] = cells
            return result

        return wrapper

    def _count(self, fn, qual, layer, site):
        counts, errors, site_calls = self.counts, self.errors, self.site_calls
        key = (qual, site)
        tracer = self

        if qual == "Vector.__init__":

            @functools.wraps(fn)
            def wrapper(self_, nvars, rank, coeffs=None):
                site_calls[key] += 1
                if coeffs:
                    counts["vector_new.coeffs"] += len(coeffs)
                try:
                    return fn(self_, nvars, rank, coeffs)
                except BaseException:
                    errors[layer] += 1
                    raise

            return wrapper

        is_factor = qual == "OrderModule.factor_through_border"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site_calls[key] += 1
            if is_factor and tracer._divide_depth:
                counts["divide.steps"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return wrapper

    def _wrap(self, raw, qual, layer, site):
        make = self._count if qual in COUNT_ONLY else self._span
        if isinstance(raw, classmethod):
            return classmethod(make(raw.__func__, qual, layer, site))
        if isinstance(raw, staticmethod):
            return staticmethod(make(raw.__func__, qual, layer, site))
        return make(raw, qual, layer, site)

    def install(self):
        functions = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for qual, owner, attr, raw in _targets(module, layer):
                if owner is module:
                    functions[id(raw)] = (raw, qual, layer)
                else:
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, self._wrap(raw, qual, layer, layer))
        for site, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                hit = functions.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                raw, qual, layer = hit
                self._restore.append((module, name, raw))
                setattr(module, name, self._wrap(raw, qual, layer, site))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics from the spans and counts collected so far."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        self_s = Counter()
        busy = Counter()
        named_busy = Counter()
        name_self = Counter()
        for sid, _parent, qual, layer, start, end, _op, outer, outer_name in self.spans:
            dur = end - start
            own = dur - child[sid]
            self_s[layer] += own
            name_self[qual] += own
            if outer:
                busy[layer] += dur
            if outer_name:
                named_busy[qual] += dur
        m = {metric: self.calls(qual) for metric, qual in NAMED_CALLS.items()}
        for metric, (qual, site) in SITE_CALLS.items():
            m[metric] = self.calls(qual, site)
        m["linalg.rref.cells"] = self.counts["rref.cells"]
        m["linalg.rref.max_cells"] = self.counts["rref.max_cells"]
        rows = self.counts["rref.rows"]
        m["linalg.rref.rank_ratio"] = self.counts["rref.rank"] / rows if rows else 0.0
        divides = m["division.divide.calls"]
        m["division.steps_per_divide"] = self.counts["divide.steps"] / divides if divides else 0.0
        m["ring.vector_new.coeffs"] = self.counts["vector_new.coeffs"]
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        m["linalg.rref.self_s"] = name_self["RatMatrix.rref"]
        for layer in ("linalg", "borderbasis", "division", "characterize", "groebner",
                      "quotient", "subideal", "cli"):
            m[f"{layer}.self_s"] = self_s[layer]
        for layer in ("borderbasis", "division", "groebner", "quotient", "subideal"):
            m[f"{layer}.busy_s"] = busy[layer]
        for metric, qual in NAMED_BUSY.items():
            m[metric] = named_busy[qual]
        m["textio.parse.busy_s"] = self._group_busy(lambda q: q in PARSE)
        m["textio.format.busy_s"] = self._group_busy(lambda q: q.startswith("format_"))
        return m

    def calls(self, qual, site=None):
        """Calls of `qual` through every binding, or through `site` only."""
        return sum(
            n for (q, s), n in self.site_calls.items()
            if q == qual and (site is None or s == site)
        )

    def _group_busy(self, member):
        """Total time under spans whose name satisfies `member`, nested ones
        counted once."""
        names = [s[2] for s in self.spans]
        parents = [s[1] for s in self.spans]
        total = 0.0
        for s in self.spans:
            if not member(s[2]):
                continue
            parent = s[1]
            while parent >= 0 and not member(names[parent]):
                parent = parents[parent]
            if parent < 0:
                total += s[5] - s[4]
        return total

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, qual, layer, start, end, op, _o, _on in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": qual, "layer": layer,
                    "start": round(start - base, 9), "end": round(end - base, 9), "op": op,
                }) + "\n")
