"""Per-layer spans and counters for the traced run.

The tracer wraps each layer's public functions from outside the program:
class methods are replaced on their class, and module functions are
rebound in every qcext module that holds them under some name (so
`separation_report` is traced whether `extension`, `suite` or `cli` calls
it).  A span opens only where the call crosses from one layer into
another; calls inside one layer are counted, not timed.  A layer's self
time is the length of its spans minus the part covered by their child
spans.  Spans are folded into per-edge totals in memory and written out
once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("groups", "coeffs", "embedding", "geodesics", "separating", "qc",
          "extension", "scl", "suite", "cli")

# Special methods that carry a layer's work; the rest (__eq__, __hash__,
# __init__, ...) are left alone and charged to their caller.
TRACED_DUNDERS = {"__mul__", "__pow__", "__str__", "__add__", "__sub__", "__neg__",
                  "__rmul__", "__call__"}

# The qualified names whose call counts make up the per-layer counts.
MUL = ("FreeWord.__mul__", "FreeProductElement.__mul__", "FiniteElement.__mul__")
STR = ("FreeWord.__str__", "FreeProductElement.__str__", "FiniteElement.__str__")
VECTOR_OPS = ("ModuleVector.__add__", "ModuleVector.__sub__", "ModuleVector.act",
              "ModuleVector.scale")


class Tracer:
    def __init__(self):
        n = len(LAYERS) + 1  # the last slot is the benchmark's own code
        self.stack: list[list] = []  # open spans: [layer index, child seconds]
        self.self_s = [0.0] * n
        self.edge_s = [[0.0] * n for _ in range(n)]  # [caller][layer]
        self.edge_n = [[0] * n for _ in range(n)]
        self.counts: dict[str, list] = {}  # qualified name -> [calls]
        self.inclusive_s = Counter()
        self.stats = Counter()

    def count(self, qualname: str) -> int:
        return self.counts.get(qualname, [0])[0]

    def wrap(self, layer: str, qualname: str, fn, pre=None, post=None, inclusive=False):
        """A span around fn where a call enters `layer` from elsewhere (or
        on every call when `inclusive`, to time the function itself)."""
        me = LAYERS.index(layer)
        bench = len(LAYERS)
        stack = self.stack
        self_s, edge_s, edge_n = self.self_s, self.edge_s, self.edge_n
        inclusive_s = self.inclusive_s
        cell = self.counts.setdefault(qualname, [0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell[0] += 1
            if pre is not None:
                pre(args)
            if stack and stack[-1][0] == me and not inclusive:
                result = fn(*args, **kwargs)
            else:
                span = [me, 0.0]
                stack.append(span)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    seconds = clock() - start
                    stack.pop()
                    if inclusive:
                        inclusive_s[qualname] += seconds
                    caller = stack[-1][0] if stack else bench
                    if caller == me:
                        # Nested in its own layer: the enclosing span already
                        # owns the interval, and inherits the children.
                        stack[-1][1] += span[1]
                    else:
                        self_s[me] += seconds - span[1]
                        edge_s[caller][me] += seconds
                        edge_n[caller][me] += 1
                        if stack:
                            stack[-1][1] += seconds
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qcext.{name}") for name in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if name == "qcext" or name.startswith("qcext.")]
        hooks = self._hooks()
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj, hooks)
                elif (inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_")):
                    pre, post, inclusive = hooks.get(name, (None, None, False))
                    wrapped = self.wrap(layer, name, obj, pre, post, inclusive)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, attr, wrapped)
        self._wrap_cocycle_evaluators(modules["qc"])

    def _wrap_class(self, layer: str, cls, hooks: dict) -> None:
        for name, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            pre, post, inclusive = hooks.get(qualname, (None, None, False))
            setattr(cls, name, self.wrap(layer, qualname, member, pre, post, inclusive))

    def _wrap_cocycle_evaluators(self, qc) -> None:
        """An evaluator closure belongs to the module that defined it (the
        extension's combing evaluator lives in `extension`), so each new
        QuasiCocycle gets its evaluator wrapped for that layer."""
        init = qc.QuasiCocycle.__init__
        wrap = self.wrap

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            fn = getattr(obj, "_fn", None)
            if not inspect.isfunction(fn):
                return
            layer = (fn.__module__ or "").rpartition(".")[2]
            if layer in LAYERS:
                object.__setattr__(obj, "_fn", wrap(layer, f"{layer}.<evaluator>", fn))

        qc.QuasiCocycle.__init__ = traced_init

    def _hooks(self) -> dict:
        """Per-function counters that read arguments or results."""
        stats = self.stats

        def memo_probe(args):
            cocycle, g = args[0], args[1]
            if g in getattr(cocycle, "_memo", ()):
                stats["qc.memo_hits"] += 1

        def rel_distance(result):
            if result.status == "unknown":
                stats["embedding.rel_distance_unknown"] += 1

        def geodesic_query(result):
            stats["geodesics.paths"] += len(result.geodesics)
            stats["geodesics.exhaustive"] += bool(result.exhaustive)

        def separation(result):
            for sep in result.values():
                stats["separating.cosets"] += len(sep.cosets)
                stats["separating.band_exclusions"] += len(sep.band_excluded)

        def suite_done(result):
            stats["suite.instances"] += result["total_instances"]

        return {
            "QuasiCocycle.__call__": (memo_probe, None, False),
            "FreeProductPairSpec.rel_distance": (None, rel_distance, False),
            "FreeRelCyclicSpec.rel_distance": (None, rel_distance, False),
            "geodesics": (None, geodesic_query, False),
            "separation_report": (None, separation, False),
            "run_full_suite": (None, suite_done, False),
            "k_constant": (None, None, True),
        }

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.count, self.stats

        def total(names):
            return sum(c(n) for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        queries = c("geodesics")
        reports = c("separation_report")
        qc_calls = c("QuasiCocycle.__call__")
        values = {
            "groups.mul_calls": (total(MUL), "count"),
            "groups.str_calls": (total(STR), "count"),
            "coeffs.vector_ops": (total(VECTOR_OPS), "count"),
            "embedding.rel_distance_calls": (
                total(("FreeProductPairSpec.rel_distance", "FreeRelCyclicSpec.rel_distance")),
                "count"),
            "embedding.rel_distance_unknown": (s["embedding.rel_distance_unknown"], "count"),
            "embedding.coset_rep_calls": (
                total(("FreeProductPairSpec.coset_rep", "FreeRelCyclicSpec.coset_rep")), "count"),
            "geodesics.queries": (queries, "count"),
            "geodesics.paths_per_query": (ratio(s["geodesics.paths"], queries), "paths"),
            "geodesics.exhaustive_ratio": (ratio(s["geodesics.exhaustive"], queries), "ratio"),
            "separating.reports": (reports, "count"),
            "separating.cosets_per_report": (ratio(s["separating.cosets"], reports), "cosets"),
            "separating.band_exclusions": (s["separating.band_exclusions"], "count"),
            "qc.calls": (qc_calls, "count"),
            "qc.memo_hit_ratio": (ratio(s["qc.memo_hits"], qc_calls), "ratio"),
            "extension.averaged_values": (c("averaged_value"), "count"),
            "extension.k_constant_s": (self.inclusive_s["k_constant"], "s"),
            "suite.instances": (s["suite.instances"], "count"),
        }
        for i, layer in enumerate(LAYERS):
            values[f"{layer}.self_s"] = (self.self_s[i], "s")
        return values

    def dump_spans(self, stream) -> None:
        """The span totals per (caller layer, layer) edge, as one JSON line."""
        names = LAYERS + ("bench",)
        rows = [{"caller": names[a], "layer": names[b], "spans": self.edge_n[a][b],
                 "seconds": round(self.edge_s[a][b], 6)}
                for a in range(len(names)) for b in range(len(names)) if self.edge_n[a][b]]
        json.dump({"span_edges": rows}, stream)
        stream.write("\n")
