"""Spans at liedual's module boundaries, installed only for the traced run.

``Tracer.install`` replaces, in each of the six modules' namespaces:

* every name imported from another liedual module (the name a
  cross-module call goes through, e.g. ``branching._full_multiplicities``
  or ``charalg.dominant_conjugate``);
* every public function defined in the module itself (the names the
  benchmark's entry calls and ``cli``'s ``branching.restrict_generic``-style
  attribute calls go through);
* a few named internals whose counts the metrics need, and the
  ``FormalCharacter`` constructor and dimension sum, which every module
  calls into ``charalg``.

The lattice vector helpers in ``INLINE`` are left alone: they run once per
weight inside inner loops, so a wrapper would cost more than the call.
Their time is the caller's self time.

Each wrapped call records a span (name, parent, start, end) in flat arrays
and adds to its call count.  A layer's self time is the time of its spans
minus the time their child spans cover.  Nothing is installed unless the
run asks for a trace.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from collections import Counter

LAYERS = ("lattice", "charalg", "branching", "minrep", "theta", "cli")

INLINE = frozenset(
    {
        "dot",
        "vadd",
        "vsub",
        "vneg",
        "vscale",
        "qv",
        "pairing",
        "reflect",
        "height",
        "height_functional",
        "normalize_vector",
        "in_weight_lattice",
        "is_dominant_vector",
        "root_coordinates",
    }
)

# Module-internal names wrapped in their own module, so that every call,
# not only the cross-module ones, is seen.
INTERNAL = {
    "charalg": ("_full_multiplicities", "_dominant_multiplicities", "_tensor_raw"),
}

# lru caches whose cache_info() feeds the hit-ratio metrics.
CACHES = {
    "charalg.diagram": ("charalg", "_full_multiplicities"),
    "charalg.dimension": ("charalg", "dimension"),
    "minrep._su2su2_terms": ("minrep", "_su2su2_terms"),
    "minrep.sp1so2_coefficients": ("minrep", "sp1so2_coefficients"),
    "minrep._hermJ_level": ("minrep", "_hermJ_level"),
}

_CALLABLE = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._depth: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()  # outermost spans of each name only
        self.top_level_s = 0.0
        self.counters: Counter = Counter()
        self._seen_diagrams: set[int] = set()
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Installation.

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap the boundary names of ``modules`` (layer name -> module)."""
        by_module_name = {m.__name__: layer for layer, m in modules.items()}
        for key, (layer, attr) in CACHES.items():
            self._caches[key] = getattr(modules[layer], attr)
        hooks = {
            "branching.restrict_generic": self._count_terms,
            "charalg._full_multiplicities": self._count_diagram,
        }
        spans = {"branching.verify_rule": lambda args, kwargs: f"branching.verify_rule.{args[0]}"}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, _CALLABLE) or attr in INLINE:
                    continue
                owner = by_module_name.get(getattr(obj, "__module__", None))
                if owner is None:
                    continue
                own_public = owner == layer and not attr.startswith("_")
                named_internal = owner == layer and attr in INTERNAL.get(layer, ())
                if owner != layer or own_public or named_internal:
                    span = f"{owner}.{attr}"
                    setattr(
                        module,
                        attr,
                        self._wrap(obj, span, owner, hooks.get(span), spans.get(span)),
                    )
        formal = modules["charalg"].FormalCharacter
        formal.from_dict = staticmethod(
            self._wrap(formal.from_dict, "charalg.FormalCharacter.from_dict", "charalg")
        )
        formal.total_dimension = self._wrap(
            formal.total_dimension, "charalg.FormalCharacter.total_dimension", "charalg"
        )

    def _wrap(self, fn, span, layer, after=None, span_of=None):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = span if span_of is None else span_of(args, kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(tracer._name_id(name))
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                tracer.span_end[index] = end
                duration = end - start
                self_s[layer] += duration - frame[1]
                tracer.calls[name] += 1
                if depth[name] == 0:
                    tracer.inclusive[name] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_level_s += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _count_terms(self, result) -> None:
        self.counters["branching.restrict.terms"] += len(result.decomposition)

    def _count_diagram(self, diagram) -> None:
        # Cached diagrams live as long as the cache, so their ids are unique.
        if id(diagram) not in self._seen_diagrams:
            self._seen_diagrams.add(id(diagram))
            self.counters["charalg.diagram_weights"] += len(diagram)

    # ------------------------------------------------------------------
    # Control and results.

    def start(self) -> None:
        self._cache_base = {
            key: (cache.cache_info().hits, cache.cache_info().misses)
            for key, cache in self._caches.items()
        }
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        out = {}
        for key, cache in self._caches.items():
            info = cache.cache_info()
            hits0, misses0 = self._cache_base.get(key, (0, 0))
            out[key] = (info.hits - hits0, info.misses - misses0)
        return out

    def summary(self) -> dict:
        """Plain-data totals; several summaries add up with ``merge``."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "counters": dict(self.counters),
            "caches": {k: list(v) for k, v in self.cache_deltas().items()},
            "top_level_s": self.top_level_s,
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """Write every span as [name, parent index, start, end]."""
        spans = [
            [self.names[n], p, s, e]
            for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle, separators=(",", ":"))


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of the processes of one round."""
    total: dict = {
        "self_s": dict.fromkeys(LAYERS, 0.0),
        "calls": Counter(),
        "inclusive": Counter(),
        "counters": Counter(),
        "caches": {},
        "top_level_s": 0.0,
        "spans": 0,
    }
    for s in summaries:
        for layer, value in s["self_s"].items():
            total["self_s"][layer] += value
        for field in ("calls", "inclusive", "counters"):
            total[field].update(s[field])
        for key, (hits, misses) in s["caches"].items():
            h, m = total["caches"].get(key, (0, 0))
            total["caches"][key] = (h + hits, m + misses)
        total["top_level_s"] += s["top_level_s"]
        total["spans"] += s["spans"]
    return total
