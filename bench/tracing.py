"""Span tracing around the public calls into each simkg module.

``Tracer.install()`` replaces the traced functions and methods with
wrappers, in every simkg module that holds a reference to them, so calls
between modules are caught too; ``uninstall()`` puts the originals back.
Each span records name, start, end, parent span and request id.  Counts
are taken at the same boundaries, but computed after the request ends
(``end_request``), so counting never lands inside a span's time.  Spans
stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "validate", "graph", "model", "query", "dictionary", "dbpedia", "wordnet", "analysis")


def _triples(g) -> int:
    from simkg.serialize import graph_triples
    return len(graph_triples(g))


def _graph_sizes(g) -> dict:
    return {"graph.simulations": len(g.simulations), "graph.entities": len(g.entities),
            "graph.variant_edges": len(g.variant_edges)}


def _import_counts(args, kwargs, g):
    return {"serialize.load_bytes": len(args[0].encode("utf-8")), "serialize.load_triples": _triples(g), **_graph_sizes(g)}


def _export_counts(args, kwargs, text):
    return {"serialize.export_bytes": len(text.encode("utf-8")), **_graph_sizes(args[0])}


def _document_counts(args, kwargs, result):
    parsed, conv = result
    return {"dictionary.entries": len(parsed.entries), "dictionary.simulations": len(conv.simulations),
            "dictionary.warnings": len(conv.warnings)}


def _dbpedia_counts(args, kwargs, conv):
    return {"dbpedia.useful_ratio": len(conv.simulations) / max(1, len(args[0]))}


def _wordnet_counts(args, kwargs, conv):
    from simkg.wordnet import select_synsets
    return {"wordnet.selected_ratio": len(select_synsets(args[0])) / max(1, len(args[0]))}


def _cq_counts(args, kwargs, rows):
    return {f"query.rows.{args[1].value}": len(rows)}


# (module, attribute, count function) for every traced call; a dotted
# attribute is a method.
TRACED = (
    ("cli", "main", None),
    ("serialize", "load_graph", None),
    ("serialize", "save_graph", None),
    ("serialize", "import_turtle", _import_counts),
    ("serialize", "export_turtle", _export_counts),
    ("validate", "check_axioms", lambda a, k, r: {"validate.violations": len(r)}),
    ("graph", "Graph.insert_simulation", None),
    ("graph", "Graph.add_variant", None),
    ("graph", "Graph.stats", None),
    ("model", "build_simulation", None),
    ("query", "run_cq", _cq_counts),
    ("query", "symbolic_meanings", None),
    ("dictionary", "convert_document", _document_counts),
    ("dictionary", "parse_dictionary", None),
    ("dictionary", "convert_entry", None),
    ("dbpedia", "read_triples_file", None),
    ("dbpedia", "convert_dbpedia", _dbpedia_counts),
    ("wordnet", "read_synset_file", None),
    ("wordnet", "convert_synsets", _wordnet_counts),
    ("analysis", "color_distribution", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: list[tuple[int, dict]] = []  # (request, {metric: value})
        self.requests: list[tuple[int, str]] = []  # (request, operation type)
        self.gc: list[tuple[int, float, int]] = []  # (request, pause, generation)
        self.enabled = True  # while False, wrappers call straight through
        self._stack: list[int] = []
        self._pending: list = []
        self._request = -1
        self._patched: list = []
        self._gc_start = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import simkg.cli  # noqa: F401  (loads every module before the sweep)

        modules = [m for name, m in sorted(sys.modules.items()) if name == "simkg" or name.startswith("simkg.")]
        for mod_name, attr, counter in TRACED:
            mod = importlib.import_module(f"simkg.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original, counter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _wrap(self, name, fn, counter):
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter
        per_cq = name == "query.run_cq"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            label = f"{name}[{args[1].value}]" if per_cq else name
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self._request])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if counter is not None:
                pending.append((counter, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc.append((self._request, time.perf_counter() - self._gc_start, info["generation"]))

    # -- requests ---------------------------------------------------------

    def begin_request(self, op_type: str) -> None:
        self._request = len(self.requests)
        self.requests.append((self._request, op_type))

    def end_request(self) -> None:
        for counter, args, kwargs, result in self._pending:
            self.counts.append((self._request, counter(args, kwargs, result)))
        self._pending.clear()
        self._request = -1

    # -- reduction --------------------------------------------------------

    def per_request(self):
        """{request: {metric: value}}: inclusive seconds per traced function,
        self seconds per layer, and the counts."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            row = out[req]
            if not self._inside(i, name):
                base, _, tag = name.partition("[")
                row[f"{base}_s" + (f".{tag[:-1]}" if tag else "")] += end - start
            row[f"{name.split('.')[0]}.self_s"] += end - start - child_time[i]
        for req, values in self.counts:
            for key, value in values.items():
                out[req][key] = max(out[req].get(key, 0), value)
        return out

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def rows(self) -> list[tuple[str, dict]]:
        """(operation type, metrics) per request, garbage collection included."""
        per_req = self.per_request()
        for req, pause, generation in self.gc:
            row = per_req[req]
            row["runtime.gc_pause_s"] += pause
            row["runtime.gc_gen2_collections"] += generation == 2
        return [(op_type, dict(per_req.get(req, {}))) for req, op_type in self.requests]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "requests": self.requests, "gc": self.gc}


def reduce_rows(rows: list[tuple[str, dict]]) -> dict[str, float]:
    """Per metric: the median over the requests of one operation type that
    report it, then the largest of those medians over the types.  The
    ``runtime.*`` metrics are the mean per request over all requests, so
    rare collections still count."""
    by_type: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for op_type, metrics in rows:
        for key, value in metrics.items():
            by_type[op_type][key].append(value)
    result: dict[str, float] = {}
    for values in by_type.values():
        for key, samples in values.items():
            result[key] = max(result.get(key, 0.0), statistics.median(samples))
    for key in ("runtime.gc_pause_s", "runtime.gc_gen2_collections"):
        result[key] = sum(m.get(key, 0) for _, m in rows) / max(1, len(rows))
    return result
