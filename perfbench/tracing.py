"""Per-layer tracing of the program from outside.

``Tracer`` replaces the function references bound in the namespaces of the
``cryarr`` modules with recording wrappers and restores them afterwards;
no file of the program changes.  Calls into the layer functions listed in
``SPANS`` become spans (name, start, end, parent span, operation id) kept
in memory.  The ``linalg`` leaves in ``LEAVES`` are called too often for a
span each, so they keep an aggregate call count and time instead.

Self time is a span's duration minus the time its child spans and its
outermost ``linalg`` calls cover.  Inclusive time counts only the outermost
call of a name, so a recursive call is not counted twice.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _pruned(result):
    return int(result is None)


def _truthy(result):
    return int(bool(result))


def _found(result):
    return int(result is not None)


# (module, function, {counter name: count of one call's result})
SPANS = (
    ("search", "_close", {"search.close.pruned": _pruned}),
    ("search", "_plane_systems_ok", {"search.plane_systems_ok.passed": _truthy}),
    ("search", "_verify_candidate", {"search.verify_candidate.hits": _found}),
    ("geometry", "make_root_set", {}),
    ("geometry", "is_irreducible", {}),
    ("geometry", "chamber_graph", {}),
    ("geometry", "adjacent_chamber", {}),
    ("geometry", "cartan_of_chamber", {}),
    ("groupoid", "verify_crystallographic",
     {"groupoid.verify_crystallographic.ok": lambda r: int(r.ok)}),
    ("groupoid", "traverse", {"groupoid.objects": lambda g: len(g.objects)}),
    ("groupoid", "reflect_object", {}),
    ("groupoid", "canonical_form", {}),
    ("verifier", "run_all", {}),
    ("verifier", "check_sum_of_roots", {}),
    ("verifier", "check_r111", {}),
    ("verifier", "check_bound7", {}),
    ("verifier", "check_b128", {}),
    ("verifier", "check_k0", {}),
    ("verifier", "check_vol2_bound", {}),
    ("verifier", "check_convexity_statements", {}),
    ("verifier", "check_plane_roots", {}),
    ("verifier", "check_pigeonhole", {}),
    ("verifier", "lemcon_sweep",
     {"verifier.lemcon_sweep.triples": lambda r: r.stats["triples_checked"]}),
    ("localization", "localize", {}),
    ("localization", "rank2_cycles", {}),
    ("localization", "plane_roots", {}),
    ("rank2", "is_crystallographic_rank2", {}),
    ("cli", "load_document", {}),
    ("cli", "cmd_verify", {}),
    ("catalog", "entries", {}),
)

LEAVES = ("vol", "direction", "kernel_vector", "matrix_rank", "invert", "smith_normal_form")


def metric_prefix(module, function):
    return f"{module}.{function.lstrip('_')}"


class Tracer:
    """Spans and counters of the calls made while installed.

    Use as a context manager around the traced calls; set ``op`` to the
    operation id that the next spans belong to."""

    def __init__(self):
        self.op = None
        self.spans = []                  # (id, name, start, end, parent id, op)
        self.counts = Counter()
        self._totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self._ids = itertools.count()
        self._stack = []                 # open spans: [id, seconds covered by children]
        self._open = Counter()           # open calls per name
        self._leaf_depth = 0
        self._patched = []

    def _span(self, name, fn, counters):
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                total = self._totals[name]
                total[0] += 1
                if not self._open[name]:
                    total[1] += end - start
                total[2] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((frame[0], name, start, end, parent, self.op))
            for counter, count in counters.items():
                self.counts[counter] += count(result)
            return result
        return traced

    def _leaf(self, name, fn):
        def traced(*args, **kwargs):
            self._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._leaf_depth -= 1
                total = self._totals[name]
                total[0] += 1
                total[1] += elapsed
                if not self._leaf_depth and self._stack:
                    self._stack[-1][1] += elapsed
        return traced

    def _replace(self, module, function, make_wrapper):
        """Bind a wrapper wherever a cryarr module binds the original."""
        original = getattr(sys.modules[f"cryarr.{module}"], function)
        wrapper = make_wrapper(metric_prefix(module, function), original)
        for name, mod in list(sys.modules.items()):
            if name != "cryarr" and not name.startswith("cryarr."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def __enter__(self):
        for module, function, counters in SPANS:
            self._replace(module, function,
                          lambda name, fn, c=counters: self._span(name, fn, c))
        for function in LEAVES:
            self._replace("linalg", function, self._leaf)
        return self

    def __exit__(self, *exc):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def metrics(self):
        """Totals per name: ``.calls``, ``.s`` and, for spans, ``.self_s``;
        plus the counters."""
        out = dict(self.counts)
        leaves = {metric_prefix("linalg", f) for f in LEAVES}
        for name, (calls, inclusive, own) in self._totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = inclusive
            if name not in leaves:
                out[f"{name}.self_s"] = own
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
