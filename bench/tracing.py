"""Outside-in tracing of symdesign: wrappers, spans and self time per layer.

``Tracer.install`` wraps every public function and method of the layer
modules, and rebinds the names other symdesign modules imported (such as
``pipeline.coset_action``), so calls between layers are caught.
``uninstall`` puts every original back.

* Every wrapped call is counted.
* A call that enters a layer from another layer, or from the benchmark,
  records a span (id, parent id, operation id, name, start, end).  A call
  made from inside its own layer is charged to its caller's span, so a
  function's ``self_s`` covers only the calls that cross into its layer.
* ``perm`` is counted but records no spans: its methods run millions of
  times per operation, so its time stays in the calling layer.

Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("perm", "group", "design", "params", "arith", "pipeline", "catalog")
COUNT_ONLY = frozenset({"perm"})
# Dunder methods that do a layer's work rather than describe an object.
_WORK_DUNDERS = ("__init__", "__call__", "__mul__", "__pow__")


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    layer: str
    t0: int  # perf_counter_ns
    t1: int


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children (ns).

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent's interval they cover.
    """
    covered: dict = defaultdict(int)
    for s in spans:
        covered[s.parent] += s.t1 - s.t0
    return {s.sid: s.t1 - s.t0 - covered[s.sid] for s in spans}


def _targets(module):
    """(owner, attribute, function, qualified name) for one layer module."""
    for name in module.__all__:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in _WORK_DUNDERS:
                    continue
                if attr == "__init__" and dataclasses.is_dataclass(obj):
                    continue  # generated field assignment, no layer work
                if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
                    yield obj, attr, raw, f"{obj.__name__}.{attr}"
        elif callable(obj):
            yield module, name, obj, name


class Tracer:
    """Counts and spans for the calls a benchmark operation makes."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.counts: Counter = Counter()
        self.tally: Counter = Counter()  # domain counts from the hooks below
        self.spans: list[Span] = []
        self._stack: list = []  # (span id, layer) of open spans
        self._next_id = 1
        self.op = 0
        self._restore: list = []
        self._subdegree_keys: dict = {}
        self.op_counts: dict = {}  # op -> Counter of calls and tallies in that op

    # ---- wrappers ------------------------------------------------------------

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, key, layer, hook=None):
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else 0
                stack.append((sid, layer))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append(Span(sid, parent, self.op, key, layer, t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # Hooks record the pipeline's useful-work ratios where the work happens.

    def _on_subdegrees(self, args, _result):
        if any(layer == "pipeline" for _, layer in self._stack):
            self.tally["pipeline.subdegrees"] += 1
            # Distinct group objects; holding them keeps their ids unique.
            key = (id(args[0]), args[1])
            if key not in self._subdegree_keys:
                self._subdegree_keys[key] = args[0]
                self.tally["pipeline.subdegrees_distinct"] += 1

    def _on_search(self, _args, outcome):
        if outcome.status == "design-found":
            self.tally["pipeline.designs_found"] += 1

    def _on_pipeline(self, _args, report):
        self.tally["pipeline.tuples"] += sum(len(sec.tuples) for sec in report.sections)

    # ---- install / uninstall -------------------------------------------------

    def install(self):
        hooks = {
            "group.PermGroup.subdegrees": self._on_subdegrees,
            "pipeline.base_block_search": self._on_search,
            "pipeline.run_pipeline": self._on_pipeline,
        }
        replaced = {}  # id(original function) -> wrapper
        for layer in self.layers:
            module = importlib.import_module(f"symdesign.{layer}")
            for owner, attr, raw, qual in _targets(module):
                key = f"{layer}.{qual}"
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if layer in COUNT_ONLY:
                    wrapper = self._counting(fn, key)
                else:
                    wrapper = self._spanning(fn, key, layer, hooks.get(key))
                new = type(raw)(wrapper) if fn is not raw else wrapper
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                replaced[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "symdesign" and not name.startswith("symdesign."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- operations ----------------------------------------------------------

    @contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation; its calls share the op id."""
        self.op = op
        self._subdegree_keys = {}
        before = self.counts + self.tally
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, "bench"))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, 0, op, "bench.op", "bench", t0, t1))
            self.op_counts[op] = (self.counts + self.tally) - before
            self.op = 0  # calls outside an operation belong to none

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("sid\tparent\top\tname\tstart_ns\tend_ns\n")
            for s in self.spans:
                fh.write(f"{s.sid}\t{s.parent}\t{s.op}\t{s.name}\t{s.t0}\t{s.t1}\n")


def per_op_self(spans) -> dict:
    """op -> Counter of self seconds, keyed by layer and by span name."""
    selfs = self_times(spans)
    out: dict = defaultdict(Counter)
    for s in spans:
        sec = selfs[s.sid] / 1e9
        out[s.op][s.layer] += sec
        out[s.op][s.name] += sec
    return out
