"""Outside-in tracing of the aggeval layers.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces the
public functions named in ``SPANS`` at every ``aggeval`` module attribute
that refers to them (the names their callers look up), wraps the methods
named in ``METHOD_SPANS`` on their classes, and counts constructions of
the classes in ``COUNTED``; ``uninstall`` puts the originals back.

Each wrapped call records a span ``(name, start, end, parent, call id)``
in memory.  A layer's self time is a span's duration minus the part its
child spans cover; spans nest strictly because the benchmark is single
threaded, so that part is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

MODULES = ("core", "network", "priority", "hierarchy", "description", "cli")

# (module, public function) -> span name.  The span is installed wherever
# an aggeval module holds the function under that name.
SPANS = {
    ("cli", "main"): "cli.main",
    ("description", "load_description"): "description.load_description",
    ("network", "validate_hierarchy"): "network.validate_hierarchy",
    ("network", "validate_network"): "network.validate_network",
    ("core", "wem"): "core.wem",
    ("core", "wlam"): "core.wlam",
    ("core", "nam"): "core.nam",
    ("core", "hybrid_grouped"): "core.hybrid_grouped",
    ("core", "wem_then_aggregate"): "core.wem_then_aggregate",
    ("hierarchy", "aggregate"): "hierarchy.aggregate",
    ("hierarchy", "compare_methods"): "hierarchy.compare_methods",
    ("hierarchy", "sweep"): "hierarchy.sweep",
    ("priority", "betweenness_centrality"): "priority.betweenness_centrality",
    ("priority", "degree_centrality"): "priority.degree_centrality",
    ("priority", "flow_volume"): "priority.flow_volume",
    ("priority", "rank_nodes"): "priority.rank_nodes",
    ("priority", "derive_priorities"): "priority.derive_priorities",
    ("priority", "group_by_priority"): "priority.group_by_priority",
}

# (module, class, method) -> span name.
METHOD_SPANS = {
    ("core", "EvaluationVector", "subset"): "core.EvaluationVector.subset",
    ("description", "SystemDescription", "hierarchy_root"): "description.hierarchy_root",
}

# (module, class) -> counter name; constructions only, no span.
COUNTED = {
    ("core", "EvaluationVector"): "core.EvaluationVector",
    ("core", "GroupedSystem"): "core.GroupedSystem",
    ("hierarchy", "AggregationReport"): "hierarchy.AggregationReport",
}

JSON_DECODE = "description.json_decode"


class _JsonModule(types.ModuleType):
    """Stand-in for ``aggeval.description.json`` with a traced ``loads``."""

    def __init__(self, loads):
        super().__init__("json")
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # spans of the call in progress
        self.stack: list[int] = [-1]
        self.call = [0]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn):
        index = self._name_index(name)
        spans, stack, call = self.spans, self.stack, self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            position = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(position)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[position] = (index, start, end, parent, call[0])

        return traced

    def _counted(self, name: str, init):
        counts = self.counts

        @functools.wraps(init)
        def counting(*args, **kwargs):
            counts[name] += 1
            init(*args, **kwargs)

        return counting

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"aggeval.{m}") for m in MODULES}
        holders = [sys.modules["aggeval"], *modules.values()]
        for (module, attr), name in SPANS.items():
            original = getattr(modules[module], attr)
            traced = self._span(name, original)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._replace(holder, attr, traced)
        for (module, cls, attr), name in METHOD_SPANS.items():
            owner = getattr(modules[module], cls)
            self._replace(owner, attr, self._span(name, owner.__dict__[attr]))
        for (module, cls), name in COUNTED.items():
            owner = getattr(modules[module], cls)
            self._replace(owner, "__init__", self._counted(name, owner.__init__))
        description = modules["description"]
        self._replace(description, "json", _JsonModule(self._span(JSON_DECODE, json.loads)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def begin_call(self, call_id: int) -> None:
        self.spans.clear()
        self.counts.clear()
        self.call[0] = call_id

    def end_call(self) -> dict[str, float]:
        """Per-call totals: ``<span>.ms`` (self), ``<span>.calls``, ``<class>.count``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (index, start, end, _, _), cover in zip(spans, covered):
            name = self.names[index]
            totals[f"{name}.ms"] = totals.get(f"{name}.ms", 0.0) + (end - start - cover) * 1e3
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for name, count in self.counts.items():
            totals[f"{name}.count"] = count
        return totals

    def span_records(self) -> list[dict]:
        """The spans of the call just ended, as JSON-ready records."""
        return [
            {"name": self.names[i], "start": s, "end": e, "parent": p, "call": c}
            for i, s, e, p, c in self.spans
        ]
