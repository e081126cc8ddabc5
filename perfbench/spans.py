"""Span tracer that wraps the public functions of the ``lockstep`` layers.

Nothing under ``src/`` changes: ``install`` replaces module attributes with
wrappers and ``uninstall`` puts the originals back. Each wrapped call
records one span (name, start, end, parent span, instance id) in memory.

A span is named after the module whose code makes the call, so
``simulation.sfac`` is ``sfac`` as the lockstep driver and verifier use it.
``harness`` and the benchmark itself are drivers rather than layers: a
function they call is named after the module that defines it.
``ProblemOrder`` is traced as ``ordering.ProblemOrder``, its construction.

Leaf predicates evaluated once per clause or literal are not wrapped: they
run millions of times per pass, so wrapping them would swamp the trace.
Their time is self time of their callers.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from lockstep import core, harness, ordering, scl, simulation, superposition

LAYERS = (core, ordering, superposition, scl, simulation, harness)
LEAVES = frozenset({
    "eval_herbrand", "status_under_assignment", "is_defined",
    "trail_value", "literal_level",
})


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []          # [name index, start, end, parent, instance]
        self.stack: list = []
        self.instance = -1             # -1 marks set-up
        self._saved: list = []

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        for module in LAYERS:
            layer = _short(module.__name__)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in LEAVES
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("lockstep.")):
                    continue
                owner = _short(obj.__module__) if module is harness else layer
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, f"{owner}.{attr}"))
        init = ordering.ProblemOrder.__init__
        self._saved.append((ordering.ProblemOrder, "__init__", init))
        ordering.ProblemOrder.__init__ = self._wrap(init, "ordering.ProblemOrder")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds and call count.

        Self time is the span's duration minus the time its child spans
        cover; calls are sequential, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            agg = out[self.names[idx]]
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["calls"] += 1
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "instance"],
                "names": self.names,
                "spans": self.spans,
            }, f, separators=(",", ":"))
