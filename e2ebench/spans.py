"""In-memory span tracer for the benchmark's traced run.

The traced run measures every layer from the outside: :class:`Patcher`
wraps the public entry points of each ``repro`` module (the list in
:data:`FUNCTIONS` and :data:`METHODS`) in spans, for the duration of a
traced pass only, and restores the originals afterwards.  No file under
``src/`` changes.

A span keeps its name, start, end, parent and a small ``args`` dict.
Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (``chrome://tracing`` and https://ui.perfetto.dev open
it).  A span's *layer* is the part of its name before the first dot;
a layer's *self time* is the time its spans cover minus the part of it
covered by their child spans, so the self times of all layers (the
harness layer ``bench`` included) add up to the wall time of the
traced passes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (span name, defining module, function name).  Every ``repro`` module
#: that imported the function by name gets the wrapper too.
FUNCTIONS = (
    ("frontend.parse", "repro.frontend.parser", "parse_function"),
    ("ir.build", "repro.ir.builder", "build_function"),
    ("ir.print", "repro.ir.printer", "function_to_c"),
    ("analysis.analyze", "repro.analysis.driver", "analyze_function"),
    ("dependence.test", "repro.dependence.framework", "test_loop"),
    ("parallelizer.plan", "repro.parallelizer.planner", "plan_function"),
    ("parallelizer.schedule", "repro.parallelizer.schedule", "derive_schedule"),
    ("engines.execute", "repro.runtime.engines", "execute"),
    ("compiler.run", "repro.runtime.compiler", "run_compiled"),
    ("parallel.compile", "repro.runtime.parallel", "compile_parallel"),
    ("inspector.lower", "repro.runtime.inspector", "lower_inspector"),
    ("inspector.inspect", "repro.runtime.inspector", "inspect"),
)

#: (span name, defining module, class, method).
METHODS = (
    ("service.batch", "repro.service.engine", "BatchEngine", "run"),
    ("parallel.lower", "repro.runtime.parallel", "ParallelFunction", "__init__"),
    ("parallel.run", "repro.runtime.parallel", "ParallelFunction", "run"),
    ("fabric.dispatch", "repro.runtime.fabric", "WorkerFabric", "dispatch"),
)


def _inspect_args(result: Any) -> dict:
    return {"cached": bool(result.cached), "parallel": bool(result.parallel)}


def _dispatch_args(results: Any) -> dict:
    # a fabric chunk result is ("ok", events, private, steps, compute seconds)
    busiest = max((r[4] for r in results if r[0] == "ok"), default=0.0)
    return {"busiest_compute_s": busiest}


#: span name -> function of the wrapped call's return value giving args
_RESULT_ARGS: dict[str, Callable[[Any], dict]] = {
    "inspector.inspect": _inspect_args,
    "fabric.dispatch": _dispatch_args,
}


class Tracer:
    """Spans as ``[name, start, end, parent, args]`` lists, in open order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, args: "dict | None" = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, args or {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, name: str, fn: Callable) -> Callable:
        result_args = _RESULT_ARGS.get(name)

        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if result_args is not None:
                    self.spans[idx][4].update(result_args(out))
                return out
            finally:
                self.close(idx)

        return traced

    # -- analysis of recorded spans ------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(idx)
        return kids

    def subtree(self, roots: list[int]) -> list[int]:
        kids = self.children()
        out, todo = [], list(roots)
        while todo:
            idx = todo.pop()
            out.append(idx)
            todo.extend(kids.get(idx, ()))
        return out

    def self_seconds(self, indices: list[int]) -> dict[int, float]:
        """Self time of each span in ``indices`` (a closed subtree)."""
        wanted = set(indices)
        covered: dict[int, float] = defaultdict(float)
        for idx in indices:
            name, start, end, parent, _ = self.spans[idx]
            if parent in wanted:
                covered[parent] += end - start
        return {
            idx: (self.spans[idx][2] - self.spans[idx][1]) - covered[idx]
            for idx in indices
        }

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome trace "complete" event."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = []
        for idx, (name, start, end, parent, args) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": idx, "parent": parent, **args},
                }
            )
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                fh,
            )


class Patcher:
    """Installs and removes the span wrappers of :data:`FUNCTIONS` and
    :data:`METHODS` on the live ``repro`` modules."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._undo:
            return
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for name, mod_name, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self.tracer.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.tracer.wrap(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
