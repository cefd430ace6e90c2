"""Span tracing around the engine's public functions, from outside ``src/``.

:func:`instrument` replaces each traced function in every ``stovsg``
module that holds it, so a call is caught under whichever name the engine
calls it by (``stovsg.store.lift_mask`` is ``geometry.lift_mask``).  A
span records its name, start, end, parent and root; a layer's self time
is its span minus the spans of its children.  Counters are taken at the
same boundaries.  Work the benchmark does inside a span for its own sake
(such as the SciPy cross-check) runs under :meth:`Tracer.paused`, which
stops the clock every span reads.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

import stovsg as S
from stovsg.model import SceneGraph4D

import checks


class Tracer:
    def __init__(self) -> None:
        self.paused_s = 0.0
        self.stack: list[list] = []  # [span id, name, child seconds]
        self.spans: list[tuple] = []  # (id, parent, root, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._next_id = 0
        self._gc_start = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    def current(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        root = self.stack[0][0] if self.stack else sid
        entry = [sid, name, 0.0]
        self.stack.append(entry)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            took = end - start
            if self.stack:
                self.stack[-1][2] += took
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += took
            stat[2] += took - entry[2]
            self.spans.append((sid, parent, root, name, start, end))

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``observe(tracer, result, args)`` runs with the clock stopped."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with self.paused():
                    observe(self, result, args)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["runtime.gc.collections"] += 1
            self.counts["runtime.gc_s"] += time.perf_counter() - self._gc_start

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_ms(self, name: str) -> float:
        """Mean self time per call, in ms; 0 when the layer never ran."""
        calls, _, self_s = self.stats.get(name, [0, 0.0, 0.0])
        return 1000.0 * self_s / calls if calls else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root, "name": name,
                                     "start": start, "end": end}, separators=(",", ":")) + "\n")


def _count(key: str, measure: Callable) -> Callable:
    def observe(tracer: Tracer, result, args) -> None:
        tracer.counts[key] += measure(result, args)

    return observe


def _resolved(tracer: Tracer, edges, args) -> None:
    tracer.counts["spatial.candidates"] += len(args[0])
    tracer.counts["spatial.kept"] += len(edges)


def _assigned(tracer: Tracer, pairs, args) -> None:
    cost = args[0]
    tracer.counts["assignment.padded_cells"] += max(cost.shape) ** 2 if cost.size else 0
    tracer.problems.extend(checks.assignment_problems(cost, pairs))


def _indexed(tracer: Tracer, index, args) -> None:
    tracer.counts["model.node_index.entries"] += len(index)


# (module, function, observer) for every traced public function
LAYERS = (
    ("geometry", "lift_mask", _count("geometry.points_lifted", lambda r, a: len(r))),
    ("spatial", "resolve_ambiguous", _resolved),
    ("temporal", "build_cost_matrix", _count("temporal.cost_cells", lambda r, a: r.values.size)),
    ("temporal", "associate", _count("temporal.accepted", lambda r, a: len(r.accepted))),
    ("assignment", "min_cost_assignment", _assigned),
    ("store", "ingest_frame", None),
    ("store", "apply_outcome", None),
    ("store", "frame_at_operator_time", _count("store.frames_scanned", lambda r, a: len(a[0].frames))),
    ("store", "lifecycle_events", _count("store.edges_scanned", lambda r, a: len(a[0].temporal_edges))),
    ("query", "score_nodes", _count("query.nodes_scored", lambda r, a: len(a[0].nodes))),
    ("query", "ground_command", None),
    ("query", "extract_subgraph", None),
    ("formats", "subgraph_payload", None),
    ("formats", "canonical_dumps", None),
    ("formats", "serialize_subgraph", _count("formats.subgraph_bytes", lambda r, a: len(r))),
    ("formats", "parse_stream", _count("formats.frames_parsed", lambda r, a: len(r[1]))),
    ("formats", "graph_to_dict", None),
    ("formats", "dumps", None),
    ("formats", "write_graph", None),
    ("formats", "graph_from_dict", None),
    ("formats", "read_graph", None),
)


class _JsonInReadGraph:
    """Stands in for ``json`` inside ``stovsg.formats``; traces ``loads`` under ``read_graph``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._traced = tracer.wrap("formats.json_loads", json.loads)
        self.dumps = json.dumps
        self.JSONDecodeError = json.JSONDecodeError

    def loads(self, *args, **kwargs):
        if self._tracer.current() == "formats.read_graph":
            return self._traced(*args, **kwargs)
        return json.loads(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(json, name)


def _engine_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "stovsg" or name.startswith("stovsg.")]


@contextmanager
def _patched():
    """Yield a ``patch(owner, attr, value)`` whose changes are undone on exit."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        yield patch
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _trace_functions(tracer: Tracer, layers, patch) -> None:
    modules = _engine_modules()
    for module, attr, observe in layers:
        original = getattr(getattr(S, module), attr)
        traced = tracer.wrap(f"{module}.{attr}", original, observe)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, name, traced)


@contextmanager
def trace_generation(tracer: Tracer):
    """Trace only ``sim.generate_stream``, for the set-up phase."""
    layer = ("sim", "generate_stream", _count("sim.frames_generated", lambda r, a: len(r[0])))
    with _patched() as patch:
        _trace_functions(tracer, (layer,), patch)
        yield tracer


@contextmanager
def instrument(tracer: Tracer):
    """Trace every layer in :data:`LAYERS`, the node index, graph JSON parsing and the collector."""
    with _patched() as patch:
        _trace_functions(tracer, LAYERS, patch)
        built = SceneGraph4D.__dict__["node_index"]
        index = functools.cached_property(tracer.wrap("model.node_index", built.func, _indexed))
        index.__set_name__(SceneGraph4D, "node_index")
        patch(SceneGraph4D, "node_index", index)

        lookup = SceneGraph4D.__dict__["node"]

        def node(graph, node_id):
            tracer.counts["model.node_lookups"] += 1
            return lookup(graph, node_id)

        patch(SceneGraph4D, "node", node)
        patch(S.formats, "json", _JsonInReadGraph(tracer))
        gc.callbacks.append(tracer._on_gc)
        try:
            yield tracer
        finally:
            gc.callbacks.remove(tracer._on_gc)

