"""Spans around the calls into each anonsearch layer, recorded from outside.

Nothing in the library is changed on disk: `install_layers` rebinds public
functions and methods in the imported modules to timing wrappers for the
life of one solve process. Spans are aggregated per (phase, parent, name)
as calls, inclusive seconds and self seconds, so a run of ~10^6 calls
keeps a few dozen records. The phase spans (setup, greedy, search,
output) are the roots, which splits every layer's time by phase.

A "new extent" is the first call for a key (the block extent, or
(extent, split id) for `apply_split`). The library's caches never evict,
so this count equals the size of the cache without reading it.
"""

from __future__ import annotations

import heapq
import importlib
import types
from time import perf_counter


class Tracer:
    def __init__(self):
        # each frame is [name, span key, child seconds, start]
        self.stack: list = []
        # (phase, parent, name) -> [calls, incl, self]
        self.spans: dict = {}
        self.counts: dict = {}     # name -> int
        self._seen: dict = {}      # name -> set of keys

    # ---- phases (roots) ----

    def open_phase(self, name):
        self.close_phase()
        self.stack.append([name, (name, "", name), 0.0, perf_counter()])

    def close_phase(self):
        if self.stack:
            name, key, child, t0 = self.stack[0]
            self._record(key, perf_counter() - t0, child)
            self.stack.clear()

    def _record(self, key, dur, child):
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def note_key(self, name, key):
        seen = self._seen.get(name)
        if seen is None:
            seen = self._seen[name] = set()
        if key not in seen:
            seen.add(key)
            self.add(name + ".new_extents")

    # ---- wrappers ----

    def wrap(self, name, fn, key=None, result=None):
        """Wrap `fn` in a span. `key(*args)` feeds new-extent counting and
        `result(value)` records counts taken from the return value."""
        frames = self.stack
        record = self._record

        def traced(*args, **kwargs):
            parent = frames[-1] if frames else None
            span_key = ((frames[0][0], parent[0], name) if parent
                        else ("none", "", name))
            frame = [name, span_key, 0.0, 0.0]
            frames.append(frame)
            if key is not None:
                self.note_key(name, key(*args))
            t0 = perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                frames.pop()
                if parent is not None:
                    parent[2] += dur
                record(span_key, dur, frame[2])
            if result is not None:
                result(value)
            return value

        traced.__wrapped__ = fn
        return traced

    # ---- summaries ----

    def table(self):
        return [{"phase": p, "parent": par, "name": n, "calls": c,
                 "incl_s": i, "self_s": s}
                for (p, par, n), (c, i, s) in sorted(self.spans.items())]


def _patch(owner, attr, wrapper_factory):
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper_factory(original))


def install_layers(tracer: Tracer):
    """Wrap the public entry points of every measured layer."""
    cli = importlib.import_module("anonsearch.cli")
    bounds = importlib.import_module("anonsearch.bounds")
    constraints = importlib.import_module("anonsearch.constraints")
    metrics = importlib.import_module("anonsearch.metrics")
    partition = importlib.import_module("anonsearch.partition")
    # the package re-exports a function named `search`; fetch the module
    search_mod = importlib.import_module("anonsearch.search")
    t = tracer
    extent = lambda self, block: block.extent  # noqa: E731

    # dataset and splits: bound by name in the cli module
    _patch(cli, "load_config", lambda f: t.wrap("dataset.load_config", f))
    _patch(cli, "load_dataset", lambda f: t.wrap(
        "dataset.load_dataset", f,
        result=lambda ds: t.add("dataset.rows", len(ds))))
    _patch(cli, "generate_splits", lambda f: t.wrap(
        "splits.generate_splits", f,
        result=lambda ss: t.add("splits.count", len(ss))))

    # partition
    Space = partition.Space
    _patch(Space, "__init__", lambda f: t.wrap("partition.space_build", f))
    _patch(Space, "apply_split", lambda f: t.wrap(
        "partition.apply_split", f,
        key=lambda self, block, s: (block.extent, s.id)))
    _patch(Space, "move_blocks", lambda f: t.wrap("partition.move_blocks", f))
    _patch(Space, "available_moves",
           lambda f: t.wrap("partition.available_moves", f))
    Tree = partition.PartitionTree
    _patch(Tree, "apply_move", lambda f: t.wrap("partition.apply_move", f))
    _patch(Tree, "splittable_leaves",
           lambda f: t.wrap("partition.splittable_leaves", f))
    # search.py binds these names at import
    _patch(search_mod, "legal_moves", lambda f: t.wrap(
        "partition.legal_moves", f,
        result=lambda moves: t.add("partition.legal_moves.moves",
                                   len(moves))))

    # bounds
    _patch(search_mod, "lower_bound",
           lambda f: t.wrap("bounds.lower_bound", f))
    _patch(bounds.BoundContext, "min_cost",
           lambda f: t.wrap("bounds.min_cost", f, key=extent))

    # metrics
    for cls in (metrics.Discernibility, metrics.ClassificationError):
        _patch(cls, "block_cost", lambda f: t.wrap("metrics.block_cost", f))

    # constraints
    _patch(constraints.ConstraintSet, "block_flags",
           lambda f: t.wrap("constraints.block_flags", f, key=extent))

    # search: the priority queue, through the module's `heapq` name
    search_mod.heapq = types.SimpleNamespace(
        heappush=t.wrap("search.heap.push", heapq.heappush),
        heappop=t.wrap("search.heap.pop", heapq.heappop),
        heapify=t.wrap("search.heap.heapify", heapq.heapify))
