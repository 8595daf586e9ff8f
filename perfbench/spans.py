"""In-memory span recorder for the traced run.

A span is the tuple (id, parent, op, name, start_ns, end_ns, ok, replayed).
Every op gets one span named "op"; each timed call into a quadberk layer is
a span under it.  The library has no spans of its own, so the calls a
layer function makes inside the library are replayed right after it
returns, with the same arguments, each as a child span of the call that
made it and marked ``replayed``.  A replayed child therefore lies after its
parent in time, not inside it, but still inside its op span; its duration
is subtracted from its parent's when self time is computed.  Spans stay in
memory and are written out once, after the run.  Timestamps are
``time.perf_counter_ns()``, which on Linux reads CLOCK_MONOTONIC, so a
child process can report intervals on the same clock.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

OP = "op"


class Tracer:
    def __init__(self, replays: dict):
        """``replays`` maps each traced function to (span name, replay),
        where ``replay(tracer, result, *args)`` repeats, through
        ``tracer.call``, the traced calls that ``fn(*args)`` makes, or is
        None when it makes none."""
        self.replays = replays
        self.spans = []
        self._ids = itertools.count()
        self._parent = None
        self._op_id = None
        self._replaying = False

    def run_op(self, op_id: int, replay, item):
        """Run ``replay(item, self)`` inside one op span."""
        sid = next(self._ids)
        self._parent, self._op_id, self._replaying = sid, op_id, False
        start, ok = perf_counter_ns(), False
        try:
            result = replay(item, self)
            ok = True
            return result
        finally:
            self.spans.append((sid, None, op_id, OP, start, perf_counter_ns(), ok, False))

    def call(self, fn, *args):
        """Time one call into a layer as a span under the current parent,
        then replay the calls it made as its children."""
        name, replay = self.replays[fn]
        sid = next(self._ids)
        start, ok = perf_counter_ns(), False
        try:
            result = fn(*args)
            ok = True
        finally:
            self.spans.append((sid, self._parent, self._op_id, name, start, perf_counter_ns(), ok,
                               self._replaying))
        if replay is not None:
            outer = self._parent, self._replaying
            self._parent, self._replaying = sid, True
            try:
                replay(self, result, *args)
            finally:
                self._parent, self._replaying = outer
        return result

    def add(self, name: str, start: int, end: int) -> None:
        """Record an interval measured elsewhere (e.g. in a child process)."""
        self.spans.append((next(self._ids), self._parent, self._op_id, name, start, end, True, False))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as src:
        return [tuple(json.loads(line)) for line in src if line.strip()]


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its children.  Direct
    children run one after another inside their parent and replayed ones
    repeat work done inside it, so either way their time is the parent's.
    A replay can run longer than the call it repeats, so a single span's
    self time may come out below zero; summed over a run it is unbiased."""
    covered = defaultdict(int)
    for _, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {span[0]: span[5] - span[4] - covered[span[0]] for span in spans}


def layer_metrics(spans, layers) -> dict:
    """``<layer>.calls``, ``.self_ms``, ``.p50_us`` and ``.failed`` for every
    layer named, zero for a layer the workload never calls; plus
    ``trace.overhead_frac``, the share of op-span time that no layer span
    covers (span bookkeeping and replay glue).  Layer spans never overlap
    in time (a replay starts after the call it repeats returned), so the
    time they cover is the sum of their durations."""
    own = self_times(spans)
    durations, selfs, failed = defaultdict(list), defaultdict(int), defaultdict(int)
    op_total = covered = 0
    for sid, _, _, name, start, end, ok, _ in spans:
        if name == OP:
            op_total += end - start
            continue
        covered += end - start
        durations[name].append(end - start)
        selfs[name] += own[sid]
        failed[name] += not ok
    metrics = {}
    for layer in layers:
        calls = durations.get(layer, [])
        metrics[f"{layer}.calls"] = (len(calls), "count")
        metrics[f"{layer}.self_ms"] = (selfs[layer] / 1e6, "ms")
        metrics[f"{layer}.p50_us"] = (statistics.median(calls) / 1e3 if calls else 0.0, "us")
        metrics[f"{layer}.failed"] = (failed[layer], "count")
    metrics["trace.overhead_frac"] = ((op_total - covered) / op_total if op_total else 0.0, "ratio")
    return metrics


def nesting_errors(spans) -> list:
    """Every parent id resolves, every span belongs to its parent's op,
    every direct child lies inside its parent, and every replayed child
    starts after its parent ended and lies inside its op span."""
    by_id = {span[0]: span for span in spans}
    ops = {span[2]: span for span in spans if span[1] is None}
    errors = []
    if len(by_id) != len(spans):
        errors.append("duplicate span ids")
    for sid, parent, op_id, name, start, end, _, replayed in spans:
        if end < start:
            errors.append(f"span {sid} ({name}) ends before it starts")
        if parent is None:
            continue
        outer, op = by_id.get(parent), ops.get(op_id)
        if outer is None or op is None:
            errors.append(f"span {sid} ({name}) has unknown parent {parent} or op {op_id}")
        elif outer[2] != op_id:
            errors.append(f"span {sid} ({name}) is in op {op_id}, its parent {parent} is not")
        elif replayed and not (outer[5] <= start and op[4] <= start and end <= op[5]):
            errors.append(f"replayed span {sid} ({name}) is not after {parent} inside its op")
        elif not replayed and not (outer[4] <= start and end <= outer[5]):
            errors.append(f"span {sid} ({name}) lies outside its parent {parent}")
    return errors
