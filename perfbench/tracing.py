"""In-memory spans around the program's public entry points.

The benchmark never edits the program to trace it. It replaces a
method or module function with a wrapper that opens a span (name,
start, end, parent) before the call and closes it after, and puts the
original back when the run ends. Spans stay in memory and are written
out once, at the end of the run.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; the per-layer metrics are sums of self
times, so layers add up instead of counting nested work twice.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id, name, start, parent, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data["start"], data["parent"],
                   data["attrs"])
        span.end = data["end"]
        return span


class Tracer:
    """Span recorder for one process, plus the patches it installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._prefix = f"{os.getpid()}:"
        self._count = 0

    # -- recording -------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> Span:
        self._count += 1
        span = Span(self._prefix + str(self._count), name,
                    time.perf_counter(),
                    self._stack[-1] if self._stack else None,
                    attrs if attrs is not None else {})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    def fork_child(self) -> None:
        """Start over in a forked child: drop the parent's spans."""
        self.spans = []
        self._stack = []
        self._prefix = f"{os.getpid()}:"
        self._count = 0

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`restore`."""
        functools.update_wrapper(wrapper, getattr(owner, attr))
        # ``None`` marks an attribute the owner inherits: restoring it
        # means deleting the override, not copying the base version in.
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, *, attrs=None,
             after=None) -> None:
        """Span every call of ``owner.attr``.

        ``attrs(args)`` gives the span's attributes at the call;
        ``after(span, args, result)`` may add counts once the span has
        closed, so their cost stays outside the span's interval.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, attrs(args) if attrs else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self.patch(owner, attr, wrapper)

    def wrap_iter(self, owner, attr: str, name: str, *, after=None) -> None:
        """Span every ``next()`` of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)

            def traced():
                while True:
                    span = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    if after is not None:
                        after(span, item)
                    yield item

            return traced()

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def to_list(self) -> list[dict]:
        return [span.to_dict() for span in self.spans]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the time its children cover."""
    children: dict[str, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class FlowShare:
    """Share of rows that carry a flow key never seen before."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.rows = 0

    def add(self, keys, rows: int) -> None:
        self.seen.update(keys)
        self.rows += rows

    @property
    def fraction(self) -> float:
        return len(self.seen) / self.rows if self.rows else 0.0


#: Every per-layer metric, its unit and which direction is better.
#: A metric a workload does not exercise reads 0 there.
PER_LAYER = {
    "net.decode_s": ("s", "lower"),
    "net.batches": ("count", "higher"),
    "features.extract_s": ("s", "lower"),
    "features.rows": ("count", "higher"),
    "features.new_flow_frac": ("ratio", "lower"),
    "ml.execute_s": ("s", "lower"),
    "ml.execute_rows": ("count", "higher"),
    "ml.train_s": ("s", "lower"),
    "ml.train_rows": ("count", "higher"),
    "ids.fit_s": ("s", "lower"),
    "ids.score_s": ("s", "lower"),
    **{f"ids.{kind}_s.{ids}": ("s", "lower")
       for kind in ("fit", "score")
       for ids in ("Kitsune", "HELAD", "DNN", "Slips")},
    "stream.glue_s": ("s", "lower"),
    "stream.post_s": ("s", "lower"),
    "stream.scores": ("count", "higher"),
    "shard.worker_busy_s": ("s", "lower"),
    "shard.worker_idle_frac": ("ratio", "lower"),
    "shard.checkpoints": ("count", "lower"),
    "shard.send_stalls": ("count", "lower"),
    "shard.retained_peak": ("count", "lower"),
    "shard.dispatch_s": ("s", "lower"),
    "flows.assemble_s": ("s", "lower"),
    "flows.flows": ("count", "higher"),
    "datasets.generate_s": ("s", "lower"),
    "datasets.packets": ("count", "higher"),
    "core.adapt_s": ("s", "lower"),
    "core.threshold_s": ("s", "lower"),
    "runner.cells": ("count", "higher"),
    "runner.cells_failed": ("count", "lower"),
    "runner.retries": ("count", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Span name -> per-layer metric its self time adds to.
_SELF_TIME = {
    "net.decode": "net.decode_s",
    "features.extract": "features.extract_s",
    "stream.process_columns": "stream.glue_s",
    "shard.dispatch": "shard.dispatch_s",
    "flows.assemble": "flows.assemble_s",
    "datasets.generate": "datasets.generate_s",
    "core.adapt": "core.adapt_s",
    "core.threshold": "core.threshold_s",
}

#: Span name -> (its count attribute, per-layer metric it adds to).
_COUNTS = {
    "net.decode": ("batches", "net.batches"),
    "features.extract": ("rows", "features.rows"),
    "flows.assemble": ("flows", "flows.flows"),
    "datasets.generate": ("packets", "datasets.packets"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts from one run's spans.

    ``ml.process_batch`` counts as training when its parent span is
    ``ids.fit`` and as execution otherwise. Metrics that need more than
    spans (stream, shard, runner, trace) are filled in by the caller.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    own = self_times(spans)
    names = {span.id: span.name for span in spans}
    for span in spans:
        target = _SELF_TIME.get(span.name)
        if target is not None:
            metrics[target] += own[span.id]
        if span.name in _COUNTS:
            attr, counter = _COUNTS[span.name]
            metrics[counter] += span.attrs.get(attr, 0)
        if span.name == "ml.process_batch":
            phase = ("train" if names.get(span.parent) == "ids.fit"
                     else "execute")
            metrics[f"ml.{phase}_s"] += own[span.id]
            metrics[f"ml.{phase}_rows"] += span.attrs.get("rows", 0)
        elif span.name in ("ids.fit", "ids.score"):
            kind = span.name.split(".")[1]
            metrics[f"ids.{kind}_s"] += own[span.id]
            metrics[f"ids.{kind}_s.{span.attrs['ids']}"] += own[span.id]
    return metrics
