"""Arithmetic of the benchmark's span harness: self time, the
new-flow share, and layer attribution."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracing import (  # noqa: E402
    FlowShare,
    Span,
    Tracer,
    covered,
    layer_metrics,
    self_times,
)


def _span(span_id, name, start, end, parent=None, **attrs):
    span = Span(span_id, name, start, parent, attrs)
    span.end = end
    return span


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("a", "stream.process_columns", 0.0, 10.0),
        _span("b", "ids.score", 1.0, 7.0, parent="a"),
        _span("c", "features.extract", 2.0, 5.0, parent="b"),
        _span("d", "ids.score", 8.0, 9.0, parent="a"),
    ]
    own = self_times(spans)
    assert own == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    # Self times tile the root span exactly.
    assert sum(own.values()) == 10.0


def test_new_flow_share_counts_each_key_once():
    share = FlowShare()
    share.add(["a", "b"], 3)  # rows a, b, a
    share.add(["b", "c"], 2)  # rows b, c
    assert share.fraction == 3 / 5
    assert FlowShare().fraction == 0.0


def test_process_batch_is_training_only_under_fit():
    spans = [
        _span("f", "ids.fit", 0.0, 4.0, ids="Kitsune"),
        _span("t", "ml.process_batch", 1.0, 3.0, parent="f", rows=100),
        _span("s", "ids.score", 5.0, 6.0, ids="Kitsune"),
        _span("e", "ml.process_batch", 5.0, 5.5, parent="s", rows=7),
    ]
    metrics = layer_metrics(spans)
    assert metrics["ml.train_s"] == 2.0
    assert metrics["ml.train_rows"] == 100
    assert metrics["ml.execute_s"] == 0.5
    assert metrics["ml.execute_rows"] == 7
    assert metrics["ids.fit_s.Kitsune"] == 2.0
    assert metrics["ids.score_s"] == 0.5


def test_wrap_records_parent_links_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Layer)["inner"]
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer() == 2
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.restore()
    assert vars(Layer)["inner"] is original
    Layer().outer()
    assert len(tracer.spans) == 2
