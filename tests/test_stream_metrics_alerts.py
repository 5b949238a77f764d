"""Windowed metrics and hysteresis alerting: hand-computed checks, and
the array consumers held to the per-item oracle in
``tests/stream_oracle.py``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stream.alerts import HysteresisAlerter
from repro.stream.metrics import WindowedMetrics
from repro.stream.scores import StreamScore, coverage_digest
from repro.stream.service import _evaluate_stream
from repro.stream.sharded import _merge_shards

from tests.conftest import scaled_examples
from tests.stream_oracle import batch_of, evaluate_items, merge_items


def _add(wm: WindowedMetrics, timestamp, alerted, label) -> None:
    """Record one scored item through ``add_batch``."""
    wm.add_batch(np.array([timestamp]), np.array([alerted]),
                 None if label is None else np.array([label]))


def _update(alerter: HysteresisAlerter, timestamp, score, attack_type=""):
    """Feed one scored item through ``update_batch``; return the episode
    it closed, if any."""
    closed = alerter.update_batch(
        np.array([timestamp]), np.array([score]),
        np.zeros(1, dtype=np.int32) if attack_type else None,
        (attack_type,),
    )
    return closed[-1] if closed else None


class TestWindowedMetrics:
    def test_hand_computed_two_windows(self):
        wm = WindowedMetrics(10.0)
        # Window 0 ([100, 110)): tp, fp, tn
        _add(wm, 100.0, True, 1)   # tp
        _add(wm, 104.0, True, 0)   # fp
        _add(wm, 109.9, False, 0)  # tn
        # Window 1 ([110, 120)): fn, tp
        _add(wm, 110.0, False, 1)  # fn
        _add(wm, 115.0, True, 1)   # tp
        windows = wm.finalize()
        assert [w.index for w in windows] == [0, 1]
        w0, w1 = windows
        assert (w0.start, w0.end) == (100.0, 110.0)
        assert (w0.tp, w0.fp, w0.tn, w0.fn) == (1, 1, 1, 0)
        assert w0.alerts == 2 and w0.items == 3
        assert w0.alert_rate == pytest.approx(2 / 3)
        r0 = w0.report
        assert r0.precision == pytest.approx(0.5)
        assert r0.recall == pytest.approx(1.0)
        assert r0.f1 == pytest.approx(2 / 3)
        assert (w1.tp, w1.fp, w1.tn, w1.fn) == (1, 0, 0, 1)
        assert w1.report.recall == pytest.approx(0.5)
        # Overall aggregate: tp=2 fp=1 tn=1 fn=1 over 5 items.
        overall = wm.overall()
        assert (overall.tp, overall.fp, overall.tn, overall.fn) == (2, 1, 1, 1)
        assert overall.accuracy == pytest.approx(3 / 5)
        assert wm.alert_rate == pytest.approx(3 / 5)

    def test_gap_windows_are_skipped(self):
        wm = WindowedMetrics(1.0)
        _add(wm, 0.0, False, 0)
        _add(wm, 100.0, False, 0)  # 99 empty windows in between
        windows = wm.finalize()
        assert [w.index for w in windows] == [0, 100]
        assert all(w.items == 1 for w in windows)

    def test_unlabelled_stream_has_no_reports(self):
        wm = WindowedMetrics(10.0)
        _add(wm, 0.0, True, None)
        _add(wm, 1.0, False, None)
        (window,) = wm.finalize()
        assert window.report is None
        assert window.alerts == 1
        assert wm.overall() is None

    def test_on_close_fires_per_window(self):
        closed = []
        wm = WindowedMetrics(1.0, on_close=closed.append)
        _add(wm, 0.0, False, 0)
        _add(wm, 1.5, False, 0)
        assert len(closed) == 1  # first window closed by the second item
        wm.finalize()
        assert len(closed) == 2

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedMetrics(0.0)


class TestEvaluateStreamOrdering:
    def test_flow_completion_order_is_resorted_to_stream_time(self):
        """Flow scores arrive in completion order: a long flow's end
        time can precede an already-emitted short flow's. The evaluator
        must replay them in stream time, not emission order."""
        from repro.stream.detector import StreamScore
        from repro.stream.service import _evaluate_stream

        emitted = [
            # Long flow closes at t=25 and is emitted first...
            StreamScore(index=0, timestamp=25.0, score=1.0, label=1),
            # ...then two short flows that ended earlier surface.
            StreamScore(index=1, timestamp=3.0, score=0.0, label=0),
            StreamScore(index=2, timestamp=14.0, score=1.0, label=1),
        ]
        windows, alerter = _evaluate_stream(
            batch_of(emitted), labelled=True, threshold=0.5,
            window_seconds=10.0, on_window=None,
        )
        assert [w.index for w in windows.windows] == [0, 1, 2]
        assert [(w.items, w.alerts) for w in windows.windows] == [
            (1, 0), (1, 1), (1, 1),
        ]
        # Episodes are time-ordered too: one from t=14, one from t=25
        # (score dips below release at no point in between... the t=25
        # item extends the episode opened at t=14).
        assert len(alerter.episodes) == 1
        episode = alerter.episodes[0]
        assert (episode.start, episode.end) == (14.0, 25.0)


class TestHysteresisAlerter:
    def test_episode_opens_at_threshold_closes_below_release(self):
        # threshold 1.0, release 0.8: 0.9 keeps the episode alive.
        alerter = HysteresisAlerter(1.0, release_ratio=0.8)
        assert _update(alerter, 0.0, 0.5) is None
        assert _update(alerter, 1.0, 1.2) is None      # opens
        assert alerter.active
        assert _update(alerter, 2.0, 0.9) is None      # hysteresis holds
        assert _update(alerter, 3.0, 1.5) is None      # new peak
        episode = _update(alerter, 4.0, 0.1)           # closes
        assert episode is not None
        assert (episode.start, episode.end) == (1.0, 3.0)
        assert episode.items == 3
        assert episode.peak_score == 1.5
        assert episode.peak_timestamp == 3.0
        assert episode.duration == 2.0
        assert not alerter.active

    def test_flutter_without_hysteresis_would_split(self):
        """The score dips to 0.9 twice; one episode, not three."""
        alerter = HysteresisAlerter(1.0, release_ratio=0.8)
        for ts, score in enumerate([1.1, 0.9, 1.1, 0.9, 1.1]):
            _update(alerter, float(ts), score)
        assert alerter.finish() is not None
        assert len(alerter.episodes) == 1
        assert alerter.episodes[0].items == 5

    def test_finish_closes_open_episode(self):
        alerter = HysteresisAlerter(0.5)
        _update(alerter, 0.0, 0.7)
        episode = alerter.finish()
        assert episode is not None and episode.items == 1
        assert alerter.finish() is None

    def test_attack_type_majority_vote(self):
        alerter = HysteresisAlerter(0.5)
        _update(alerter, 0.0, 0.9, attack_type="ddos")
        _update(alerter, 1.0, 0.9, attack_type="scan")
        _update(alerter, 2.0, 0.9, attack_type="ddos")
        episode = alerter.finish()
        assert episode.attack_type == "ddos"

    def test_nonpositive_threshold_release_does_not_rise(self):
        alerter = HysteresisAlerter(-0.5, release_ratio=0.8)
        assert alerter.release == -0.5
        _update(alerter, 0.0, 0.0)
        assert alerter.active


# -- array consumers against the per-item oracle --------------------------

#: Few distinct names, so attack-family votes tie; two are non-ASCII.
ATTACKS = ("", "ddos", "scan", "débordement", "扫描")

timestamps = st.one_of(
    st.integers(0, 40).map(lambda i: i * 0.5),          # ties
    st.floats(0.0, 500.0, allow_nan=False),             # wide gaps
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def score_streams(draw):
    """(rows, threshold, labelled): unsorted completion-order rows whose
    scores hit the threshold and release levels exactly, and NaN."""
    threshold = draw(st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5, 2.0]))
    release = threshold * 0.8 if threshold > 0 else threshold
    scores = st.one_of(
        st.sampled_from([threshold, release, float("nan"), 0.0, -0.0,
                         threshold + 1.0, release - 1.0]),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    labelled = draw(st.booleans())
    labels = st.sampled_from([0, 1, None]) if labelled else st.just(0)
    n = draw(st.integers(0, 60))
    rows = [
        StreamScore(index=i, timestamp=draw(timestamps), score=draw(scores),
                    label=draw(labels),
                    attack_type=draw(st.sampled_from(ATTACKS)))
        for i in range(n)
    ]
    return rows, threshold, labelled


def _fields(obj) -> str:
    """Field-for-field identity, -0.0 and NaN included."""
    return repr(dataclasses.astuple(obj))


def _window_view(windows) -> list:
    return [(_fields(w), w.alert_rate, w.to_dict()) for w in windows]


class TestArrayConsumersMatchOracle:
    @settings(max_examples=scaled_examples(300), deadline=None)
    @given(stream=score_streams(), window=st.sampled_from([0.5, 1.0, 7.5]))
    def test_windows_and_episodes_match_per_item_replay(self, stream, window):
        rows, threshold, labelled = stream
        got_closed, want_closed = [], []
        windows, alerter = _evaluate_stream(
            batch_of(rows), labelled=labelled,
            threshold=threshold, window_seconds=window,
            on_window=got_closed.append,
        )
        oracle_windows, oracle_alerter = evaluate_items(
            rows, labelled=labelled, threshold=threshold,
            window_seconds=window, on_window=want_closed.append,
        )
        assert _window_view(windows.windows) == _window_view(
            oracle_windows.windows)
        assert [_fields(w) for w in got_closed] == [
            _fields(w) for w in want_closed]
        assert windows.alert_rate == oracle_windows.alert_rate
        assert windows.overall() == oracle_windows.overall()
        assert [_fields(e) for e in alerter.episodes] == [
            _fields(e) for e in oracle_alerter.episodes]

    @settings(max_examples=scaled_examples(200), deadline=None)
    @given(stream=score_streams(), cuts=st.lists(st.integers(0, 60)))
    def test_batches_split_anywhere_carry_windows_and_episodes(
            self, stream, cuts):
        """Consumers fed the same sorted stream in arbitrary pieces end
        where one whole batch ends: open windows and episodes, and
        their votes, carry across batch boundaries."""
        rows, threshold, labelled = stream
        ordered = sorted(rows, key=lambda it: (it.timestamp, it.index))
        whole, _ = _evaluate_stream(
            batch_of(ordered), labelled=labelled, threshold=threshold,
            window_seconds=1.0, on_window=None,
        )
        _, oracle = evaluate_items(
            ordered, labelled=labelled, threshold=threshold,
            window_seconds=1.0, on_window=None,
        )
        batch = batch_of(ordered)
        windows = WindowedMetrics(1.0)
        alerter = HysteresisAlerter(threshold)
        bounds = sorted({0, len(ordered),
                         *[cut for cut in cuts if cut < len(ordered)]})
        for start, stop in zip(bounds, bounds[1:]):
            part = batch.take(np.arange(start, stop))
            windows.add_batch(part.timestamp, part.score >= threshold,
                              part.label if labelled else None)
            alerter.update_batch(part.timestamp, part.score,
                                 part.attack_codes, part.attack_vocab)
        windows.finalize()
        alerter.finish()
        assert _window_view(windows.windows) == _window_view(whole.windows)
        assert [_fields(e) for e in alerter.episodes] == [
            _fields(e) for e in oracle.episodes]

    @settings(max_examples=scaled_examples(200), deadline=None)
    @given(parts=st.lists(
        st.tuples(st.integers(0, 3), st.lists(timestamps, max_size=20)),
        max_size=5,
    ))
    def test_sharded_merge_matches_sort_and_replace(self, parts):
        tagged, batches = [], []
        for worker, stamps in parts:
            rows = [StreamScore(index=i, timestamp=t, score=float(i),
                                label=i % 2, attack_type=ATTACKS[i % 5])
                    for i, t in enumerate(stamps)]
            tagged.extend((worker, row) for row in rows)
            batches.append((worker, batch_of(rows)))
        merged = _merge_shards(batches)
        want = merge_items(tagged)
        assert [_fields(row) for row in merged.rows()] == [
            _fields(row) for row in want]


class TestCoverageDigestPin:
    """Equal timestamps, -0.0 beside 0.0 (the stable tie order decides
    which repr is hashed first), missing labels and non-ASCII families."""

    ROWS = [
        (5.0, 1, "débordement"), (0.0, None, ""), (-0.0, None, ""),
        (5.0, 0, "扫描"), (5.0, 1, "ddos"), (-0.0, 0, ""), (0.0, 0, ""),
        (1.5, 1, "ddos"), (1.5, 1, "ddos"), (0.0, None, "ß"),
        (-0.0, None, "ß"),
    ]
    #: Hex of the per-row digest these rows hashed to before scores
    #: became columns; forward and reversed order differ by -0.0 ties.
    FORWARD = "d2f3815c412a4c51d9c11caa3e37c3b439920a647b1420343f1b1b902459cd7e"
    REVERSED = "13a9f12a145b0c3157e10791705eed04ef721ba67abbae8d1d5c920a4abb495a"

    def _rows(self):
        return [StreamScore(index=i, timestamp=t, score=0.1 * i, label=label,
                            attack_type=attack)
                for i, (t, label, attack) in enumerate(self.ROWS)]

    def test_batch_and_rows_hash_the_pinned_bytes(self):
        rows = self._rows()
        for ordered, expected in ((rows, self.FORWARD),
                                  (rows[::-1], self.REVERSED)):
            assert coverage_digest(ordered) == expected
            assert coverage_digest(batch_of(ordered)) == expected

    def test_rows_round_trip_through_columns(self):
        rows = self._rows()
        assert batch_of(rows).rows() == rows
