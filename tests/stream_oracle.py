"""Reference per-item window, alert and merge code for the live path.

These are the straightforward forms of what :mod:`repro.stream` ships
as array code: :class:`ItemWindowedMetrics` steps one item at a time
through its windows, :class:`ItemHysteresisAlerter` through its
Schmitt trigger, :func:`evaluate_items` replays :class:`StreamScore`
rows through both in stream time, and :func:`merge_items` is the
sort-and-replace merge of the sharded engine. :func:`batch_of` turns
rows into the columns the shipped consumers take.
:func:`shard_key_for_packet` and :func:`shard_for_packet` compute one
packet object's shard key and worker, the per-packet form of
``repro.stream.shard.shard_ids_for_batch``. The shipped
:class:`~repro.stream.metrics.WindowedMetrics`,
:class:`~repro.stream.alerts.HysteresisAlerter`,
``repro.stream.service._evaluate_stream`` and
``repro.stream.sharded._merge_shards`` consume
:class:`~repro.stream.scores.ScoreBatch` columns instead; these classes
stay only as the oracle they are checked against
(``tests/test_stream_metrics_alerts.py``, ``tests/test_stream_shard.py``,
``tests/test_net_columnar.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.core.metrics import MetricReport, metrics_from_counts
from repro.stream.alerts import AlertEpisode
from repro.stream.metrics import WindowSnapshot
from repro.stream.scores import NO_LABEL, ScoreBatch, StreamScore
from repro.stream.shard import (
    KEY_KIND_IP,
    KEY_KIND_MAC,
    KEY_KIND_NONE,
    shard_of_key,
)
from repro.utils.validation import check_fraction, check_positive


def shard_key_for_packet(packet) -> tuple[str, str, str]:
    """The canonical channel key of one packet object.

    IP-bearing packets (including ARP, whose sender/target IPs surface
    through ``Packet.src_ip``/``dst_ip``) key on the sorted IP pair;
    bare L2 frames fall back to the sorted MAC pair; a frame with
    neither maps to the constant ``none`` key.
    """
    src_ip, dst_ip = packet.src_ip, packet.dst_ip
    if src_ip is not None or dst_ip is not None:
        a, b = sorted((src_ip or "0.0.0.0", dst_ip or "0.0.0.0"))
        return (KEY_KIND_IP, a, b)
    ether = packet.ether
    if ether is not None:
        a, b = sorted((ether.src_mac, ether.dst_mac))
        return (KEY_KIND_MAC, a, b)
    return (KEY_KIND_NONE, "", "")


def shard_for_packet(packet, n_shards: int) -> int:
    """The worker index of one packet object."""
    return shard_of_key(shard_key_for_packet(packet), n_shards)


def batch_of(rows: Sequence[StreamScore]) -> ScoreBatch:
    """The columns of ``rows`` (the inverse of :meth:`ScoreBatch.rows`)."""
    rows = list(rows)
    return ScoreBatch.build(
        [row.index for row in rows],
        [row.timestamp for row in rows],
        [row.score for row in rows],
        [NO_LABEL if row.label is None else row.label for row in rows],
        [row.attack_type for row in rows],
    )


class ItemWindowedMetrics:
    """Per-window confusion counts, one ``add`` per item."""

    def __init__(
        self,
        window_seconds: float,
        *,
        on_close: Callable[[WindowSnapshot], None] | None = None,
    ) -> None:
        self.window_seconds = check_positive("window_seconds", window_seconds)
        self.on_close = on_close
        self._origin: float | None = None
        self._current: WindowSnapshot | None = None
        self.windows: list[WindowSnapshot] = []
        self.total_items = 0
        self.total_alerts = 0

    def add(self, timestamp: float, alerted: bool, label: int | None) -> None:
        if self._origin is None:
            self._origin = timestamp
        index = int((timestamp - self._origin) // self.window_seconds)
        if self._current is not None and index > self._current.index:
            self._close_current()
        if self._current is None:
            start = self._origin + index * self.window_seconds
            self._current = WindowSnapshot(
                index=index, start=start, end=start + self.window_seconds
            )
        window = self._current
        window.items += 1
        self.total_items += 1
        if alerted:
            window.alerts += 1
            self.total_alerts += 1
        if label is not None:
            window.labelled_items += 1
            truth, pred = bool(label), bool(alerted)
            if truth and pred:
                window.tp += 1
            elif truth:
                window.fn += 1
            elif pred:
                window.fp += 1
            else:
                window.tn += 1

    def _close_current(self) -> None:
        assert self._current is not None
        self.windows.append(self._current)
        if self.on_close is not None:
            self.on_close(self._current)
        self._current = None

    def finalize(self) -> list[WindowSnapshot]:
        if self._current is not None:
            self._close_current()
        return self.windows

    @property
    def alert_rate(self) -> float:
        return self.total_alerts / self.total_items if self.total_items else 0.0

    def overall(self) -> MetricReport | None:
        snapshots = list(self.windows)
        if self._current is not None:
            snapshots.append(self._current)
        if not any(w.labelled_items for w in snapshots):
            return None
        return metrics_from_counts(
            sum(w.tp for w in snapshots),
            sum(w.fp for w in snapshots),
            sum(w.tn for w in snapshots),
            sum(w.fn for w in snapshots),
        )


class ItemHysteresisAlerter:
    """Schmitt-trigger episodes, one ``update`` per item."""

    def __init__(self, threshold: float, *, release_ratio: float = 0.8) -> None:
        check_fraction("release_ratio", release_ratio)
        self.threshold = float(threshold)
        self.release = (
            self.threshold * release_ratio if self.threshold > 0
            else self.threshold
        )
        self.episodes: list[AlertEpisode] = []
        self._active: AlertEpisode | None = None
        self._attack_counts: dict[str, int] = {}

    def update(
        self,
        timestamp: float,
        score: float,
        *,
        attack_type: str = "",
    ) -> AlertEpisode | None:
        if self._active is None:
            if score >= self.threshold:
                self._active = AlertEpisode(
                    start=timestamp, end=timestamp, items=1,
                    peak_score=score, peak_timestamp=timestamp,
                )
                self._attack_counts = {}
                if attack_type:
                    self._attack_counts[attack_type] = 1
            return None
        if score < self.release:
            return self._close()
        episode = self._active
        episode.end = timestamp
        episode.items += 1
        if score > episode.peak_score:
            episode.peak_score = score
            episode.peak_timestamp = timestamp
        if attack_type:
            self._attack_counts[attack_type] = (
                self._attack_counts.get(attack_type, 0) + 1
            )
        return None

    def finish(self) -> AlertEpisode | None:
        if self._active is None:
            return None
        return self._close()

    def _close(self) -> AlertEpisode:
        assert self._active is not None
        episode = self._active
        if self._attack_counts:
            episode.attack_type = max(
                self._attack_counts.items(), key=lambda kv: (kv[1], kv[0])
            )[0]
        self.episodes.append(episode)
        self._active = None
        self._attack_counts = {}
        return episode


def evaluate_items(
    emitted: Sequence[StreamScore],
    *,
    labelled: bool,
    threshold: float,
    window_seconds: float,
    on_window: Callable[[WindowSnapshot], None] | None,
) -> tuple[ItemWindowedMetrics, ItemHysteresisAlerter]:
    """Replay rows in (timestamp, index) order through both consumers;
    only alerted items vote for an episode's attack family."""
    windows = ItemWindowedMetrics(window_seconds, on_close=on_window)
    alerter = ItemHysteresisAlerter(threshold)
    for item in sorted(emitted, key=lambda it: (it.timestamp, it.index)):
        alerted = item.score >= threshold
        label = item.label if labelled else None
        windows.add(item.timestamp, alerted, label)
        alerter.update(item.timestamp, item.score,
                       attack_type=item.attack_type if alerted else "")
    windows.finalize()
    alerter.finish()
    return windows, alerter


def merge_items(merged: list[tuple[int, StreamScore]]) -> list[StreamScore]:
    """Sort (shard, row) pairs on (timestamp, shard, per-worker index)
    and re-index the rows in that order."""
    merged = sorted(
        merged, key=lambda pair: (pair[1].timestamp, pair[0], pair[1].index)
    )
    return [
        dataclasses.replace(item, index=position)
        for position, (_, item) in enumerate(merged)
    ]
