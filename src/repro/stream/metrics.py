"""Sliding-window evaluation over a live score stream.

:class:`WindowedMetrics` buckets scored items into fixed-width time
windows (aligned to the first timestamp seen) and renders, per window,
the alert rate plus — when the source carries ground truth — the four
Table IV metrics. Per-window and overall aggregates both go through
:func:`repro.core.metrics.metrics_from_counts`, the same zero-division
conventions as the batch pipeline (zero detections give precision =
recall = F1 = 0).

Items arrive as arrays (:meth:`WindowedMetrics.add_batch`): window ids
come from one ``floor_divide`` and the per-window confusion counts from
one ``bincount``, so the cost per item is a few array operations, not a
Python call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.metrics import MetricReport, metrics_from_counts
from repro.stream.scores import NO_LABEL
from repro.utils.validation import check_positive


@dataclass
class WindowSnapshot:
    """One closed time window's counts and metrics."""

    index: int
    start: float
    end: float
    items: int = 0
    alerts: int = 0
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    labelled_items: int = 0

    @property
    def alert_rate(self) -> float:
        return self.alerts / self.items if self.items else 0.0

    @property
    def report(self) -> MetricReport | None:
        """Table IV metrics for this window, or None if unlabelled."""
        if not self.labelled_items:
            return None
        return metrics_from_counts(self.tp, self.fp, self.tn, self.fn)

    def describe(self) -> str:
        line = (
            f"window {self.index:3d} [{self.start:10.2f}, {self.end:10.2f}) "
            f"items={self.items:6d} alerts={self.alerts:6d} "
            f"rate={self.alert_rate:6.1%}"
        )
        report = self.report
        if report is not None:
            line += (
                f" prec={report.precision:.4f} rec={report.recall:.4f} "
                f"f1={report.f1:.4f}"
            )
        return line

    def to_dict(self) -> dict:
        row = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "items": self.items,
            "alerts": self.alerts,
            "alert_rate": self.alert_rate,
        }
        report = self.report
        if report is not None:
            row.update(
                accuracy=report.accuracy, precision=report.precision,
                recall=report.recall, f1=report.f1,
            )
        return row


class WindowedMetrics:
    """Rolling per-window confusion counts over stream time.

    Items must arrive in non-decreasing timestamp order (the source
    contract). A window closes when an item lands past its end;
    ``on_close`` fires with the closed snapshot — the CLI's live
    summary hook. Empty windows (gaps in traffic) are skipped rather
    than emitted as zero rows.
    """

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

    def add_batch(
        self,
        timestamps: np.ndarray,
        alerted: np.ndarray,
        labels: np.ndarray | None = None,
    ) -> None:
        """Record scored items in arrival order.

        ``labels`` is ``None`` for an unlabelled stream; otherwise an
        item labelled :data:`~repro.stream.scores.NO_LABEL` counts as
        unlabelled. An item whose window id is below the open window's
        (out of order) joins the open window: windows only advance.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        n = timestamps.shape[0]
        if not n:
            return
        alerted = np.asarray(alerted, dtype=bool)
        if self._origin is None:
            self._origin = float(timestamps[0])
        ids = np.maximum.accumulate(
            np.floor_divide(timestamps - self._origin, self.window_seconds)
            .astype(np.int64)
        )
        if self._current is not None:
            ids = np.maximum(ids, self._current.index)
        # Per-item category: alerted, plus 2 x (0 unlabelled, 1 benign,
        # 2 attack) — one bincount yields every window's counts.
        category = alerted.astype(np.int64)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            category += 2 * np.where(
                labels == NO_LABEL, 0, 1 + (labels != 0)
            )
        opens = np.empty(n, dtype=bool)
        opens[0] = True
        np.not_equal(ids[1:], ids[:-1], out=opens[1:])
        starts = np.flatnonzero(opens)
        window_of = np.cumsum(opens) - 1
        counts = np.bincount(
            window_of * 6 + category, minlength=6 * starts.size
        ).reshape(starts.size, 6)
        for index, row in zip(ids[starts].tolist(), counts.tolist()):
            if self._current is not None and index > self._current.index:
                self._close_current()
            if self._current is None:
                start = self._origin + index * self.window_seconds
                self._current = WindowSnapshot(
                    index=index, start=start, end=start + self.window_seconds
                )
            window = self._current
            window.items += sum(row)
            window.alerts += row[1] + row[3] + row[5]
            window.labelled_items += sum(row[2:])
            window.tn += row[2]
            window.fp += row[3]
            window.fn += row[4]
            window.tp += row[5]
        self.total_items += n
        self.total_alerts += int(np.count_nonzero(alerted))

    def _close_current(self) -> None:
        assert self._current is not None
        self.windows.append(self._current)
        if self.on_close is not None:
            self.on_close(self._current)
        self._current = None

    def finalize(self) -> list[WindowSnapshot]:
        """Close the trailing window; return every window in order."""
        if self._current is not None:
            self._close_current()
        return self.windows

    @property
    def alert_rate(self) -> float:
        return self.total_alerts / self.total_items if self.total_items else 0.0

    def overall(self) -> MetricReport | None:
        """Whole-stream metrics (batch conventions), or None if no
        ground truth was ever seen. O(windows), not O(items): the
        per-window confusion counts are sufficient statistics, so a
        multi-hour live stream holds no per-item state."""
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
