"""Alerting over a live score stream, with threshold hysteresis.

A raw per-item threshold fires one alert per packet during an attack —
thousands of alerts for one event. :class:`HysteresisAlerter` collapses
them into *episodes*: an episode opens when the score crosses the
threshold and stays open until the score falls below a lower release
level (``threshold * release_ratio``). The gap between the two levels
absorbs score flutter around the boundary, the classic Schmitt-trigger
construction.

Scores arrive as arrays (:meth:`HysteresisAlerter.update_batch`). The
alerter only looks at the rows where the state can change — threshold
crossings open, release crossings close, both found with
``np.flatnonzero`` — and reduces each episode's rows with array
operations: no Python step per item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_fraction


@dataclass
class AlertEpisode:
    """One contiguous run of alert-level scores."""

    start: float
    end: float
    items: int
    peak_score: float
    peak_timestamp: float
    #: Most common attack family among labelled items in the episode
    #: (empty for unlabelled sources or benign false alarms).
    attack_type: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def describe(self) -> str:
        label = f" [{self.attack_type}]" if self.attack_type else ""
        return (
            f"alert [{self.start:10.2f}, {self.end:10.2f}] "
            f"items={self.items:6d} peak={self.peak_score:.4f}{label}"
        )

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "items": self.items,
            "peak_score": self.peak_score,
            "peak_timestamp": self.peak_timestamp,
            "attack_type": self.attack_type,
        }


class HysteresisAlerter:
    """Schmitt-trigger episode detection over (timestamp, score) items.

    An episode opens on a score ``>= threshold`` and closes on the first
    later score ``< release``; the closing item is not part of it. NaN
    scores neither open nor close an episode (an open one counts them
    as items) and never become its peak; the peak is the first maximum.
    Only items at or above the threshold vote for the episode's attack
    family; ties go to the larger name.
    """

    def __init__(self, threshold: float, *, release_ratio: float = 0.8) -> None:
        check_fraction("release_ratio", release_ratio)
        self.threshold = float(threshold)
        # For non-positive thresholds (fully-degenerate score streams)
        # the release level coincides with the threshold: scaling a
        # non-positive number would *raise* the release point.
        self.release = (
            self.threshold * release_ratio if self.threshold > 0
            else self.threshold
        )
        self.episodes: list[AlertEpisode] = []
        self._active: AlertEpisode | None = None
        self._attack_counts: dict[str, int] = {}

    @property
    def active(self) -> bool:
        return self._active is not None

    def update_batch(
        self,
        timestamps: np.ndarray,
        scores: np.ndarray,
        attack_codes: np.ndarray | None = None,
        attack_vocab: tuple[str, ...] = (),
    ) -> list[AlertEpisode]:
        """Feed scored items in stream order; return the episodes they
        closed. ``attack_codes`` index ``attack_vocab`` per item (``None``:
        no attack families)."""
        t = np.asarray(timestamps, dtype=np.float64)
        s = np.asarray(scores, dtype=np.float64)
        n = s.shape[0]
        if not n:
            return []
        opens = np.flatnonzero(s >= self.threshold)
        closes = np.flatnonzero(s < self.release)
        # An open starts a new episode iff a close separates it from the
        # previous open (or, for the first, nothing is carried in). An
        # episode runs up to the first close after its start.
        closes_before = np.searchsorted(closes, opens)
        fresh = np.empty(opens.size, dtype=bool)
        if opens.size:
            fresh[0] = self._active is None or closes_before[0] > 0
            np.not_equal(closes_before[1:], closes_before[:-1],
                         out=fresh[1:])
        stop_at = np.append(closes, n)
        starts = opens[fresh]
        stops = stop_at[closes_before[fresh]]
        carried = self._active is not None
        if carried:
            starts = np.append(0, starts)
            stops = np.append(stop_at[0], stops)
        lengths = stops - starts
        # Every episode's rows, grouped by episode. Only a carried-in
        # episode can be empty here: the batch may open with its close.
        offsets = np.cumsum(lengths) - lengths
        rows = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
        values = s[rows]
        nonempty = lengths > 0
        peak_rows = np.zeros(lengths.size, dtype=np.int64)
        if rows.size:
            ranked = np.where(np.isnan(values), -np.inf, values)
            maxima = np.maximum.reduceat(ranked, offsets[nonempty])
            hits = np.flatnonzero(
                ranked == np.repeat(maxima, lengths[nonempty])
            )
            peak_rows[nonempty] = rows[
                hits[np.searchsorted(hits, offsets[nonempty])]
            ]
        votes = None
        if attack_codes is not None and rows.size:
            codes = np.asarray(attack_codes)[rows]
            named = np.array([bool(name) for name in attack_vocab])
            voting = (values >= self.threshold) & named[codes]
            episode_of = np.repeat(np.arange(lengths.size), lengths)
            width = len(attack_vocab)
            votes = np.bincount(
                episode_of[voting] * width + codes[voting],
                minlength=lengths.size * width,
            ).reshape(lengths.size, width)

        first_ts = t[starts].tolist()
        last_ts = t[stops - 1].tolist()
        peak_scores = s[peak_rows].tolist()
        peak_ts = t[peak_rows].tolist()
        closed: list[AlertEpisode] = []
        for k, (length, stop) in enumerate(
            zip(lengths.tolist(), stops.tolist())
        ):
            if k or not carried:
                self._active = AlertEpisode(
                    start=first_ts[k], end=last_ts[k], items=length,
                    peak_score=peak_scores[k], peak_timestamp=peak_ts[k],
                )
                self._attack_counts = {}
            elif length:
                episode = self._active
                episode.end = last_ts[k]
                episode.items += length
                if peak_scores[k] > episode.peak_score:
                    episode.peak_score = peak_scores[k]
                    episode.peak_timestamp = peak_ts[k]
            if votes is not None:
                counts = self._attack_counts
                for code in np.flatnonzero(votes[k]).tolist():
                    name = attack_vocab[code]
                    counts[name] = counts.get(name, 0) + int(votes[k, code])
            if stop < n:
                closed.append(self._close())
        return closed

    def finish(self) -> AlertEpisode | None:
        """Close any episode still open at end of stream."""
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
