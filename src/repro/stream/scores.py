"""Scored items as columns: what every streaming detector emits.

A :class:`ScoreBatch` holds one stream segment's scores as parallel
arrays — emission index, timestamp, score, label and attack family —
and is the unit detectors return, shard workers ship, the sharded
merge sorts, and windows, alerts and digests consume. Nothing on that
path builds a Python object per item. :class:`StreamScore` is the lazy
row view (:meth:`ScoreBatch.rows`) for callers that want one object per
item.

Attack families are dictionary-encoded: ``attack_codes`` index into
``attack_vocab``, or are ``None`` when every item's family is ``""``
(unlabelled captures). A label of :data:`NO_LABEL` marks an item
without ground truth (``StreamScore.label is None``) — the value the
coverage digest has always hashed for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["NO_LABEL", "ScoreBatch", "StreamScore", "coverage_digest"]

#: Label column value of an item without ground truth.
NO_LABEL = -1


@dataclass(frozen=True)
class StreamScore:
    """One scored item (packet or flow) of the stream."""

    index: int
    timestamp: float
    score: float
    label: int | None = None
    attack_type: str = ""


def _encode_attacks(
    attack_types: Sequence[str] | None,
) -> tuple[np.ndarray | None, tuple[str, ...]]:
    """Dictionary-encode per-item attack families (first-seen order);
    ``(None, ())`` when there are none to carry."""
    if attack_types is None:
        return None, ()
    vocab: dict[str, int] = {}
    codes = np.fromiter(
        (vocab.setdefault(name, len(vocab)) for name in attack_types),
        dtype=np.int32, count=len(attack_types),
    )
    if not vocab or (len(vocab) == 1 and "" in vocab):
        return None, ()
    return codes, tuple(vocab)


@dataclass(eq=False)
class ScoreBatch:
    """Parallel columns of scored items (see the module docstring)."""

    index: np.ndarray                       # int64, emission order
    timestamp: np.ndarray                   # float64
    score: np.ndarray                       # float64
    label: np.ndarray                       # int64, NO_LABEL = none
    attack_codes: np.ndarray | None = None  # int32 into attack_vocab
    attack_vocab: tuple[str, ...] = ()

    def __len__(self) -> int:
        return self.index.shape[0]

    @classmethod
    def build(
        cls,
        index: np.ndarray,
        timestamp: np.ndarray,
        score: np.ndarray,
        label: np.ndarray,
        attack_types: Sequence[str] | None = None,
    ) -> "ScoreBatch":
        """Columns from arrays plus per-item attack-family strings."""
        codes, vocab = _encode_attacks(attack_types)
        return cls(
            np.asarray(index, dtype=np.int64),
            np.asarray(timestamp, dtype=np.float64),
            np.asarray(score, dtype=np.float64),
            np.asarray(label, dtype=np.int64),
            codes, vocab,
        )

    @classmethod
    def empty(cls) -> "ScoreBatch":
        return cls(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: Iterable["ScoreBatch"]) -> "ScoreBatch":
        """One batch of ``batches``' rows in order; attack vocabularies
        are merged and codes remapped."""
        parts = [batch for batch in batches if len(batch)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        codes = None
        vocab: dict[str, int] = {}
        if any(part.attack_codes is not None for part in parts):
            pieces = []
            for part in parts:
                if part.attack_codes is None:
                    code = vocab.setdefault("", len(vocab))
                    pieces.append(np.full(len(part), code, dtype=np.int32))
                else:
                    remap = np.array(
                        [vocab.setdefault(name, len(vocab))
                         for name in part.attack_vocab],
                        dtype=np.int32,
                    )
                    pieces.append(remap[part.attack_codes])
            codes = np.concatenate(pieces)
        return cls(
            np.concatenate([part.index for part in parts]),
            np.concatenate([part.timestamp for part in parts]),
            np.concatenate([part.score for part in parts]),
            np.concatenate([part.label for part in parts]),
            codes, tuple(vocab),
        )

    def take(self, rows: np.ndarray) -> "ScoreBatch":
        """The rows at ``rows`` (an index array or boolean mask)."""
        return ScoreBatch(
            self.index[rows], self.timestamp[rows], self.score[rows],
            self.label[rows],
            None if self.attack_codes is None else self.attack_codes[rows],
            self.attack_vocab,
        )

    def attack_types(self) -> list[str]:
        """Per-item attack families as strings."""
        if self.attack_codes is None:
            return [""] * len(self)
        vocab = self.attack_vocab
        return [vocab[code] for code in self.attack_codes.tolist()]

    def rows(self) -> list[StreamScore]:
        """One :class:`StreamScore` per item — built only on request."""
        return [
            StreamScore(
                index=index, timestamp=timestamp, score=score,
                label=None if label == NO_LABEL else label,
                attack_type=attack_type,
            )
            for index, timestamp, score, label, attack_type in zip(
                self.index.tolist(), self.timestamp.tolist(),
                self.score.tolist(), self.label.tolist(),
                self.attack_types(),
            )
        ]


def coverage_digest(emitted: ScoreBatch | Sequence[StreamScore]) -> str:
    """Worker-count-invariant digest over *which* items were scored.

    Hashes the sorted multiset of (timestamp, label, attack family) —
    the fields that come from the packets, not from the model — so it
    is identical across worker counts iff sharding lost or duplicated
    nothing. Scores are deliberately excluded: the source-keyed NetStat
    aggregations make scores shard-layout-dependent (the documented
    tolerance), while coverage must never be.

    One line ``f"{timestamp!r}|{label}|{attack_type}\\n"`` per item,
    ``-1`` for a missing label, in a stable sort on those three fields.
    A sequence of rows hashes exactly as its columns do; only those
    three fields are read from each row.
    """
    if isinstance(emitted, ScoreBatch):
        batch = emitted
    else:
        items = list(emitted)
        batch = ScoreBatch.build(
            np.arange(len(items)),
            [item.timestamp for item in items],
            np.zeros(len(items)),
            [NO_LABEL if item.label is None else item.label
             for item in items],
            [item.attack_type for item in items],
        )
    keys = (batch.label, batch.timestamp)
    if batch.attack_codes is not None:
        # Sort families by name: rank each vocabulary entry in string
        # order and sort the codes by rank.
        vocab = batch.attack_vocab
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(
            len(vocab))
        keys = (rank[batch.attack_codes], *keys)
    order = np.lexsort(keys)
    sorted_rows = batch.take(order)
    text = "".join([
        f"{timestamp!r}|{label}|{attack_type}\n"
        for timestamp, label, attack_type in zip(
            sorted_rows.timestamp.tolist(), sorted_rows.label.tolist(),
            sorted_rows.attack_types(),
        )
    ])
    return hashlib.sha256(text.encode()).hexdigest()
