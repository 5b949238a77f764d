"""Packet sources: where a live stream's packets come from.

A :class:`PacketSource` is anything that yields packets in
non-decreasing timestamp order. Three concrete sources cover the
paper's scenarios:

* :class:`PcapReplaySource` — replay a capture file through
  :class:`~repro.net.pcap.PcapReader` (ground-truth labels are absent,
  exactly as with the public datasets' raw pcaps);
* :class:`DatasetSource` — a synthetic generator-driven source from
  :mod:`repro.datasets` (labelled, deterministic in ``(seed, scale)``);
* :class:`MixedSource` — a k-way timestamp merge of other sources, for
  multi-attack scenarios composed from several captures.

Sources are *restartable* iterables, not one-shot iterators: each
``iter()`` starts from the beginning, so a session can take a training
prefix and then re-stream for scoring without re-opening anything.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.net.packet import Packet


@runtime_checkable
class PacketSource(Protocol):
    """A restartable stream of timestamp-ordered packets.

    ``labelled`` declares whether ``Packet.label`` carries ground truth
    (pcap replay does not — the format has no label field), so metric
    consumers know whether precision/recall are meaningful.
    """

    labelled: bool

    def __iter__(self) -> Iterator[Packet]: ...

    def describe(self) -> str: ...


class ListSource:
    """An in-memory packet list as a source (tests, pre-adapted data)."""

    def __init__(self, packets: Sequence[Packet], *, name: str = "list",
                 labelled: bool = True) -> None:
        self.packets = list(packets)
        self.name = name
        self.labelled = labelled

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __len__(self) -> int:
        return len(self.packets)

    def describe(self) -> str:
        return f"{self.name} ({len(self.packets)} packets)"


class PcapReplaySource:
    """Replays a libpcap capture file, packet by packet.

    Reading is streaming — the file is never loaded whole — so replay
    memory is O(1) in capture size. Labels are *not* ground truth: pcap
    carries no labels, so every packet arrives with ``label == 0`` and
    ``labelled`` is False.

    ``iter_batches`` exposes the same capture as zero-copy column
    batches (:class:`~repro.net.columnar.ColumnBatch`) for the columnar
    ingest backend.
    """

    labelled = False

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[Packet]:
        from repro.net.pcap import PcapReader

        return iter(PcapReader(self.path))

    def iter_batches(self):
        """Column batches through the mmap decoder (restartable)."""
        from repro.net.columnar import ColumnarPcapReader

        return iter(ColumnarPcapReader(self.path))

    def describe(self) -> str:
        return f"pcap:{self.path}"


class DatasetSource:
    """A synthetic dataset generator as a packet source.

    Generation goes through :func:`repro.datasets.generate_dataset`, so
    an installed dataset cache (the runner's) is honoured. The dataset
    is materialised lazily on first iteration and kept for re-streaming.
    """

    labelled = True

    def __init__(self, name: str, *, seed: int = 0, scale: float = 0.2) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self._dataset = None

    @property
    def dataset(self):
        if self._dataset is None:
            from repro.datasets import generate_dataset

            self._dataset = generate_dataset(
                self.name, seed=self.seed, scale=self.scale
            )
        return self._dataset

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.dataset.packets)

    def describe(self) -> str:
        return f"dataset:{self.name} (seed={self.seed}, scale={self.scale})"


class MixedSource:
    """Interleaves several sources into one timestamp-ordered stream.

    A lazy k-way merge: only one packet per upstream source is buffered.
    Ties break by source position (then arrival order within a source),
    so the interleave is deterministic — a multi-attack scenario built
    from the same parts always replays identically.
    """

    def __init__(self, sources: Sequence[PacketSource]) -> None:
        if not sources:
            raise ValueError("MixedSource needs at least one source")
        self.sources = list(sources)
        self.labelled = all(source.labelled for source in self.sources)

    @staticmethod
    def _keyed(source: PacketSource, position: int):
        for order, packet in enumerate(source):
            yield (packet.timestamp, position, order, packet)

    def __iter__(self) -> Iterator[Packet]:
        streams = [
            self._keyed(source, position)
            for position, source in enumerate(self.sources)
        ]
        for _, _, _, packet in heapq.merge(*streams):
            yield packet

    def describe(self) -> str:
        parts = " + ".join(source.describe() for source in self.sources)
        return f"mix[{parts}]"
