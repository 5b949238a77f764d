"""Columnar zero-copy packet ingest: mmap pcap decode into column batches.

The object pipeline (``PcapReader`` → per-packet ``Packet.from_bytes``)
tops out around 66k pps because every record pays Python-level struct
unpacking and dataclass construction. NetStat, however, only ever reads
seven things per packet: timestamp, wire length, source MAC, the two
IPs, and the two ports. This module decodes exactly those fields for a
whole batch of records at once with vectorized NumPy gathers over a
memory-mapped capture file — structure-of-arrays instead of
array-of-structures — and never materializes a ``Packet`` on the hot
path.

* :class:`ColumnBatch` — the structure-of-arrays record: one NumPy
  column per field, plus lazy per-row :meth:`~ColumnBatch.hydrate` back
  into a full :class:`~repro.net.packet.Packet` when a caller needs
  complete decode (warmup training, DNS/HTTP layers).
* :class:`ColumnarPcapReader` — mmap + vectorized decode of a libpcap
  file into ``ColumnBatch`` chunks.
* :meth:`ColumnBatch.from_packets` — the adapter for in-memory packet
  sequences, and :func:`iter_column_batches` — the one adapter the live
  stream path uses, so every source reaches detectors and shard workers
  as column batches.

Parity contract (enforced by tests and ``bench_ingest_throughput``):
every value the columnar path exposes — timestamps, wire lengths,
NetStat keys, shard keys, error messages and the row at which
they fire — is bit-for-bit identical to what the object path produces
for the same capture, including ARP, non-IP, snaplen-clipped and
truncated edge records. See ``docs/PERFORMANCE.md`` ("Ingest").
"""

from __future__ import annotations

import functools
import mmap
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.net.addresses import (
    bytes_to_mac,
    int_to_ip,
    ip_to_int,
    mac_to_bytes,
)
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.net.packet import Packet
from repro.net.pcap import PcapFormatError, decode_global_header

#: Default rows per decoded :class:`ColumnBatch`.
DEFAULT_BATCH_SIZE = 8192

class FlowKey(NamedTuple):
    """One unique flow of a batch, with object-path-identical strings."""

    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    has_ether: bool
    ip_present: bool


def _canonical(parse, render):
    """``parse`` that also refuses a string ``render`` does not give
    back (``"AA:00:00:00:00:01"``, ``"10.0.0.01"``): the object path
    keys NetStat streams on the string itself, so silently
    canonicalising it here would merge streams that path keeps apart.
    Results are cached across calls, so each distinct address string is
    parsed and checked once, not once per batch."""

    @functools.lru_cache(maxsize=1 << 16)
    def checked(text: str):
        value = parse(text)
        if render(value) != text:
            raise ValueError(
                f"non-canonical address {text!r} (canonical form: "
                f"{render(value)!r})"
            )
        return value

    return checked


_mac_raw = _canonical(mac_to_bytes, bytes_to_mac)
_ip_int = _canonical(ip_to_int, int_to_ip)


class ColumnBatch:
    """A batch of packets as columns (structure-of-arrays).

    Columns (all length ``n``):

    * ``timestamps`` — float64 epoch seconds, bit-identical to the
      object reader's ``ts_sec + ts_frac / divisor``;
    * ``wire_len`` — float64 NetStat packet size
      (``Packet.wire_len`` semantics, already float for the kernel);
    * ``has_ether`` / ``ip_present`` — bools driving the ``"??"`` MAC
      fallback and the IP-vs-MAC shard key choice;
    * ``src_mac`` / ``dst_mac`` — ``(n, 6)`` uint8 raw MAC bytes;
    * ``src_ip`` / ``dst_ip`` — uint32 addresses (0 when absent);
    * ``src_port`` / ``dst_port`` — uint16 (0 when absent).

    ``labels`` / ``attack_types`` are ``None`` for unlabelled captures
    (meaning all-0 / all-``""``) or plain lists mirroring the source
    packets. Use :meth:`row_labels` / :meth:`row_attack_types` to
    materialize.

    Batches sliced out of a reader keep a reference to the mmap'd file
    for lazy :meth:`hydrate`; :meth:`take` (used for shard fan-out)
    drops it so column slices pickle small for worker IPC.
    """

    __slots__ = (
        "timestamps",
        "wire_len",
        "has_ether",
        "ip_present",
        "src_mac",
        "dst_mac",
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "labels",
        "attack_types",
        "_frames",
        "_packets",
        "_flows",
    )

    def __init__(
        self,
        timestamps: np.ndarray,
        wire_len: np.ndarray,
        has_ether: np.ndarray,
        ip_present: np.ndarray,
        src_mac: np.ndarray,
        dst_mac: np.ndarray,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        *,
        labels: list | None = None,
        attack_types: list | None = None,
        frames: tuple | None = None,
        packets: list | None = None,
    ) -> None:
        self.timestamps = timestamps
        self.wire_len = wire_len
        self.has_ether = has_ether
        self.ip_present = ip_present
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.labels = labels
        self.attack_types = attack_types
        self._frames = frames
        self._packets = packets
        self._flows = None

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    # -- construction ----------------------------------------------------
    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "ColumnBatch":
        """Columnize an in-memory packet sequence.

        The one place packet objects become columns: every live source
        without a capture file to decode (datasets, lists, mixes, or a
        pcap under ``packet-objects`` ingest) reaches detectors and
        workers through here. Only ``timestamp``, ``ether``,
        ``src_ip``/``dst_ip``, ``src_port``/``dst_port``, ``wire_len``,
        ``label`` and ``attack_type`` are read. Each column is built as
        one Python list and converted once; each distinct address string
        is parsed (and validated) once, and one that is not in canonical
        form raises ``ValueError``. The originals are retained so
        :meth:`hydrate` is free and exact."""
        packets = list(packets)
        mac_raw, ip_int = _mac_raw, _ip_int
        no_macs = bytes(12)
        timestamps, wire_len, has_ether, ip_present, macs = [], [], [], [], []
        src_ip, dst_ip, src_port, dst_port = [], [], [], []
        for packet in packets:
            timestamps.append(packet.timestamp)
            wire_len.append(packet.wire_len)
            ether = packet.ether
            has_ether.append(ether is not None)
            macs.append(
                no_macs if ether is None
                else mac_raw(ether.src_mac) + mac_raw(ether.dst_mac)
            )
            sip = packet.src_ip
            dip = packet.dst_ip
            ip_present.append(sip is not None or dip is not None)
            src_ip.append(0 if sip is None else ip_int(sip))
            dst_ip.append(0 if dip is None else ip_int(dip))
            sport = packet.src_port
            src_port.append(0 if sport is None else sport)
            dport = packet.dst_port
            dst_port.append(0 if dport is None else dport)
        present = np.array(ip_present, dtype=bool)
        mac = np.frombuffer(b"".join(macs), dtype=np.uint8).reshape(-1, 12)
        return cls(
            np.array(timestamps, dtype=np.float64),
            np.array(wire_len, dtype=np.float64),
            np.array(has_ether, dtype=bool),
            present,
            mac[:, :6],
            mac[:, 6:],
            np.array(src_ip, dtype=np.uint32),
            np.array(dst_ip, dtype=np.uint32),
            np.array(src_port, dtype=np.uint16),
            np.array(dst_port, dtype=np.uint16),
            labels=[packet.label for packet in packets],
            attack_types=[packet.attack_type for packet in packets],
            packets=packets,
        )

    # -- reshaping -------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Contiguous row range as views (no copies); hydration kept."""
        frames = self._frames
        if frames is not None:
            buf, off, length, orig = frames
            frames = (buf, off[start:stop], length[start:stop], orig[start:stop])
        return ColumnBatch(
            self.timestamps[start:stop],
            self.wire_len[start:stop],
            self.has_ether[start:stop],
            self.ip_present[start:stop],
            self.src_mac[start:stop],
            self.dst_mac[start:stop],
            self.src_ip[start:stop],
            self.dst_ip[start:stop],
            self.src_port[start:stop],
            self.dst_port[start:stop],
            labels=None if self.labels is None else self.labels[start:stop],
            attack_types=(
                None
                if self.attack_types is None
                else self.attack_types[start:stop]
            ),
            frames=frames,
            packets=None if self._packets is None else self._packets[start:stop],
        )

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Gather ``indices`` into a compact copy for worker IPC.

        Drops the hydration sources (mmap buffer / retained packets) so
        the result pickles as bare columns — a shard's column slice must
        not drag the whole capture file through the queue."""
        idx = np.asarray(indices, dtype=np.int64)
        rows = idx.tolist()
        return ColumnBatch(
            self.timestamps[idx],
            self.wire_len[idx],
            self.has_ether[idx],
            self.ip_present[idx],
            self.src_mac[idx],
            self.dst_mac[idx],
            self.src_ip[idx],
            self.dst_ip[idx],
            self.src_port[idx],
            self.dst_port[idx],
            labels=(
                None
                if self.labels is None
                else [self.labels[j] for j in rows]
            ),
            attack_types=(
                None
                if self.attack_types is None
                else [self.attack_types[j] for j in rows]
            ),
        )

    # -- pickling (worker IPC) -------------------------------------------
    def __getstate__(self) -> dict:
        # Hydration sources never cross process boundaries: the mmap
        # buffer would serialize the whole capture and retained packet
        # objects defeat column-slice IPC.
        return {
            "timestamps": np.ascontiguousarray(self.timestamps),
            "wire_len": np.ascontiguousarray(self.wire_len),
            "has_ether": np.ascontiguousarray(self.has_ether),
            "ip_present": np.ascontiguousarray(self.ip_present),
            "src_mac": np.ascontiguousarray(self.src_mac),
            "dst_mac": np.ascontiguousarray(self.dst_mac),
            "src_ip": np.ascontiguousarray(self.src_ip),
            "dst_ip": np.ascontiguousarray(self.dst_ip),
            "src_port": np.ascontiguousarray(self.src_port),
            "dst_port": np.ascontiguousarray(self.dst_port),
            "labels": self.labels,
            "attack_types": self.attack_types,
        }

    def __setstate__(self, state: dict) -> None:
        for name in (
            "timestamps", "wire_len", "has_ether", "ip_present",
            "src_mac", "dst_mac", "src_ip", "dst_ip", "src_port", "dst_port",
            "labels", "attack_types",
        ):
            setattr(self, name, state[name])
        self._frames = None
        self._packets = None
        self._flows = None

    # -- row materialization ---------------------------------------------
    def row_labels(self) -> list:
        """Per-row labels (``0`` for unlabelled captures)."""
        if self.labels is not None:
            return list(self.labels)
        return [0] * len(self)

    def row_attack_types(self) -> list:
        """Per-row attack types (``""`` for unlabelled captures)."""
        if self.attack_types is not None:
            return list(self.attack_types)
        return [""] * len(self)

    @property
    def can_hydrate(self) -> bool:
        return self._frames is not None or self._packets is not None

    def hydrate(self, index: int) -> Packet:
        """Fully decode row ``index`` into a :class:`Packet`.

        Off the hot path by design: warmup training and protocol-layer
        consumers (DNS/HTTP) get complete objects; the feature path
        never calls this."""
        if self._packets is not None:
            return self._packets[index]
        if self._frames is None:
            raise RuntimeError(
                "ColumnBatch cannot hydrate: no frame buffer retained "
                "(batches sent through take()/IPC are columns only)"
            )
        buf, off, length, orig = self._frames
        start = int(off[index])
        frame = bytes(memoryview(buf)[start : start + int(length[index])])
        packet = Packet.from_bytes(
            frame, timestamp=float(self.timestamps[index])
        )
        packet.meta["orig_len"] = int(orig[index])
        return packet

    def hydrate_range(self, start: int, stop: int) -> list[Packet]:
        return [self.hydrate(i) for i in range(start, stop)]

    def iter_packets(self) -> Iterator[Packet]:
        for i in range(len(self)):
            yield self.hydrate(i)

    # -- flow keys --------------------------------------------------------
    def key_words(self) -> np.ndarray:
        """``(n, 3)`` uint64 NetStat key words per row, with no strings::

            [ether flag << 48 | src MAC, src IP << 32 | dst IP,
             src port << 16 | dst port]

        A row without Ethernet gets a zero first word (the ``"??"``
        MAC). :class:`repro.features.vector.VectorIncStatDB` builds all
        of a packet's stream keys from these three words."""
        n = len(self)
        words = np.empty((n, 3), dtype=np.uint64)
        mac = np.zeros((n, 8), dtype=np.uint8)
        mac[:, 1] = self.has_ether
        mac[:, 2:] = self.src_mac
        words[:, 0] = mac.view(">u8")[:, 0]
        words[~self.has_ether, 0] = 0
        words[:, 1] = self.src_ip.astype(np.uint64) << np.uint64(32)
        words[:, 1] |= self.dst_ip
        words[:, 2] = self.src_port.astype(np.uint64) << np.uint64(16)
        words[:, 2] |= self.dst_port
        return words

    def flow_table(self) -> tuple[np.ndarray, list[FlowKey]]:
        """``(inverse, flows)``: per-row index into unique flows.

        A flow is the tuple of everything NetStat keys and shard keys
        depend on, as the object path's strings. Shard assignment
        (:func:`repro.stream.shard.shard_ids_for_batch`) and the scalar
        engine's columnar path read it; the vector engine keys on
        :meth:`key_words` instead. Packing each row into 25 bytes and
        deduplicating them vectorized means the string formatting
        (``"a.b.c.d"``, ``"aa:bb:..."``) runs once per unique flow, not
        once per packet. Flows are listed in first-occurrence order."""
        if self._flows is None:
            self._build_flows()
        return self._flows

    def _build_flows(self) -> None:
        n = len(self)
        if n == 0:
            self._flows = (np.empty(0, dtype=np.int64), [])
            return
        packed = np.empty((n, 25), dtype=np.uint8)
        packed[:, 0] = self.has_ether + (
            self.ip_present.astype(np.uint8) << 1
        )
        packed[:, 1:7] = self.src_mac
        packed[:, 7:13] = self.dst_mac
        packed[:, 13:17] = (
            self.src_ip.astype(">u4").view(np.uint8).reshape(n, 4)
        )
        packed[:, 17:21] = (
            self.dst_ip.astype(">u4").view(np.uint8).reshape(n, 4)
        )
        packed[:, 21:23] = (
            self.src_port.astype(">u2").view(np.uint8).reshape(n, 2)
        )
        packed[:, 23:25] = (
            self.dst_port.astype(">u2").view(np.uint8).reshape(n, 2)
        )
        # Vectorized first-occurrence dedup: view each padded record as
        # four u64 words, lexsort (stable, so equal records keep row
        # order), then group runs of equal words. Groups come out in
        # key order; re-ranking by each group's first row restores the
        # first-occurrence numbering the per-row walk would produce.
        padded = np.zeros((n, 32), dtype=np.uint8)
        padded[:, :25] = packed
        words = padded.view(np.uint64)
        order = np.lexsort(
            (words[:, 3], words[:, 2], words[:, 1], words[:, 0])
        )
        sorted_words = words[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        if n > 1:
            np.any(
                sorted_words[1:] != sorted_words[:-1],
                axis=1, out=new_group[1:],
            )
        group_of_sorted = np.cumsum(new_group) - 1
        firsts_sorted = order[np.nonzero(new_group)[0]]
        perm = np.argsort(firsts_sorted, kind="stable")
        rank = np.empty(perm.shape[0], dtype=np.int64)
        rank[perm] = np.arange(perm.shape[0])
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = rank[group_of_sorted]
        uniq_raw = packed.take(firsts_sorted[perm], axis=0).tobytes()
        flows = [
            _flow_from_record(uniq_raw[pos : pos + 25])
            for pos in range(0, len(uniq_raw), 25)
        ]
        self._flows = (inverse, flows)


#: Byte → formatted-octet tables: identical output to
#: :func:`repro.net.addresses.bytes_to_mac` / ``int_to_ip`` at a
#: fraction of the per-call cost (flow_table runs these per unique flow).
_HEX_OCTET = tuple(f"{i:02x}" for i in range(256))
_DEC_OCTET = tuple(str(i) for i in range(256))


def _flow_from_record(rec: bytes) -> FlowKey:
    flags = rec[0]
    has_ether = bool(flags & 1)
    hx = _HEX_OCTET
    dc = _DEC_OCTET
    if has_ether:
        src_mac = (
            f"{hx[rec[1]]}:{hx[rec[2]]}:{hx[rec[3]]}:"
            f"{hx[rec[4]]}:{hx[rec[5]]}:{hx[rec[6]]}"
        )
        dst_mac = (
            f"{hx[rec[7]]}:{hx[rec[8]]}:{hx[rec[9]]}:"
            f"{hx[rec[10]]}:{hx[rec[11]]}:{hx[rec[12]]}"
        )
    else:
        src_mac = dst_mac = "??"
    return FlowKey(
        src_mac,
        dst_mac,
        f"{dc[rec[13]]}.{dc[rec[14]]}.{dc[rec[15]]}.{dc[rec[16]]}",
        f"{dc[rec[17]]}.{dc[rec[18]]}.{dc[rec[19]]}.{dc[rec[20]]}",
        (rec[21] << 8) | rec[22],
        (rec[23] << 8) | rec[24],
        has_ether,
        bool(flags & 2),
    )


class ColumnarPcapReader:
    """Vectorized libpcap decode: mmap the file, gather columns.

    Iterating yields :class:`ColumnBatch` chunks of ``batch_size``
    rows. Handles both byte orders and both microsecond and nanosecond
    magic, exactly like :class:`~repro.net.pcap.PcapReader`, and raises
    the same errors at the same record — complete records decoded
    before a malformed one are still yielded first, mirroring how the
    object reader yields packets until it hits the bad record."""

    def __init__(
        self, path: str | Path, *, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        self.path = Path(path)
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def __iter__(self) -> Iterator[ColumnBatch]:
        with open(self.path, "rb") as fh:
            header = fh.read(24)
            if len(header) < 24:
                raise PcapFormatError("file too short for pcap global header")
            endian, divisor = decode_global_header(header)
            try:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                return  # header-only file already consumed above
        # The mmap (not the fh) backs every yielded batch's frame
        # buffer; it is unmapped when the last batch is collected.
        yield from self._batches(mapped, endian == "<", divisor)

    def _batches(
        self, mapped: mmap.mmap, little: bool, divisor: int
    ) -> Iterator[ColumnBatch]:
        data = np.frombuffer(mapped, dtype=np.uint8)
        file_len = data.size
        byteorder = "little" if little else "big"
        pos = 24
        offsets: list[int] = []
        while pos < file_len:
            if file_len - pos < 16:
                yield from self._flush(offsets, data, little, divisor)
                raise PcapFormatError("truncated pcap record header")
            incl_len = int.from_bytes(mapped[pos + 8 : pos + 12], byteorder)
            if file_len - pos - 16 < incl_len:
                yield from self._flush(offsets, data, little, divisor)
                raise PcapFormatError("truncated pcap packet body")
            offsets.append(pos)
            pos += 16 + incl_len
            if len(offsets) == self.batch_size:
                yield from self._flush(offsets, data, little, divisor)
                offsets = []
        yield from self._flush(offsets, data, little, divisor)

    def _flush(
        self,
        offsets: list[int],
        data: np.ndarray,
        little: bool,
        divisor: int,
    ) -> Iterator[ColumnBatch]:
        if not offsets:
            return
        batch, error = _decode_records(data, offsets, little, divisor)
        if batch is not None:
            yield batch
        if error is not None:
            raise error


def iter_column_batches(
    source, batch_size: int = DEFAULT_BATCH_SIZE, *, native: bool = True
) -> Iterator[ColumnBatch]:
    """Column batches from any packet source.

    With ``native`` (the ``columnar-mmap`` ingest) a source exposing
    ``iter_batches`` (``PcapReplaySource``) decodes its capture straight
    into columns, in the reader's own batches. Every other source — and
    any source under ``packet-objects`` ingest — is iterated as packet
    objects and columnized in chunks of ``batch_size`` through
    :meth:`ColumnBatch.from_packets`, which keeps the packets, so
    hydrating a chunk's rows is free."""
    iter_batches = getattr(source, "iter_batches", None)
    if native and iter_batches is not None:
        yield from iter_batches()
        return
    buffered: list[Packet] = []
    for packet in source:
        buffered.append(packet)
        if len(buffered) >= batch_size:
            yield ColumnBatch.from_packets(buffered)
            buffered = []
    if buffered:
        yield ColumnBatch.from_packets(buffered)


def _decode_records(
    data: np.ndarray, offsets: list[int], little: bool, divisor: int
) -> tuple[ColumnBatch | None, ValueError | None]:
    """Decode the records at ``offsets`` into one :class:`ColumnBatch`.

    Returns ``(batch, error)``. When a record's frame is malformed the
    batch covers the rows before it (``None`` when it is the first row)
    and ``error`` carries the exact ``ValueError`` the object decoders
    raise for that frame, so consumers see failures in record order."""
    o = np.asarray(offsets, dtype=np.int64)
    k = o.size
    nb = data.size
    clamp = nb - 1

    def g8(idx: np.ndarray) -> np.ndarray:
        # Clamped gather: malformed rows may point past the buffer;
        # their garbage values are discarded once the error row is cut.
        return data[np.minimum(idx, clamp)]

    def be16(idx: np.ndarray) -> np.ndarray:
        return (g8(idx).astype(np.uint16) << 8) | g8(idx + 1)

    def be32(idx: np.ndarray) -> np.ndarray:
        return (
            (g8(idx).astype(np.uint32) << 24)
            | (g8(idx + 1).astype(np.uint32) << 16)
            | (g8(idx + 2).astype(np.uint32) << 8)
            | g8(idx + 3)
        )

    def rec32(idx: np.ndarray) -> np.ndarray:
        # Record-header field in file byte order (always in-bounds).
        if little:
            return (
                (data[idx + 3].astype(np.uint32) << 24)
                | (data[idx + 2].astype(np.uint32) << 16)
                | (data[idx + 1].astype(np.uint32) << 8)
                | data[idx]
            )
        return be32(idx)

    ts_sec = rec32(o)
    ts_frac = rec32(o + 4)
    incl = rec32(o + 8)
    orig = rec32(o + 12)
    timestamps = ts_sec.astype(np.float64) + ts_frac.astype(np.float64) / divisor

    f = o + 16  # frame start per record
    L = incl.astype(np.int64)  # captured frame length

    err_idx = k
    err: ValueError | None = None

    def flag(mask: np.ndarray, render) -> None:
        nonlocal err_idx, err
        if mask.any():
            i = int(np.flatnonzero(mask)[0])
            if i < err_idx:
                err_idx = i
                err = render(i)

    ok = L >= 14
    flag(~ok, lambda i: ValueError(
        f"Ethernet frame too short: {int(L[i])} bytes"
    ))
    ethertype = np.where(ok, be16(f + 12), 0)
    arp = ok & (ethertype == ETHERTYPE_ARP)
    ip4 = ok & (ethertype == ETHERTYPE_IPV4)
    l2 = ok & ~arp & ~ip4

    # ARP: fixed 28-byte body, sender/target IPs at frame offsets 28/38.
    arp_len = L - 14
    bad = arp & (arp_len < 28)
    flag(bad, lambda i: ValueError(
        f"ARP message too short: {int(arp_len[i])} bytes"
    ))
    arp_ok = arp & ~bad
    combo_bad = arp_ok & ~(
        (be16(f + 14) == 1)
        & (be16(f + 16) == ETHERTYPE_IPV4)
        & (g8(f + 18) == 6)
        & (g8(f + 19) == 4)
    )
    flag(combo_bad, lambda i: ValueError(
        "unsupported ARP hardware/protocol combination"
    ))
    arp_ok &= ~combo_bad

    # IPv4 header: the object decoder's checks in its exact order.
    ip_len = L - 14
    bad = ip4 & (ip_len < 20)
    flag(bad, lambda i: ValueError(
        f"IPv4 header too short: {int(ip_len[i])} bytes"
    ))
    ip_ok = ip4 & ~bad
    vihl = g8(f + 14).astype(np.int64)
    version = vihl >> 4
    bad = ip_ok & (version != 4)
    flag(bad, lambda i: ValueError(
        f"not an IPv4 packet (version={int(version[i])})"
    ))
    ip_ok &= ~bad
    ihl = (vihl & 0xF) * 4
    bad = ip_ok & ((ihl < 20) | (ip_len < ihl))
    flag(bad, lambda i: ValueError(f"invalid IHL {int(ihl[i])}"))
    ip_ok &= ~bad

    total_length = be16(f + 16).astype(np.int64)
    proto = g8(f + 23)
    # Ethernet padding past total_length is clipped, exactly like the
    # object decoder's payload_end.
    payload_end = np.where(
        total_length >= ihl, np.minimum(ip_len, total_length), ip_len
    )
    rest = payload_end - ihl  # transport header + payload bytes
    t = f + 14 + ihl  # transport start per record

    tcp = ip_ok & (proto == 6)
    udp = ip_ok & (proto == 17)
    icmp = ip_ok & (proto == 1)
    ip_other = ip_ok & ~tcp & ~udp & ~icmp

    bad = tcp & (rest < 20)
    flag(bad, lambda i: ValueError(
        f"TCP header too short: {int(rest[i])} bytes"
    ))
    tcp_ok = tcp & ~bad
    doff = (g8(t + 12).astype(np.int64) >> 4) * 4
    bad = tcp_ok & ((doff < 20) | (rest < doff))
    flag(bad, lambda i: ValueError(
        f"invalid TCP data offset {int(doff[i])}"
    ))
    tcp_ok &= ~bad

    bad = udp & (rest < 8)
    flag(bad, lambda i: ValueError(
        f"UDP header too short: {int(rest[i])} bytes"
    ))
    udp_ok = udp & ~bad
    udp_total = be16(t + 4).astype(np.int64)
    udp_end = np.where(udp_total >= 8, np.minimum(rest, udp_total), rest)

    bad = icmp & (rest < 8)
    flag(bad, lambda i: ValueError(
        f"ICMP header too short: {int(rest[i])} bytes"
    ))
    icmp_ok = icmp & ~bad

    # wire_len: Packet.wire_len semantics (IPv4 header_len is a fixed
    # 20 regardless of options; transports contribute header + payload).
    wire = np.zeros(k)
    wire[l2] = L[l2]
    wire[arp_ok] = 42.0
    wire[ip_other] = 34 + rest[ip_other]
    wire[icmp_ok] = 34 + rest[icmp_ok]
    wire[tcp_ok] = (54 + rest - doff)[tcp_ok]
    wire[udp_ok] = (34 + udp_end)[udp_ok]

    src_ip = np.where(ip_ok, be32(f + 26), np.uint32(0))
    src_ip = np.where(arp_ok, be32(f + 28), src_ip).astype(np.uint32)
    dst_ip = np.where(ip_ok, be32(f + 30), np.uint32(0))
    dst_ip = np.where(arp_ok, be32(f + 38), dst_ip).astype(np.uint32)
    ports = tcp_ok | udp_ok
    src_port = np.where(ports, be16(t), np.uint16(0)).astype(np.uint16)
    dst_port = np.where(ports, be16(t + 2), np.uint16(0)).astype(np.uint16)

    mac_idx = f[:, None] + np.arange(6)
    dst_mac = data[np.minimum(mac_idx, clamp)]
    src_mac = data[np.minimum(mac_idx + 6, clamp)]

    if err_idx < k:
        if err_idx == 0:
            return None, err
        sl = slice(0, err_idx)
        batch = ColumnBatch(
            timestamps[sl], wire[sl],
            np.ones(err_idx, dtype=bool), (arp_ok | ip_ok)[sl],
            src_mac[sl], dst_mac[sl], src_ip[sl], dst_ip[sl],
            src_port[sl], dst_port[sl],
            frames=(data, f[sl], L[sl], orig[sl]),
        )
        return batch, err

    batch = ColumnBatch(
        timestamps, wire,
        np.ones(k, dtype=bool), arp_ok | ip_ok,
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
        frames=(data, f, L, orig),
    )
    return batch, None
