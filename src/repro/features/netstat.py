"""NetStat: the 100-dimensional Kitsune per-packet feature vector.

For every packet, four traffic aggregations are updated and queried
across five decay factors (Mirsky et al., NDSS 2018, Table I):

* **SrcMAC-IP** — bandwidth of packets from this MAC+IP pair
  (3 stats x 5 decays = 15 features);
* **SrcIP** — bandwidth from this source IP (15 features);
* **Channel** — src IP → dst IP conversation, with joint statistics
  against the reverse direction (7 stats x 5 decays = 35 features);
* **Socket** — src IP:port → dst IP:port conversation, joint as well
  (35 features).

Total: 100 features per packet, computed in O(1) amortised time.

Two engines implement the same semantics bit-for-bit:

* ``engine="scalar"`` — the reference path over per-stream
  :class:`~repro.features.incstat.IncStat` objects;
* ``engine="vector-native"`` — the structure-of-arrays
  :class:`~repro.features.vector.VectorIncStatDB`, which interns the
  four stream keys per (MAC, IPs, ports) tuple once and then updates
  all decay factors of a packet's working set in a C kernel.

``engine="vector"`` (the default) picks ``vector-native`` when the C
kernel loads and supports the decay count, else ``scalar``;
:attr:`NetStat.backend` reports which one runs (see
:mod:`repro.backends`).

See ``docs/PERFORMANCE.md`` for the layout and the parity contract.
"""

from __future__ import annotations

import numpy as np

from repro.features import _native
from repro.features.afterimage import DEFAULT_DECAYS, IncStatDB
from repro.features.vector import VectorIncStatDB
from repro.net.columnar import ColumnBatch
from repro.net.packet import Packet

#: Dimensionality of the exported vector.
KITSUNE_FEATURE_COUNT = 100

#: Accepted ``engine`` arguments: the two registered feature-engine
#: backends plus the ``"vector"`` default alias.
ENGINES = ("scalar", "vector-native", "vector")

#: Upper bound on cached (mac, ips, ports) → interned-rows entries.
_ENTRY_CACHE_LIMIT = 1 << 17


class NetStat:
    """Stateful per-packet feature extractor.

    Feed packets in timestamp order via :meth:`update`; each call
    returns the feature vector for that packet. :attr:`backend` names
    the engine actually running: ``"scalar"`` or ``"vector-native"``.
    """

    def __init__(
        self,
        decays: tuple[float, ...] = DEFAULT_DECAYS,
        *,
        max_streams: int = 100_000,
        engine: str = "vector",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
            )
        self.decays = tuple(decays)
        self.engine = engine
        if engine == "vector":
            native = (
                len(self.decays) <= _native.MAX_DECAYS
                and _native.load_kernel() is not None
            )
            engine = "vector-native" if native else "scalar"
        if engine == "scalar":
            self._db = IncStatDB(self.decays, max_streams=max_streams)
        else:
            self._db = VectorIncStatDB(self.decays, max_streams=max_streams)
        #: The engine actually running (``engine`` may be the alias).
        self.backend = engine
        self._entries: dict[tuple, object] = {}
        self.packets_seen = 0

    @property
    def feature_count(self) -> int:
        """20 features per decay factor (3 + 3 + 7 + 7)."""
        return 20 * len(self.decays)

    def update(self, packet: Packet) -> np.ndarray:
        """Update all aggregations with ``packet``; return its features.

        Non-IP packets (ARP) still exercise the MAC aggregation; missing
        fields contribute zero-keyed streams, mirroring how Kitsune's
        packet parser degrades on unusual frames.
        """
        if self.backend == "scalar":
            return self._update_scalar(packet)
        out = np.empty(self.feature_count)
        self._update_into(packet, out)
        return out

    def _update_scalar(self, packet: Packet) -> np.ndarray:
        self.packets_seen += 1
        timestamp = packet.timestamp
        size = float(packet.wire_len)

        src_mac = packet.ether.src_mac if packet.ether is not None else "??"
        src_ip = packet.src_ip or "0.0.0.0"
        dst_ip = packet.dst_ip or "0.0.0.0"
        src_port = packet.src_port if packet.src_port is not None else 0
        dst_port = packet.dst_port if packet.dst_port is not None else 0

        features: list[float] = []
        # 1) Source MAC-IP bandwidth.
        features.extend(
            self._db.update_get_1d(f"mac:{src_mac}|{src_ip}", size, timestamp)
        )
        # 2) Source IP bandwidth.
        features.extend(self._db.update_get_1d(f"ip:{src_ip}", size, timestamp))
        # 3) Channel: src IP -> dst IP with reverse-direction joint stats.
        features.extend(
            self._db.update_get_2d(
                f"ch:{src_ip}>{dst_ip}", f"ch:{dst_ip}>{src_ip}", size, timestamp
            )
        )
        # 4) Socket: src IP:port -> dst IP:port.
        features.extend(
            self._db.update_get_2d(
                f"sk:{src_ip}:{src_port}>{dst_ip}:{dst_port}",
                f"sk:{dst_ip}:{dst_port}>{src_ip}:{src_port}",
                size,
                timestamp,
            )
        )
        return np.asarray(features, dtype=np.float64)

    def _update_into(self, packet: Packet, out: np.ndarray) -> None:
        """Vector fast path: write ``packet``'s features into ``out``."""
        timestamp = packet.timestamp
        size = float(packet.wire_len)
        ether = packet.ether
        src_mac = ether.src_mac if ether is not None else "??"
        src_ip = packet.src_ip or "0.0.0.0"
        dst_ip = packet.dst_ip or "0.0.0.0"
        src_port = packet.src_port
        if src_port is None:
            src_port = 0
        dst_port = packet.dst_port
        if dst_port is None:
            dst_port = 0

        db = self._db
        cache_key = (src_mac, src_ip, dst_ip, src_port, dst_port)
        entry = self._entries.get(cache_key)
        if entry is None or entry.epoch != db.epoch:
            entry = db.packet_entry(
                src_mac, src_ip, dst_ip, src_port, dst_port, timestamp
            )
            if len(self._entries) >= _ENTRY_CACHE_LIMIT:
                self._entries.clear()
            self._entries[cache_key] = entry
        db.update_packet(entry, size, timestamp, out)
        self.packets_seen += 1

    def update_batch(self, packets) -> np.ndarray:
        """Batched fast path: fold ``packets`` in one pass, return the
        ``(n, feature_count)`` matrix — bit-identical to ``n``
        :meth:`update` calls.

        The vector engine resolves every packet's interned rows first
        (so key interning, cache lookups and prune bookkeeping happen
        once per batch-shape, not interleaved with compute), then hands
        the whole batch to the kernel in one call. Row updates are
        deferred until that compute, so entry resolution threads a
        batch-wide ``pending``/``exclude`` through the database: a
        mid-batch prune sees in-flight rows at their conceptual update
        times and cannot recycle them under an earlier packet.

        Accepts a :class:`~repro.net.columnar.ColumnBatch` in place of
        a packet sequence: the columnar ingest fast path, which skips
        per-packet attribute access entirely (see
        :meth:`_update_columns`).
        """
        if isinstance(packets, ColumnBatch):
            return self._update_columns(packets)
        packets = list(packets)
        if self.backend == "scalar":
            rows = [self.update(packet) for packet in packets]
            if not rows:
                return np.empty((0, self.feature_count), dtype=np.float64)
            return np.vstack(rows)
        n = len(packets)
        out = np.empty((n, self.feature_count))
        if n == 0:
            return out
        db = self._db
        cache = self._entries
        entries = []
        values = np.empty(n)
        stamps = np.empty(n)
        pending: dict[int, float] = {}
        exclude: set[int] = set()
        for index, packet in enumerate(packets):
            timestamp = packet.timestamp
            ether = packet.ether
            src_mac = ether.src_mac if ether is not None else "??"
            src_ip = packet.src_ip or "0.0.0.0"
            dst_ip = packet.dst_ip or "0.0.0.0"
            src_port = packet.src_port
            if src_port is None:
                src_port = 0
            dst_port = packet.dst_port
            if dst_port is None:
                dst_port = 0
            cache_key = (src_mac, src_ip, dst_ip, src_port, dst_port)
            entry = cache.get(cache_key)
            if entry is None or entry.epoch != db.epoch:
                entry = db.packet_entry(
                    src_mac, src_ip, dst_ip, src_port, dst_port,
                    timestamp, pending=pending, exclude=exclude,
                )
                if len(cache) >= _ENTRY_CACHE_LIMIT:
                    cache.clear()
                cache[cache_key] = entry
            # The stat rows (mac, ip, ch_ab, sk_ab) are conceptually
            # updated at this packet's time even though the compute is
            # deferred; a later packet's prune must judge them by it.
            stat_rows = entry.rows
            pending[stat_rows[0]] = timestamp
            pending[stat_rows[1]] = timestamp
            pending[stat_rows[2]] = timestamp
            pending[stat_rows[3]] = timestamp
            exclude.update(stat_rows)
            entries.append(entry)
            values[index] = float(packet.wire_len)
            stamps[index] = timestamp
        db.update_packet_batch(entries, values, stamps, out)
        self.packets_seen += n
        return out

    def _update_columns(self, cols) -> np.ndarray:
        """Batched update straight from ingest columns.

        Bit-identical to feeding the hydrated packets through
        :meth:`update_batch`; the speed comes from resolving keys once
        per *unique flow* (via the batch's flow table) instead of once
        per packet, and from an optimistic no-bookkeeping path when
        every flow's interned rows are already cached.
        """
        n = len(cols)
        if self.backend == "scalar":
            return self._update_columns_scalar(cols)
        out = np.empty((n, self.feature_count))
        if n == 0:
            return out
        db = self._db
        cache = self._entries
        inverse, flows = cols.flow_table()
        keys = [
            (f.src_mac, f.src_ip, f.dst_ip, f.src_port, f.dst_port)
            for f in flows
        ]
        epoch = db.epoch
        entries_by_flow: list = []
        missing: list[int] = []
        for j, key in enumerate(keys):
            entry = cache.get(key)
            if entry is None or entry.epoch != epoch:
                entry = None
                missing.append(j)
            entries_by_flow.append(entry)
        if missing and not self._resolve_flow_entries(
            cols, inverse, keys, entries_by_flow, missing
        ):
            # A prune (or free-list recycling) could fire mid-batch;
            # only the ordered per-row walk reproduces its bookkeeping.
            return self._update_columns_ordered(cols, inverse, keys, out)
        values = np.ascontiguousarray(cols.wire_len, dtype=np.float64)
        stamps = np.ascontiguousarray(cols.timestamps, dtype=np.float64)
        db.update_packet_batch_indexed(
            entries_by_flow, inverse, values, stamps, out
        )
        self.packets_seen += n
        return out

    def _resolve_flow_entries(
        self, cols, inverse, keys, entries_by_flow, missing
    ) -> bool:
        """Intern the missing flows' rows in first-occurrence order.

        Only legal when no prune can fire and the free list is empty:
        then ``pending``/``exclude`` are never consulted, row
        allocation is purely sequential, and resolving per unique flow
        is indistinguishable from the per-row walk. Returns False when
        that guarantee does not hold and the caller must fall back."""
        db = self._db
        # The prune trigger counts stream keys only (cov rows live in
        # a separate table), and a flow interns at most six of those:
        # mac, ip, both channel directions, both socket directions.
        if db._free or len(db._keys) + 6 * len(missing) > db.max_streams:
            return False
        cache = self._entries
        # _intern stamps a stream's creation time, so each flow must be
        # resolved at its first packet's timestamp, in stream order —
        # which is flow-index order, since the flow table lists flows
        # by first occurrence.
        first_rows = cols.flow_first_rows()
        ts_list = cols.timestamps.tolist()
        for j in missing:
            entry = db.packet_entry_unguarded(*keys[j], ts_list[first_rows[j]])
            if len(cache) >= _ENTRY_CACHE_LIMIT:
                cache.clear()
            cache[keys[j]] = entry
            entries_by_flow[j] = entry
        return True

    def _update_columns_ordered(self, cols, inverse, keys, out) -> np.ndarray:
        """Exact per-row mirror of :meth:`update_batch` over columns."""
        n = len(cols)
        db = self._db
        cache = self._entries
        inv = inverse.tolist()
        ts_list = cols.timestamps.tolist()
        entries = []
        pending: dict[int, float] = {}
        exclude: set[int] = set()
        for index in range(n):
            timestamp = ts_list[index]
            cache_key = keys[inv[index]]
            entry = cache.get(cache_key)
            if entry is None or entry.epoch != db.epoch:
                entry = db.packet_entry(
                    *cache_key, timestamp, pending=pending, exclude=exclude
                )
                if len(cache) >= _ENTRY_CACHE_LIMIT:
                    cache.clear()
                cache[cache_key] = entry
            stat_rows = entry.rows
            pending[stat_rows[0]] = timestamp
            pending[stat_rows[1]] = timestamp
            pending[stat_rows[2]] = timestamp
            pending[stat_rows[3]] = timestamp
            exclude.update(stat_rows)
            entries.append(entry)
        values = np.ascontiguousarray(cols.wire_len, dtype=np.float64)
        stamps = np.ascontiguousarray(cols.timestamps, dtype=np.float64)
        db.update_packet_batch(entries, values, stamps, out)
        self.packets_seen += n
        return out

    def _update_columns_scalar(self, cols) -> np.ndarray:
        """Scalar-engine columnar path (parity testing, not speed)."""
        inverse, flows = cols.flow_table()
        inv = inverse.tolist()
        ts_list = cols.timestamps.tolist()
        size_list = cols.wire_len.tolist()
        db = self._db
        rows = []
        for index in range(len(cols)):
            flow = flows[inv[index]]
            timestamp = ts_list[index]
            size = size_list[index]
            src_mac, src_ip, dst_ip = flow.src_mac, flow.src_ip, flow.dst_ip
            src_port, dst_port = flow.src_port, flow.dst_port
            features: list[float] = []
            features.extend(
                db.update_get_1d(f"mac:{src_mac}|{src_ip}", size, timestamp)
            )
            features.extend(db.update_get_1d(f"ip:{src_ip}", size, timestamp))
            features.extend(
                db.update_get_2d(
                    f"ch:{src_ip}>{dst_ip}",
                    f"ch:{dst_ip}>{src_ip}",
                    size,
                    timestamp,
                )
            )
            features.extend(
                db.update_get_2d(
                    f"sk:{src_ip}:{src_port}>{dst_ip}:{dst_port}",
                    f"sk:{dst_ip}:{dst_port}>{src_ip}:{src_port}",
                    size,
                    timestamp,
                )
            )
            rows.append(np.asarray(features, dtype=np.float64))
            self.packets_seen += 1
        if not rows:
            return np.empty((0, self.feature_count), dtype=np.float64)
        return np.vstack(rows)

    def extract_all(self, packets) -> np.ndarray:
        """Vectorise a whole packet sequence into an (n, d) matrix.

        The vector engine routes through :meth:`update_batch`, writing
        every packet's features straight into the preallocated result
        matrix with one kernel dispatch per batch."""
        return self.update_batch(packets)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Interned-row entries hold raw pointers; rebuild after unpickle.
        state["_entries"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Checkpoints from before ``backend`` was stored may name a
        # removed engine; the database they carry decides what runs.
        scalar = isinstance(self._db, IncStatDB)
        self.backend = "scalar" if scalar else "vector-native"
