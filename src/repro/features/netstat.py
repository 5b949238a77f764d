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
  :class:`~repro.features.vector.VectorIncStatDB`, which keys its
  streams on packed integers and resolves and updates a whole batch's
  working sets in a C kernel. It reads packets as a
  :class:`~repro.net.columnar.ColumnBatch`; packet objects are
  columnized through :meth:`ColumnBatch.from_packets` first.

``engine="vector"`` (the default) picks ``vector-native`` when the C
kernel loads and supports the decay count, else ``scalar``;
:attr:`NetStat.backend` reports which one runs. This is the one place
the choice is made; ``REPRO_DISABLE_NATIVE=1`` forces ``scalar``.

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

#: Accepted ``engine`` arguments: the two engines plus the
#: ``"vector"`` default alias.
ENGINES = ("scalar", "vector-native", "vector")


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
        self.packets_seen = 0

    @property
    def feature_count(self) -> int:
        """20 features per decay factor (3 + 3 + 7 + 7)."""
        return 20 * len(self.decays)

    def update(self, packet: Packet) -> np.ndarray:
        """Update all aggregations with ``packet``; return its features.

        Non-IP packets (ARP) still exercise the MAC aggregation; missing
        fields contribute zero-keyed streams, mirroring how Kitsune's
        packet parser degrades on unusual frames. The vector engine runs
        the packet as a one-row batch; :meth:`update_batch` is the
        throughput path.
        """
        if self.backend == "scalar":
            return self._update_scalar(packet)
        return self._update_columns(ColumnBatch.from_packets((packet,)))[0]

    def _update_scalar(self, packet: Packet) -> np.ndarray:
        return self._scalar_features(
            packet.ether.src_mac if packet.ether is not None else "??",
            packet.src_ip or "0.0.0.0",
            packet.dst_ip or "0.0.0.0",
            packet.src_port if packet.src_port is not None else 0,
            packet.dst_port if packet.dst_port is not None else 0,
            float(packet.wire_len),
            packet.timestamp,
        )

    def _scalar_features(
        self, src_mac, src_ip, dst_ip, src_port, dst_port, size, timestamp,
    ) -> np.ndarray:
        """Fold one packet into the scalar engine's four string-keyed
        aggregations; return its features."""
        self.packets_seen += 1
        db = self._db
        features: list[float] = []
        # 1) Source MAC-IP bandwidth.
        features.extend(
            db.update_get_1d(f"mac:{src_mac}|{src_ip}", size, timestamp)
        )
        # 2) Source IP bandwidth.
        features.extend(db.update_get_1d(f"ip:{src_ip}", size, timestamp))
        # 3) Channel: src IP -> dst IP with reverse-direction joint stats.
        features.extend(
            db.update_get_2d(
                f"ch:{src_ip}>{dst_ip}", f"ch:{dst_ip}>{src_ip}", size, timestamp
            )
        )
        # 4) Socket: src IP:port -> dst IP:port.
        features.extend(
            db.update_get_2d(
                f"sk:{src_ip}:{src_port}>{dst_ip}:{dst_port}",
                f"sk:{dst_ip}:{dst_port}>{src_ip}:{src_port}",
                size,
                timestamp,
            )
        )
        return np.asarray(features, dtype=np.float64)

    def update_batch(self, packets) -> np.ndarray:
        """Batched fast path: fold ``packets`` in one pass, return the
        ``(n, feature_count)`` matrix — bit-identical to ``n``
        :meth:`update` calls.

        ``packets`` is a :class:`~repro.net.columnar.ColumnBatch` (the
        ingest path) or a packet sequence. The vector engine columnizes
        a sequence with :meth:`ColumnBatch.from_packets`, takes the
        batch's packed key words, and hands them with the timestamps and
        sizes to :meth:`VectorIncStatDB.update_batch`, which resolves
        every packet's streams and computes every feature in native
        code, writing straight into the result matrix.
        """
        if self.backend == "scalar":
            if isinstance(packets, ColumnBatch):
                return self._update_columns_scalar(packets)
            rows = [self._update_scalar(packet) for packet in packets]
            if not rows:
                return np.empty((0, self.feature_count), dtype=np.float64)
            return np.vstack(rows)
        if not isinstance(packets, ColumnBatch):
            packets = ColumnBatch.from_packets(packets)
        return self._update_columns(packets)

    def _update_columns(self, cols: ColumnBatch) -> np.ndarray:
        n = len(cols)
        out = np.empty((n, self.feature_count))
        self._db.update_batch(cols.key_words(), cols.timestamps,
                              cols.wire_len, out)
        self.packets_seen += n
        return out

    def _update_columns_scalar(self, cols) -> np.ndarray:
        """Scalar-engine columnar path (parity testing, not speed)."""
        inverse, flows = cols.flow_table()
        rows = []
        for flow_index, size, timestamp in zip(
            inverse.tolist(), cols.wire_len.tolist(), cols.timestamps.tolist()
        ):
            flow = flows[flow_index]
            rows.append(self._scalar_features(
                flow.src_mac, flow.src_ip, flow.dst_ip,
                flow.src_port, flow.dst_port, size, timestamp,
            ))
        if not rows:
            return np.empty((0, self.feature_count), dtype=np.float64)
        return np.vstack(rows)

    def extract_all(self, packets) -> np.ndarray:
        """Vectorise a whole packet sequence into an (n, d) matrix.

        The vector engine routes through :meth:`update_batch`, writing
        every packet's features straight into the preallocated result
        matrix with one kernel dispatch per batch."""
        return self.update_batch(packets)
