"""Columnar zero-copy ingest: decode parity, flow tables, hydration,
pcap edge cases over both ingest backends, and the batch reshaping
(slice/take) contracts that sharded column-slice IPC relies on."""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest

from repro.net.arp import ARPHeader
from repro.net.columnar import (
    ColumnBatch,
    ColumnarPcapReader,
    iter_column_batches,
)
from repro.net.ethernet import ETHERTYPE_ARP, EthernetHeader
from repro.net.icmp import ICMPHeader
from repro.net.ipv4 import IPv4Header, PROTO_ICMP
from repro.net.packet import Packet
from repro.net.pcap import (
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)
from repro.stream.service import INGEST_BACKENDS

from tests.conftest import make_tcp_packet, make_udp_packet


def _mixed_packets() -> list[Packet]:
    """TCP/UDP/ICMP/ARP across a handful of conversations, both
    directions, with revisits — the shapes NetStat actually keys on."""
    packets = []
    t = 1000.0
    for i in range(40):
        a, b = f"10.0.0.{1 + i % 4}", f"10.0.1.{1 + i % 3}"
        packets.append(make_tcp_packet(
            ts=t, src=a, dst=b, sport=40000 + i % 5, dport=80,
            payload=b"x" * (i % 7),
        ))
        t += 0.01
        if i % 4 == 0:
            packets.append(make_udp_packet(
                ts=t, src=b, dst=a, sport=53, dport=40000 + i % 5,
                payload=b"q" * (i % 3),
            ))
            t += 0.01
        if i % 7 == 0:
            packets.append(Packet(
                timestamp=t,
                ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
                arp=ARPHeader(sender_ip=a, target_ip=b),
            ))
            t += 0.01
        if i % 9 == 0:
            packets.append(Packet(
                timestamp=t,
                ether=EthernetHeader(),
                ip=IPv4Header(src_ip=a, dst_ip=b, protocol=PROTO_ICMP),
                transport=ICMPHeader(),
            ))
            t += 0.01
    return packets


@pytest.fixture
def capture(tmp_path):
    path = tmp_path / "mixed.pcap"
    write_pcap(path, _mixed_packets())
    return path


def _one_batch(path, **kwargs) -> ColumnBatch:
    batches = list(ColumnarPcapReader(path, **kwargs))
    assert len(batches) == 1
    return batches[0]


def _read_packets(path, backend, batch_size=7):
    """The same capture through either ingest backend, as packets."""
    if backend == "packet-objects":
        return read_pcap(path)
    return [
        batch.hydrate(i)
        for batch in ColumnarPcapReader(path, batch_size=batch_size)
        for i in range(len(batch))
    ]


def _collect_until_error(path, backend, batch_size=4):
    """Packets successfully decoded before the first error, plus the
    error message (None for a clean read)."""
    got = []
    try:
        if backend == "packet-objects":
            for packet in PcapReader(path):
                got.append(packet)
        else:
            for batch in ColumnarPcapReader(path, batch_size=batch_size):
                got.extend(batch.hydrate(i) for i in range(len(batch)))
    except (PcapFormatError, ValueError) as error:
        return got, f"{type(error).__name__}: {error}"
    return got, None


class TestColumnDecodeParity:
    def test_columns_match_object_reader(self, capture):
        objects = read_pcap(capture)
        batch = _one_batch(capture)
        assert len(batch) == len(objects)
        assert batch.timestamps.tolist() == [p.timestamp for p in objects]
        assert batch.wire_len.tolist() == [
            float(p.wire_len) for p in objects
        ]
        assert batch.src_port.tolist() == [
            p.src_port or 0 for p in objects
        ]
        assert batch.dst_port.tolist() == [
            p.dst_port or 0 for p in objects
        ]
        assert batch.ip_present.tolist() == [
            (p.src_ip is not None or p.dst_ip is not None)
            for p in objects
        ]
        # Every array column is byte-equal to the one columnized from
        # the decoded objects: the two constructors build one batch.
        columnized = ColumnBatch.from_packets(objects)
        arrays = [name for name in ColumnBatch.__slots__
                  if not name.startswith("_")
                  and name not in ("labels", "attack_types")]
        for name in arrays:
            ours, theirs = getattr(batch, name), getattr(columnized, name)
            assert ours.dtype == theirs.dtype, name
            assert ours.shape == theirs.shape, name
            assert ours.tobytes() == theirs.tobytes(), name
        assert batch.row_labels() == columnized.row_labels()
        assert batch.row_attack_types() == columnized.row_attack_types()

    def test_flow_strings_match_packet_accessors(self, capture):
        objects = read_pcap(capture)
        batch = _one_batch(capture)
        inverse, flows = batch.flow_table()
        for i, packet in enumerate(objects):
            flow = flows[inverse[i]]
            assert flow.src_ip == (packet.src_ip or "0.0.0.0")
            assert flow.dst_ip == (packet.dst_ip or "0.0.0.0")
            assert flow.src_mac == packet.ether.src_mac
            assert flow.dst_mac == packet.ether.dst_mac
            assert flow.src_port == (packet.src_port or 0)
            assert flow.dst_port == (packet.dst_port or 0)

    def test_flow_table_first_occurrence_order(self, capture):
        batch = _one_batch(capture)
        inverse, flows = batch.flow_table()
        # Every flow has a row, and flow numbering follows
        # first-occurrence order.
        seen = {}
        for row, flow_id in enumerate(inverse.tolist()):
            seen.setdefault(flow_id, row)
        assert len(seen) == len(flows)
        first_rows = [seen[j] for j in range(len(flows))]
        assert first_rows == sorted(first_rows)

    def test_features_bit_identical_across_engines(self, capture):
        from repro.features.netstat import NetStat

        objects = read_pcap(capture)
        reference = NetStat(engine="vector").extract_all(objects)
        for engine in ("vector", "scalar"):
            batch = _one_batch(capture)
            columnar = NetStat(engine=engine).extract_all(batch)
            assert np.array_equal(columnar, reference), engine

    def test_features_bit_identical_across_batch_sizes(self, capture):
        from repro.features.netstat import NetStat

        reference = NetStat(engine="vector").extract_all(
            read_pcap(capture)
        )
        for batch_size in (3, 17, 8192):
            extractor = NetStat(engine="vector")
            chunks = [
                extractor.extract_all(batch)
                for batch in ColumnarPcapReader(
                    capture, batch_size=batch_size
                )
            ]
            assert np.array_equal(np.vstack(chunks), reference), batch_size

    def test_shard_ids_match_object_path(self, capture):
        from repro.stream.shard import shard_ids_for_batch
        from tests.stream_oracle import shard_for_packet

        objects = read_pcap(capture)
        batch = _one_batch(capture)
        for n_shards in (1, 2, 3, 7):
            expected = [shard_for_packet(p, n_shards) for p in objects]
            assert shard_ids_for_batch(batch, n_shards).tolist() == expected


class TestHydrationAndReshaping:
    def test_hydrate_matches_object_reader(self, capture):
        objects = read_pcap(capture)
        batch = _one_batch(capture)
        assert batch.can_hydrate
        for i, expected in enumerate(objects):
            packet = batch.hydrate(i)
            assert packet.timestamp == expected.timestamp
            assert packet.to_bytes() == expected.to_bytes()
            assert packet.meta["orig_len"] == expected.meta["orig_len"]

    def test_slice_views_keep_hydration(self, capture):
        batch = _one_batch(capture)
        part = batch.slice(5, 12)
        assert len(part) == 7
        assert part.can_hydrate
        assert part.hydrate(0).to_bytes() == batch.hydrate(5).to_bytes()
        # Views, not copies.
        assert part.timestamps.base is not None

    def test_take_drops_hydration_and_pickles_as_columns(self, capture):
        batch = _one_batch(capture)
        taken = batch.take(np.array([2, 5, 11]))
        assert len(taken) == 3
        assert not taken.can_hydrate
        with pytest.raises(RuntimeError, match="cannot hydrate"):
            taken.hydrate(0)
        assert taken.timestamps.tolist() == [
            batch.timestamps[i] for i in (2, 5, 11)
        ]
        clone = pickle.loads(pickle.dumps(taken))
        assert clone.timestamps.tolist() == taken.timestamps.tolist()
        assert clone.wire_len.tolist() == taken.wire_len.tolist()
        assert not clone.can_hydrate
        # A mmap-backed batch pickles without dragging the capture
        # through: the payload must be near the bare column size, not
        # the file size.
        assert len(pickle.dumps(taken)) < 4096

    def test_row_labels_default_for_unlabelled_captures(self, capture):
        batch = _one_batch(capture)
        assert batch.row_labels() == [0] * len(batch)
        assert batch.row_attack_types() == [""] * len(batch)

    def test_from_packets_round_trip(self):
        packets = _mixed_packets()[:20]
        packets[3].label = 1
        packets[3].attack_type = "probe"
        batch = ColumnBatch.from_packets(packets)
        assert len(batch) == 20
        assert batch.row_labels()[3] == 1
        assert batch.row_attack_types()[3] == "probe"
        assert batch.hydrate(3) is packets[3]
        assert batch.timestamps.tolist() == [p.timestamp for p in packets]
        assert batch.wire_len.tolist() == [
            float(p.wire_len) for p in packets
        ]

    def test_iter_column_batches_buffers_plain_sources(self):
        from repro.stream.sources import ListSource

        packets = _mixed_packets()[:10]
        batches = list(iter_column_batches(ListSource(packets), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[2].timestamps.tolist() == [
            p.timestamp for p in packets[8:]
        ]

    def test_empty_flow_table(self):
        batch = ColumnBatch.from_packets([])
        inverse, flows = batch.flow_table()
        assert len(batch) == 0
        assert inverse.size == 0 and flows == []


class TestPcapEdgeCases:
    """The same malformed/exotic captures through both ingest backends
    must yield identical packets and identical failures."""

    @pytest.mark.parametrize("backend", INGEST_BACKENDS)
    def test_nanosecond_magic_preserves_sub_microsecond(
        self, tmp_path, backend
    ):
        packets = [
            make_tcp_packet(ts=1000.0 + i + 250e-9) for i in range(5)
        ]
        path = tmp_path / "ns.pcap"
        write_pcap(path, packets, nanosecond=True)
        loaded = _read_packets(path, backend)
        for i, packet in enumerate(loaded):
            # 250ns survives; a microsecond file would round it away.
            assert packet.timestamp == pytest.approx(
                1000.0 + i + 250e-9, abs=1e-10
            )

    def test_nanosecond_timestamps_identical_across_backends(
        self, tmp_path
    ):
        path = tmp_path / "ns2.pcap"
        write_pcap(
            path,
            [make_tcp_packet(ts=1.5 + i * 1e-7) for i in range(9)],
            nanosecond=True,
        )
        objects = _read_packets(path, "packet-objects")
        columns = _one_batch(path)
        assert columns.timestamps.tolist() == [
            p.timestamp for p in objects
        ]

    @pytest.mark.parametrize("backend", INGEST_BACKENDS)
    def test_big_endian_capture(self, tmp_path, backend):
        frames = [make_tcp_packet(sport=1111 + i).to_bytes()
                  for i in range(4)]
        path = tmp_path / "be.pcap"
        with open(path, "wb") as fh:
            fh.write(struct.pack(
                ">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1
            ))
            for i, frame in enumerate(frames):
                fh.write(struct.pack(
                    ">IIII", 100 + i, 2500, len(frame), len(frame)
                ))
                fh.write(frame)
        loaded = _read_packets(path, backend)
        assert [p.src_port for p in loaded] == [1111, 1112, 1113, 1114]
        assert [p.timestamp for p in loaded] == [
            100 + i + 0.0025 for i in range(4)
        ]

    @pytest.mark.parametrize("truncate_in", ("header", "body"))
    def test_truncated_final_record_parity(self, tmp_path, truncate_in):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, [make_tcp_packet(ts=float(i)) for i in range(3)])
        data = path.read_bytes()
        # Cut into the last record's body, or into its 16-byte header.
        cut = 5 if truncate_in == "body" else len(make_tcp_packet().to_bytes()) + 5
        path.write_bytes(data[: len(data) - cut])
        results = {
            backend: _collect_until_error(path, backend)
            for backend in INGEST_BACKENDS
        }
        obj_got, obj_err = results["packet-objects"]
        col_got, col_err = results["columnar-mmap"]
        # Both yield the complete records, then the same error.
        assert len(obj_got) == len(col_got) == 2
        assert obj_err is not None and obj_err == col_err
        assert [p.timestamp for p in obj_got] == [
            p.timestamp for p in col_got
        ]

    def test_snaplen_clipped_frames_parity(self, tmp_path):
        # 100-byte snaplen clips the payload but leaves whole headers:
        # both backends must decode the clipped frame identically and
        # keep the original length in meta.
        packet = make_tcp_packet(payload=b"z" * 500)
        path = tmp_path / "snap.pcap"
        with PcapWriter(path, snaplen=100) as writer:
            writer.write(packet)
        loaded = {
            backend: _read_packets(path, backend)[0]
            for backend in INGEST_BACKENDS
        }
        obj, col = loaded["packet-objects"], loaded["columnar-mmap"]
        assert obj.meta["orig_len"] == col.meta["orig_len"] == packet.wire_len
        assert obj.to_bytes() == col.to_bytes()
        assert obj.wire_len == col.wire_len
        batch = _one_batch(path)
        assert batch.wire_len[0] == float(obj.wire_len)

    def test_snaplen_clipped_mid_header_error_parity(self, tmp_path):
        # A 20-byte snaplen cuts into the IPv4 header: the object
        # decoder raises ValueError; the columnar decode must fire the
        # same message at the same record.
        path = tmp_path / "snap-bad.pcap"
        with PcapWriter(path, snaplen=20) as writer:
            writer.write(make_tcp_packet(ts=0.0))
        results = {
            backend: _collect_until_error(path, backend)
            for backend in INGEST_BACKENDS
        }
        obj_got, obj_err = results["packet-objects"]
        col_got, col_err = results["columnar-mmap"]
        assert obj_got == [] and col_got == []
        assert obj_err is not None and obj_err == col_err
        assert "IPv4 header too short" in obj_err

    def test_malformed_mid_batch_yields_prefix_first(self, tmp_path):
        # Records before a malformed one must still come out, in
        # order, from the same batch that contains the bad row.
        good = [make_tcp_packet(ts=float(i)) for i in range(5)]
        path = tmp_path / "midbad.pcap"
        frames = [p.to_bytes() for p in good]
        with open(path, "wb") as fh:
            fh.write(struct.pack(
                "<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1
            ))
            for i, frame in enumerate(frames):
                body = frame if i != 3 else frame[:20]  # clip record 3
                fh.write(struct.pack(
                    "<IIII", i, 0, len(body), len(frame)
                ))
                fh.write(body)
        results = {
            backend: _collect_until_error(path, backend, batch_size=8192)
            for backend in INGEST_BACKENDS
        }
        obj_got, obj_err = results["packet-objects"]
        col_got, col_err = results["columnar-mmap"]
        assert len(obj_got) == len(col_got) == 3
        assert obj_err == col_err and "IPv4" in obj_err
        assert [p.timestamp for p in col_got] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("backend", INGEST_BACKENDS)
    def test_header_only_file_is_empty(self, tmp_path, backend):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert _read_packets(path, backend) == []

    def test_bad_magic_parity(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        for backend in INGEST_BACKENDS:
            _, err = _collect_until_error(path, backend)
            assert err is not None and "magic" in err


SYNTHETIC_DATASETS = (
    "CICIDS2017", "UNSW-NB15", "BoT-IoT", "Stratosphere", "Mirai",
    "ToN-IoT", "KDD-reference",
)


class TestColumnsFromObjectsParity:
    """``ColumnBatch.from_packets`` is the one place packet objects
    become columns, so every non-capture source (and every pcap under
    ``packet-objects`` ingest) is scored through it. Its columns must
    feed NetStat and the shard key exactly as the objects would."""

    @pytest.fixture(scope="class", params=SYNTHETIC_DATASETS)
    def packets(self, request):
        from repro.datasets.registry import generate_dataset_uncached

        return generate_dataset_uncached(
            request.param, seed=3, scale=0.05
        ).packets

    def test_features_bit_identical_in_one_batch_and_in_chunks(
            self, packets):
        from repro.features.netstat import NetStat

        reference = NetStat().extract_all(packets)
        whole = NetStat().extract_all(ColumnBatch.from_packets(packets))
        assert np.array_equal(whole, reference)
        extractor = NetStat()
        chunked = np.vstack([
            extractor.extract_all(
                ColumnBatch.from_packets(packets[start:start + 256])
            )
            for start in range(0, len(packets), 256)
        ])
        assert np.array_equal(chunked, reference)

    def test_shard_ids_match_object_path(self, packets):
        from repro.stream.shard import shard_ids_for_batch
        from tests.stream_oracle import shard_for_packet

        batch = ColumnBatch.from_packets(packets)
        for n_shards in (2, 3, 7):
            expected = [shard_for_packet(p, n_shards) for p in packets]
            assert shard_ids_for_batch(batch, n_shards).tolist() == expected

    def test_malformed_address_still_raises(self):
        # A spoiled address after well-formed ones still raises: each
        # distinct string is parsed (and validated) once.
        packets = _mixed_packets()[:2]
        packets[1].ip.src_ip = "10.0.0.300"
        with pytest.raises(ValueError, match="invalid IPv4 octet"):
            ColumnBatch.from_packets(packets)
        packets = _mixed_packets()[:2]
        packets[1].ether.src_mac = "zz:00:00:00:00:01"
        with pytest.raises(ValueError, match="invalid MAC"):
            ColumnBatch.from_packets(packets)

    @pytest.mark.parametrize("field, canonical, spelling", [
        ("src_mac", "aa:00:00:00:00:01", "AA:00:00:00:00:01"),
        ("dst_mac", "aa:00:00:00:00:01", "aa:0:00:00:00:01"),
        ("src_ip", "10.0.0.1", "10.0.0.01"),
        ("dst_ip", "10.0.0.2", "010.0.0.2"),
    ])
    def test_non_canonical_address_is_refused(
        self, field, canonical, spelling
    ):
        from repro.features.netstat import NetStat

        # The object path keys NetStat streams on the address string,
        # so "AA:..." and "aa:..." are two streams there, where columns
        # would silently merge them. A spelling that does not round-trip
        # is refused, also after the canonical one was accepted.
        packets = _mixed_packets()[:2]
        layer = "ether" if field.endswith("mac") else "ip"
        setattr(getattr(packets[0], layer), field, canonical)
        setattr(getattr(packets[1], layer), field, spelling)
        assert len(ColumnBatch.from_packets(packets[:1])) == 1
        with pytest.raises(ValueError, match="non-canonical address"):
            ColumnBatch.from_packets(packets)
        with pytest.raises(ValueError, match="non-canonical address"):
            NetStat(engine="vector-native").update_batch(packets)
