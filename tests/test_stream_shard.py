"""Shard assignment: the flow-consistency invariant, property-tested.

Sharded streaming is only semantics-preserving if every packet of a
conversation lands on the same worker, the assignment is identical in
every process, and splitting a stream across any worker count neither
loses nor duplicates packets. These are exactly the properties below,
checked on the packet-object key of ``tests/stream_oracle.py``;
``tests/test_net_columnar.py`` holds the shipped column-batch
assignment (``shard_ids_for_batch``) to that key row for row.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.arp import ARPHeader
from repro.net.ethernet import ETHERTYPE_ARP, EthernetHeader
from repro.net.packet import Packet
from repro.stream.shard import (
    KEY_KIND_IP,
    KEY_KIND_MAC,
    KEY_KIND_NONE,
    shard_of_key,
)

from tests.conftest import make_tcp_packet, make_udp_packet, scaled_examples
from tests.stream_oracle import shard_for_packet, shard_key_for_packet

REPO_SRC = Path(__file__).parent.parent / "src"

ips = st.builds(
    "{}.{}.{}.{}".format,
    *(st.integers(0, 255) for _ in range(4)),
)
ports = st.integers(0, 65535)
macs = st.builds(
    "00:11:22:{:02x}:{:02x}:{:02x}".format,
    *(st.integers(0, 255) for _ in range(3)),
)
worker_counts = st.integers(1, 16)


class TestFlowConsistency:
    @settings(max_examples=scaled_examples(200))
    @given(src=ips, dst=ips, sport=ports, dport=ports, n=worker_counts)
    def test_both_directions_of_any_5tuple_same_shard(
            self, src, dst, sport, dport, n):
        forward = make_tcp_packet(src=src, dst=dst, sport=sport,
                                  dport=dport)
        reverse = make_tcp_packet(src=dst, dst=src, sport=dport,
                                  dport=sport)
        assert shard_for_packet(forward, n) == shard_for_packet(reverse, n)

    @settings(max_examples=scaled_examples(100))
    @given(src=ips, dst=ips, sport=ports, dport=ports, n=worker_counts)
    def test_tcp_and_udp_of_same_hosts_share_a_shard(
            self, src, dst, sport, dport, n):
        # The key is the channel, deliberately coarser than the
        # 5-tuple: all sockets of a host pair stay together.
        tcp = make_tcp_packet(src=src, dst=dst, sport=sport, dport=dport)
        udp = make_udp_packet(src=src, dst=dst, sport=dport, dport=sport)
        assert shard_for_packet(tcp, n) == shard_for_packet(udp, n)

    @settings(max_examples=scaled_examples(100))
    @given(src=ips, dst=ips, n=worker_counts)
    def test_arp_keys_on_sender_target_ips_both_directions(
            self, src, dst, n):
        request = Packet(
            timestamp=0.0,
            ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
            arp=ARPHeader(sender_ip=src, target_ip=dst),
        )
        reply = Packet(
            timestamp=0.1,
            ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
            arp=ARPHeader(sender_ip=dst, target_ip=src),
        )
        assert shard_key_for_packet(request)[0] == KEY_KIND_IP
        assert shard_for_packet(request, n) == shard_for_packet(reply, n)
        # ARP about the same hosts rides with their IP traffic.
        ip_packet = make_tcp_packet(src=src, dst=dst)
        assert shard_for_packet(request, n) == shard_for_packet(
            ip_packet, n)

    @settings(max_examples=scaled_examples(100))
    @given(src=macs, dst=macs, n=worker_counts)
    def test_bare_l2_frames_fall_back_to_mac_pair(self, src, dst, n):
        forward = Packet(timestamp=0.0,
                         ether=EthernetHeader(src_mac=src, dst_mac=dst))
        reverse = Packet(timestamp=0.1,
                         ether=EthernetHeader(src_mac=dst, dst_mac=src))
        assert shard_key_for_packet(forward)[0] == KEY_KIND_MAC
        assert shard_for_packet(forward, n) == shard_for_packet(reverse, n)

    def test_headerless_packet_has_the_constant_key(self):
        bare = Packet(timestamp=0.0)
        assert shard_key_for_packet(bare) == (KEY_KIND_NONE, "", "")
        assert shard_for_packet(bare, 7) == shard_for_packet(
            Packet(timestamp=9.0), 7)


class TestPartition:
    @settings(max_examples=scaled_examples(50))
    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
        n=worker_counts,
    )
    def test_no_loss_no_duplication_at_any_worker_count(self, seeds, n):
        packets = [
            make_udp_packet(ts=float(i), src=f"10.1.{seed % 200}.1",
                            dst=f"10.1.{seed % 200}.2")
            for i, seed in enumerate(seeds)
        ]
        shards: dict[int, list] = {w: [] for w in range(n)}
        for packet in packets:
            worker = shard_for_packet(packet, n)
            assert 0 <= worker < n
            shards[worker].append(packet.timestamp)
        merged = Counter(ts for rows in shards.values() for ts in rows)
        assert merged == Counter(p.timestamp for p in packets)

    @settings(max_examples=scaled_examples(100))
    @given(a=ips, b=ips, n=worker_counts)
    def test_assignment_is_pure(self, a, b, n):
        key = (KEY_KIND_IP, *sorted((a, b)))
        assert shard_of_key(key, n) == shard_of_key(key, n)

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ValueError):
            shard_of_key((KEY_KIND_IP, "1.1.1.1", "2.2.2.2"), 0)
        with pytest.raises(ValueError):
            shard_of_key((KEY_KIND_IP, "1.1.1.1", "2.2.2.2"), -3)

    def test_single_shard_takes_everything(self):
        assert shard_of_key((KEY_KIND_IP, "1.1.1.1", "2.2.2.2"), 1) == 0


class TestCrossProcessDeterminism:
    def test_assignment_identical_in_a_fresh_interpreter(self):
        # hash() is per-process salted; the shard hash must not be.
        # A fresh interpreter (fresh hash salt) must agree bit for bit.
        pairs = [
            ("10.0.0.1", "10.0.0.2"),
            ("192.168.7.9", "172.16.0.4"),
            ("255.255.255.255", "0.0.0.0"),
            ("8.8.8.8", "1.1.1.1"),
        ]
        local = [
            shard_of_key((KEY_KIND_IP, *sorted(pair)), n)
            for pair in pairs for n in (2, 3, 8)
        ]
        script = (
            "from repro.stream.shard import shard_of_key\n"
            f"pairs = {pairs!r}\n"
            "out = [shard_of_key(('ip', *sorted(p)), n)"
            " for p in pairs for n in (2, 3, 8)]\n"
            "print(out)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(REPO_SRC), "PYTHONHASHSEED": "random"},
        )
        assert result.returncode == 0, result.stderr
        assert eval(result.stdout.strip()) == local
