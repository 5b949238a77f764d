"""Deterministic flow-consistent shard assignment for packet streams.

The sharded streaming engine (:mod:`repro.stream.sharded`) splits one
packet stream across N worker processes, each owning its own NetStat +
detector state. For that split to preserve packet-IDS semantics, every
packet of a conversation must land on the same worker — AfterImage's
damped statistics are keyed by traffic aggregate, and an aggregate torn
across workers would evolve differently than in a single process.

The shard key is therefore the **canonical channel**: the unordered
pair of endpoint addresses (IPs when the packet has them — including
ARP sender/target — MACs otherwise). This is strictly coarser than the
bidirectional 5-tuple flow key, so:

* both directions of any 5-tuple map to the same shard (the flow-key
  invariant), and
* *all* sockets of a host pair stay together, so the Channel and
  Socket aggregations (70 of NetStat's 100 features) are bit-exact
  under sharding.

The remaining source-keyed aggregations (SrcMAC-IP, SrcIP; 30
features) are exact within a shard but see only the shard's share of a
source that talks to hosts in different shards — the documented
tolerance of the sharded mode (see ``docs/STREAMING.md``).

Assignment must be identical in every process, so hashing goes through
BLAKE2b, not Python's per-process-salted ``hash()``.
"""

from __future__ import annotations

import hashlib

#: Shard-key kinds, in fallback order.
KEY_KIND_IP = "ip"
KEY_KIND_MAC = "mac"
KEY_KIND_NONE = "none"


def shard_of_key(key: tuple[str, str, str], n_shards: int) -> int:
    """Map a shard key to ``[0, n_shards)`` with a process-stable hash."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    digest = hashlib.blake2b(
        "|".join(key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


def shard_key_for_flow(flow) -> tuple[str, str, str]:
    """The canonical channel key ``(kind, endpoint_a, endpoint_b)`` of
    one column-batch :class:`~repro.net.columnar.FlowKey`.

    Endpoints are sorted (as strings, dotted quads included) so both
    directions of a conversation produce the same key. IP-bearing rows
    (including ARP, keyed on its sender/target IPs) key on the IP pair;
    bare L2 frames fall back to the MAC pair; a frame with neither maps
    to the constant ``none`` key — such frames carry no flow identity
    at all. ``tests/stream_oracle.py`` holds the same key computed from
    a packet object."""
    if flow.ip_present:
        a, b = sorted((flow.src_ip, flow.dst_ip))
        return (KEY_KIND_IP, a, b)
    if flow.has_ether:
        a, b = sorted((flow.src_mac, flow.dst_mac))
        return (KEY_KIND_MAC, a, b)
    return (KEY_KIND_NONE, "", "")


def shard_ids_for_batch(batch, n_shards: int):
    """Per-row worker indices for a :class:`ColumnBatch`, vectorized.

    Computes the shard once per *unique flow* (the batch's flow table,
    keyed by :func:`shard_key_for_flow`) and broadcasts through the
    inverse index, so the per-row cost is one fancy-index gather
    instead of a hash.
    """
    import numpy as np

    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return np.zeros(len(batch), dtype=np.int64)
    inverse, flows = batch.flow_table()
    flow_shards = np.array(
        [shard_of_key(shard_key_for_flow(flow), n_shards) for flow in flows],
        dtype=np.int64,
    )
    return flow_shards[inverse]
