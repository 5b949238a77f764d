"""Throughput microbenchmarks for the substrates.

These are classic pytest-benchmark timing loops: packets/second through
the flow assembler, the pcap codec, and the traffic generators — the
performance envelope that bounds how large an evaluation the pipeline
can run. Each loop records its headline number as
``BENCH_substrates_*.json`` at the repo root. The AfterImage extractor
has its own bench, ``benchmarks/bench_netstat_throughput.py``, which
times both engines' batched paths behind a parity gate.

The flow-assembly bench times the shipped timer-heap assembler against
the scan oracle (``tests/flow_oracle.py``) on Mirai and BoT-IoT and
fails unless both yield the same flows, field for field, in the same
order. It honours the common ``--scale`` option::

    PYTHONPATH=src pytest benchmarks/bench_substrates.py -s -k flow_assembly
"""

import math
import time

import pytest

from repro.datasets import generate_dataset
from repro.flows.assembler import FlowAssembler
from repro.net.packet import Packet
from repro.net.pcap import read_pcap, write_pcap

from benchmarks.conftest import (
    bench_seconds, save_bench_json, save_result, scale_or,
)
from tests.flow_oracle import ScanFlowAssembler, record_state

#: Flow-assembly rows: a scan capture where most packets open a flow,
#: and BoT-IoT, which holds thousands of flows open at once.
FLOW_DATASETS = ("Mirai", "BoT-IoT")
#: The Table IV default scale.
FLOW_SCALE = 0.35
FLOW_REPEATS = 3


@pytest.fixture(scope="module")
def packets():
    return generate_dataset("Mirai", seed=0, scale=0.1).packets


def _timed_flows(assembler_cls, packets):
    """Best-of-``FLOW_REPEATS`` seconds for ``process`` + ``flush``, and
    the flows in the order they were yielded."""
    best = math.inf
    for _ in range(FLOW_REPEATS):
        assembler = assembler_cls()
        start = time.perf_counter()
        flows = list(assembler.process(packets))
        flows.extend(assembler.flush())
        best = min(best, time.perf_counter() - start)
    return best, flows


def test_flow_assembly_throughput(bench_scale):
    scale = scale_or(bench_scale, FLOW_SCALE)
    rows = {}
    total_packets, total_seconds = 0, 0.0
    for name in FLOW_DATASETS:
        packets = generate_dataset(name, seed=0, scale=scale).packets
        oracle_seconds, expected = _timed_flows(ScanFlowAssembler, packets)
        heap_seconds, flows = _timed_flows(FlowAssembler, packets)
        assert list(map(record_state, flows)) == list(
            map(record_state, expected)
        ), f"{name}: timer-heap flows diverged from the scan oracle"
        total_packets += len(packets)
        total_seconds += heap_seconds
        rows[name] = {
            "packets": len(packets),
            "flows": len(flows),
            "oracle_seconds": round(oracle_seconds, 4),
            "heap_seconds": round(heap_seconds, 4),
            "oracle_pps": round(len(packets) / oracle_seconds),
            "heap_pps": round(len(packets) / heap_seconds),
            "speedup": round(oracle_seconds / heap_seconds, 2),
        }
    lines = [
        f"flow assembly, scale {scale} (best of {FLOW_REPEATS})",
        f"  {'dataset':10s} {'packets':>8s} {'flows':>6s} "
        f"{'oracle pkt/s':>13s} {'heap pkt/s':>11s} {'speedup':>8s}",
    ]
    for name, row in rows.items():
        lines.append(
            f"  {name:10s} {row['packets']:8d} {row['flows']:6d} "
            f"{row['oracle_pps']:13d} {row['heap_pps']:11d} "
            f"{row['speedup']:7.2f}x"
        )
    save_result("substrates_flow_assembly", "\n".join(lines))
    save_bench_json(
        "substrates_flow_assembly", metric="pps",
        value=round(total_packets / total_seconds), scale=scale,
        oracle_parity=True, datasets=rows,
    )


def test_pcap_write_throughput(benchmark, packets, tmp_path_factory):
    path = tmp_path_factory.mktemp("pcap") / "bench.pcap"

    def write():
        return write_pcap(path, packets)

    count = benchmark(write)
    assert count == len(packets)
    save_bench_json(
        "substrates_pcap_write", metric="pps",
        value=round(count / bench_seconds(benchmark)),
    )


def test_pcap_read_throughput(benchmark, packets, tmp_path_factory):
    path = tmp_path_factory.mktemp("pcap") / "bench-read.pcap"
    write_pcap(path, packets)
    loaded = benchmark(lambda: read_pcap(path))
    assert len(loaded) == len(packets)
    save_bench_json(
        "substrates_pcap_read", metric="pps",
        value=round(len(loaded) / bench_seconds(benchmark)),
    )


def test_packet_serialization_throughput(benchmark, packets):
    sample = packets[:2000]

    def roundtrip():
        return [Packet.from_bytes(p.to_bytes()) for p in sample]

    out = benchmark(roundtrip)
    assert len(out) == len(sample)
    save_bench_json(
        "substrates_packet_serialization", metric="pps",
        value=round(len(sample) / bench_seconds(benchmark)),
    )


def test_dataset_generation_throughput(benchmark):
    dataset = benchmark.pedantic(
        lambda: generate_dataset("BoT-IoT", seed=1, scale=0.2),
        rounds=1, iterations=1,
    )
    assert len(dataset) > 1000
    save_bench_json(
        "substrates_dataset_generation", metric="pps",
        value=round(len(dataset) / bench_seconds(benchmark)),
        scale=0.2, dataset="BoT-IoT",
    )
