"""Throughput microbenchmarks for the substrates.

These are classic pytest-benchmark timing loops: packets/second through
the AfterImage extractor (both engines), the flow assembler, the pcap
codec, and the traffic generators — the performance envelope that
bounds how large an evaluation the pipeline can run. Each loop records
its headline number as ``BENCH_substrates_*.json`` at the repo root
(``benchmarks/bench_netstat_throughput.py`` is the dedicated
scalar-vs-vector comparison with the parity gate).
"""

import pytest

from repro.datasets import generate_dataset
from repro.features.netstat import NetStat
from repro.flows.assembler import FlowAssembler
from repro.net.packet import Packet
from repro.net.pcap import read_pcap, write_pcap

from benchmarks.conftest import bench_seconds, save_bench_json


@pytest.fixture(scope="module")
def packets():
    return generate_dataset("Mirai", seed=0, scale=0.1).packets


def test_netstat_throughput(benchmark, packets):
    sample = packets[:2000]

    def extract():
        ns = NetStat()
        for packet in sample:
            ns.update(packet)

    benchmark(extract)
    save_bench_json(
        "substrates_netstat", metric="pps",
        value=round(len(sample) / bench_seconds(benchmark)),
        engine="vector", backend=NetStat().backend,
    )


def test_netstat_scalar_throughput(benchmark, packets):
    sample = packets[:2000]

    def extract():
        ns = NetStat(engine="scalar")
        for packet in sample:
            ns.update(packet)

    benchmark(extract)
    save_bench_json(
        "substrates_netstat_scalar", metric="pps",
        value=round(len(sample) / bench_seconds(benchmark)),
        engine="scalar",
    )


def test_flow_assembly_throughput(benchmark, packets):
    def assemble():
        return FlowAssembler().assemble(packets)

    flows = benchmark(assemble)
    assert flows
    save_bench_json(
        "substrates_flow_assembly", metric="pps",
        value=round(len(packets) / bench_seconds(benchmark)),
        flows=len(flows),
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
