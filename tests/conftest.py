"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datasets.traffic import Host, Network
from repro.net.ethernet import EthernetHeader
from repro.net.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags, TCPHeader
from repro.net.udp import UDPHeader
from repro.utils.rng import SeededRNG


#: Hypothesis profiles. ``ci`` is the default: Hypothesis' own 100
#: examples, and tests that pin a count keep it. ``deep`` runs ten
#: times as many examples with no deadline, for longer local runs:
#: ``pytest --hypothesis-profile=deep``. Neither profile is loaded here,
#: so the command-line choice wins whatever order conftests load in.
settings.register_profile("ci", max_examples=100)
settings.register_profile("deep", max_examples=1000, deadline=None)


def scaled_examples(count: int) -> int:
    """``count`` under the ``ci`` profile, scaled with the loaded
    profile's example budget otherwise (10x under ``deep``)."""
    return max(1, count * settings.default.max_examples // 100)


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Every test starts with a fresh, disabled obs registry.

    Engine/stream code records some metrics unconditionally, so without
    this a test's counters would leak into the next test's snapshots.
    """
    from repro import obs

    obs.disable()
    obs.reset_registry()
    yield
    obs.disable()
    obs.reset_registry()


def _available_feature_backends() -> list[str]:
    """Feature engines this host can run, evaluated at collection time:
    ``vector-native`` appears only when the C kernel loads (not under
    ``REPRO_DISABLE_NATIVE=1``)."""
    from repro.features import _native

    if _native.load_kernel() is None:
        return ["scalar"]
    return ["scalar", "vector-native"]


@pytest.fixture(params=_available_feature_backends())
def feature_backend(request) -> str:
    """Shared parity contract: every feature engine this host can run.
    A test taking this fixture runs once per engine and must hold
    bit-for-bit against the scalar reference."""
    return request.param


@pytest.fixture
def rng() -> SeededRNG:
    return SeededRNG(12345, "test")


@pytest.fixture
def network(rng) -> Network:
    return Network(subnet="192.168", rng=rng.child("net"))


def make_tcp_packet(
    ts: float = 0.0,
    src: str = "10.0.0.1",
    dst: str = "10.0.0.2",
    sport: int = 1234,
    dport: int = 80,
    flags: TCPFlags = TCPFlags.ACK,
    payload: bytes = b"",
    label: int = 0,
    attack_type: str = "",
) -> Packet:
    """A fully-layered TCP packet for tests."""
    return Packet(
        timestamp=ts,
        ether=EthernetHeader(),
        ip=IPv4Header(src_ip=src, dst_ip=dst, protocol=PROTO_TCP),
        transport=TCPHeader(src_port=sport, dst_port=dport, flags=flags),
        payload=payload,
        label=label,
        attack_type=attack_type,
    )


def make_udp_packet(
    ts: float = 0.0,
    src: str = "10.0.0.1",
    dst: str = "10.0.0.2",
    sport: int = 1234,
    dport: int = 53,
    payload: bytes = b"",
    label: int = 0,
) -> Packet:
    return Packet(
        timestamp=ts,
        ether=EthernetHeader(),
        ip=IPv4Header(src_ip=src, dst_ip=dst, protocol=PROTO_UDP),
        transport=UDPHeader(src_port=sport, dst_port=dport),
        payload=payload,
        label=label,
    )


def simple_http_flow_packets(start: float = 0.0) -> list[Packet]:
    """A 5-packet TCP conversation ending in FIN."""
    return [
        make_tcp_packet(start + 0.00, flags=TCPFlags.SYN),
        make_tcp_packet(start + 0.01, src="10.0.0.2", dst="10.0.0.1",
                        sport=80, dport=1234,
                        flags=TCPFlags.SYN | TCPFlags.ACK),
        make_tcp_packet(start + 0.02, flags=TCPFlags.ACK | TCPFlags.PSH,
                        payload=b"GET / HTTP/1.1\r\n\r\n"),
        make_tcp_packet(start + 0.05, src="10.0.0.2", dst="10.0.0.1",
                        sport=80, dport=1234, flags=TCPFlags.ACK,
                        payload=b"x" * 512),
        make_tcp_packet(start + 0.06, flags=TCPFlags.FIN | TCPFlags.ACK),
    ]
