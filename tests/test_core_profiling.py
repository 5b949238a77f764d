"""Tests for the stage-by-stage packet-path profiler.

Covers that the profile times only the code a live Kitsune session
runs (spied: no packet-object decode or scalar NetStat, and KitNET
rows go through ``process_batch`` in live micro-batches), the stage
names and row counts, and
the rendered stage-share arithmetic (shares are fractions of total
stage time and sum to ~100%).
"""

from __future__ import annotations

import re

import pytest

from repro.core.profiling import (
    PacketPathProfile,
    StageTiming,
    kitnet_grace_split,
    profile_packet_path,
)
from repro.features.netstat import NetStat
from repro.ids.kitsune.kitnet import KitNET

EXPECTED_STAGES = ["net.decode", "features.extract", "ml.train", "ml.execute"]
PACKETS = 600


class Spy:
    """What the profile called while it ran."""

    def __init__(self) -> None:
        self.batch_rows: list[int] = []
        self.read_pcap_calls = 0
        self.netstat_engines: list[str] = []


@pytest.fixture(scope="module")
def spied() -> tuple[PacketPathProfile, Spy]:
    import repro.net.pcap as pcap

    spy = Spy()
    read_pcap = pcap.read_pcap
    process_batch = KitNET.process_batch
    netstat_init = NetStat.__init__

    def spy_process_batch(self, matrix):
        spy.batch_rows.append(len(matrix))
        return process_batch(self, matrix)

    def spy_read_pcap(*args, **kwargs):
        spy.read_pcap_calls += 1
        return read_pcap(*args, **kwargs)

    def spy_netstat_init(self, *args, **kwargs):
        spy.netstat_engines.append(kwargs.get("engine", "vector"))
        netstat_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KitNET, "process_batch", spy_process_batch)
        patch.setattr(NetStat, "__init__", spy_netstat_init)
        patch.setattr(pcap, "read_pcap", spy_read_pcap)
        profile = profile_packet_path(
            "Mirai", seed=0, scale=0.02, max_packets=PACKETS,
        )
    return profile, spy


@pytest.fixture(scope="module")
def profile(spied) -> PacketPathProfile:
    return spied[0]


class TestShippedPathOnly:
    def test_no_oracle_is_called(self, spied):
        _, spy = spied
        # KitNET has one scoring entry, process_batch (see
        # test_execute_runs_in_live_micro_batches).
        assert not hasattr(KitNET, "process")
        assert spy.read_pcap_calls == 0
        assert spy.netstat_engines == ["vector"]

    def test_stage_names_and_row_counts(self, profile):
        _, _, boundary = kitnet_grace_split(PACKETS)
        assert [stage.stage for stage in profile.stages] == EXPECTED_STAGES
        assert [stage.packets for stage in profile.stages] == [
            PACKETS, PACKETS, boundary, PACKETS - boundary,
        ]
        assert profile.packets == PACKETS
        for stage in profile.stages:
            assert stage.seconds > 0

    def test_execute_runs_in_live_micro_batches(self, spied):
        _, spy = spied
        _, _, boundary = kitnet_grace_split(PACKETS)
        execute = PACKETS - boundary
        assert spy.batch_rows == [boundary, 256, execute - 256]

    def test_backends_and_json_shape(self, profile):
        payload = profile.to_dict()
        assert payload["feature_backend"] == profile.feature_backend
        assert payload["ensemble_backend"] == "batched-einsum"
        assert [s["stage"] for s in payload["stages"]] == EXPECTED_STAGES
        assert f"features={profile.feature_backend}" in profile.render()


class TestStageShares:
    def test_rendered_shares_sum_to_100(self, profile):
        rendered = profile.render()
        shares = []
        for line in rendered.splitlines():
            match = re.match(
                r"\s+(\S+)\s+[\d.]+\s+[\d.,]+\s+[\d.,]+\s+([\d.]+)%$",
                line,
            )
            if match and match.group(1) != "total":
                shares.append(float(match.group(2)))
        assert len(shares) == len(EXPECTED_STAGES)
        assert sum(shares) == pytest.approx(100.0, abs=0.5)
        assert "100.0%" in rendered  # the total row

    def test_share_fractions_match_stage_seconds(self, profile):
        total = profile.total_seconds
        assert total == pytest.approx(
            sum(stage.seconds for stage in profile.stages)
        )
        for stage in profile.stages:
            assert 0.0 <= stage.seconds / total <= 1.0

    def test_zero_total_renders_without_dividing(self):
        profile = PacketPathProfile(
            dataset="x", seed=0, scale=0.1, packets=0,
            stages=(StageTiming("net.decode", 0.0, 0),),
            feature_backend="scalar", ensemble_backend="batched-einsum",
        )
        rendered = profile.render()
        assert "0.0%" in rendered


class TestStageTimingDerived:
    def test_per_packet_and_pps(self):
        timing = StageTiming("net.decode", seconds=2.0, packets=1000)
        assert timing.per_packet_us == pytest.approx(2000.0)
        assert timing.packets_per_second == pytest.approx(500.0)

    def test_zero_packets_and_zero_seconds(self):
        assert StageTiming("x", 1.0, 0).per_packet_us == 0.0
        assert StageTiming("x", 0.0, 10).packets_per_second == 0.0
