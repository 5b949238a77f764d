"""Tests for the stage-by-stage packet-path profiler.

Covers the ``compare_scalar=False`` path (no scalar reference timing,
no speedup claim) and the rendered stage-share arithmetic (shares are
fractions of total stage time and sum to ~100%).
"""

from __future__ import annotations

import re

import pytest

from repro.core.profiling import (
    PacketPathProfile,
    StageTiming,
    profile_packet_path,
)

EXPECTED_STAGES = [
    "ingest",
    "netstat",
    "kitnet-train",
    "kitnet-train-batched",
    "kitnet",
    "kitnet-batch",
]


@pytest.fixture(scope="module")
def profile() -> PacketPathProfile:
    return profile_packet_path(
        "Mirai", seed=0, scale=0.02, max_packets=400,
        compare_scalar=False,
    )


class TestCompareScalarOff:
    def test_no_scalar_timing_or_speedup(self, profile):
        assert profile.scalar_netstat_seconds is None
        assert profile.netstat_speedup is None
        assert profile.to_dict()["netstat_speedup"] is None
        assert "speedup vs scalar" not in profile.render()

    def test_stages_and_parity_still_present(self, profile):
        assert [stage.stage for stage in profile.stages] == EXPECTED_STAGES
        assert profile.packets == 400
        for stage in profile.stages:
            assert stage.seconds >= 0
            assert stage.packets > 0
        assert profile.kitnet_batch_parity is True

    def test_default_ingest_backend_recorded(self, profile):
        assert profile.ingest_backend == "packet-objects"
        assert profile.to_dict()["ingest_backend"] == "packet-objects"
        assert "ingest=packet-objects" in profile.render()


class TestColumnarIngest:
    def test_columnar_profile_same_shape(self):
        profile = profile_packet_path(
            "Mirai", seed=0, scale=0.02, max_packets=400,
            compare_scalar=False, ingest_backend="columnar-mmap",
        )
        assert profile.ingest_backend == "columnar-mmap"
        assert [stage.stage for stage in profile.stages] == EXPECTED_STAGES
        assert profile.packets == 400
        assert profile.kitnet_batch_parity is True
        assert "ingest=columnar-mmap" in profile.render()

    def test_unknown_ingest_backend_rejected(self):
        with pytest.raises(KeyError):
            profile_packet_path(
                "Mirai", seed=0, scale=0.02, max_packets=50,
                compare_scalar=False, ingest_backend="not-a-backend",
            )


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
            engine="vector",
            stages=(StageTiming("ingest", 0.0, 0),),
        )
        rendered = profile.render()
        assert "0.0%" in rendered


class TestStageTimingDerived:
    def test_per_packet_and_pps(self):
        timing = StageTiming("ingest", seconds=2.0, packets=1000)
        assert timing.per_packet_us == pytest.approx(2000.0)
        assert timing.packets_per_second == pytest.approx(500.0)

    def test_zero_packets_and_zero_seconds(self):
        assert StageTiming("x", 1.0, 0).per_packet_us == 0.0
        assert StageTiming("x", 0.0, 10).packets_per_second == 0.0
