"""Arithmetic of the host-speed scaling applied to every timed pass."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from measure import phase_times  # noqa: E402


def _host(*samples):
    """A HostSpeed whose samples are the given (start, end) stamps."""
    host = HostSpeed.__new__(HostSpeed)
    host.samples = list(samples)
    return host


def test_each_stretch_is_scaled_by_the_samples_at_its_ends():
    r = REFERENCE_S
    # Samples of 1x, 3x and 1x the reference time.
    host = _host((0.0, r), (5.0, 5.0 + 3 * r), (10.0, 10.0 + r))
    assert host.raw(r, 10.0) == pytest.approx(10.0 - 4 * r)
    # First stretch at mean 2x, second at mean 2x: half the raw time.
    assert host.scaled(r, 10.0) == pytest.approx((10.0 - 4 * r) / 2)
    # A part of one stretch is scaled by that stretch alone.
    assert host.scaled(1.0, 3.0) == pytest.approx(1.0)


def test_interval_outside_the_samples_raises():
    host = _host((0.0, 0.1), (5.0, 5.1))
    with pytest.raises(ValueError):
        host.scaled(0.05, 4.0)
    with pytest.raises(ValueError):
        host.raw(1.0, 5.05)


def test_live_phases_split_at_the_end_of_warmup():
    r = REFERENCE_S
    # Sample, build 1 s, warm 2 s, sample (2x), capture 3 s, sample.
    host = _host((0.0, r), (3.0 + r, 3.0 + 3 * r), (6.0 + 3 * r, 6.0 + 4 * r))
    result = {"started": r, "built": 1.0 + r, "warm": (1.0 + r, 3.0 + r),
              "end": 6.0 + 3 * r, "items": 60_000}
    raw = phase_times(result, host.raw)
    assert raw["setup_s"] == pytest.approx(3.0)
    assert raw["capture_s"] == pytest.approx(3.0)
    assert raw["session_s"] == pytest.approx(6.0)
    scaled = phase_times(result, host.scaled)
    # Both stretches sit between a 1x and a 2x sample: mean 1.5x.
    assert scaled["setup_s"] == pytest.approx(2.0)
    assert scaled["capture_pps"] == pytest.approx(60_000 / 2.0)
    assert scaled["session_s"] == pytest.approx(4.0)


def test_table4_setup_is_the_sum_of_fits():
    result = {"started": 0.0, "end": 8.0, "fits": [(1.0, 2.0), (4.0, 5.5)],
              "items": 40_000}
    times = phase_times(result)
    assert times["setup_s"] == 2.5
    assert times["session_s"] == times["capture_s"] == 8.0
    assert times["capture_pps"] == 5_000


def test_sample_records_its_stamps():
    host = HostSpeed()
    host.sample()
    (start, end), = host.samples
    assert end > start
    assert host.seconds() == [end - start]
