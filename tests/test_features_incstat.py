"""Tests for damped incremental statistics (AfterImage core)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.features.incstat import IncStat, IncStatCov

from tests.conftest import scaled_examples


class TestIncStat:
    def test_single_insert(self):
        stat = IncStat(1.0, init_time=0.0)
        stat.insert(10.0, 0.0)
        assert stat.weight == 1.0
        assert stat.mean == 10.0
        assert stat.std == 0.0

    def test_mean_of_equal_time_inserts(self):
        stat = IncStat(1.0)
        for value in (2.0, 4.0, 6.0):
            stat.insert(value, 0.0)
        assert stat.mean == pytest.approx(4.0)
        assert stat.weight == pytest.approx(3.0)

    def test_decay_halves_weight(self):
        # decay lambda=1: factor 2^(-1*dt); dt=1 halves the weight.
        stat = IncStat(1.0, init_time=0.0)
        stat.insert(5.0, 0.0)
        stat.decay_to(1.0)
        assert stat.weight == pytest.approx(0.5)
        # Mean is invariant under decay (both sums scale together).
        assert stat.mean == pytest.approx(5.0)

    def test_faster_decay_forgets_faster(self):
        slow = IncStat(0.1, init_time=0.0)
        fast = IncStat(5.0, init_time=0.0)
        for stat in (slow, fast):
            stat.insert(1.0, 0.0)
            stat.insert(1.0, 1.0)
        assert fast.weight < slow.weight

    def test_no_decay_for_same_timestamp(self):
        stat = IncStat(5.0, init_time=0.0)
        stat.insert(1.0, 1.0)
        weight = stat.weight
        stat.decay_to(1.0)
        assert stat.weight == weight

    def test_rejects_non_positive_decay(self):
        with pytest.raises(ValueError):
            IncStat(0.0)

    def test_stats_tuple(self):
        stat = IncStat(1.0)
        stat.insert(3.0, 0.0)
        w, mean, std = stat.stats()
        assert (w, mean, std) == (1.0, 3.0, 0.0)

    @settings(max_examples=scaled_examples(50))
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 100.0)),
            min_size=1,
            max_size=50,
        )
    )
    def test_invariants_property(self, events):
        """Weight stays in (0, n]; variance is non-negative; mean is
        bounded by observed values."""
        stat = IncStat(1.0, init_time=0.0)
        t = 0.0
        values = []
        for value, dt in events:
            t += dt
            stat.insert(value, t)
            values.append(value)
        assert 0.0 < stat.weight <= len(values) + 1e-9
        assert stat.variance >= 0.0
        assert min(values) - 1e-6 <= stat.mean <= max(values) + 1e-6


class TestIncStatCov:
    def _pair(self):
        a = IncStat(1.0, init_time=0.0)
        b = IncStat(1.0, init_time=0.0)
        return a, b, IncStatCov(a, b)

    def test_requires_matching_decay(self):
        with pytest.raises(ValueError):
            IncStatCov(IncStat(1.0), IncStat(5.0))

    def test_magnitude(self):
        a, b, cov = self._pair()
        a.insert(3.0, 0.0)
        b.insert(4.0, 0.0)
        assert cov.magnitude() == pytest.approx(5.0)

    def test_radius_zero_for_constant_streams(self):
        a, b, cov = self._pair()
        for t in range(3):
            a.insert(2.0, float(t))
            b.insert(7.0, float(t))
        assert cov.radius() == pytest.approx(0.0, abs=1e-12)

    def test_correlation_bounded(self):
        a, b, cov = self._pair()
        t = 0.0
        for i in range(50):
            t += 0.1
            value = float(i % 7)
            a.insert(value, t)
            cov.update(value, t, from_a=True)
            b.insert(10.0 - value, t)
            cov.update(10.0 - value, t, from_a=False)
        assert -1.0 <= cov.correlation <= 1.0

    def test_empty_cov_is_zero(self):
        _, _, cov = self._pair()
        assert cov.covariance == 0.0
        assert cov.correlation == 0.0

    def test_stats_tuple_shape(self):
        a, b, cov = self._pair()
        a.insert(1.0, 0.0)
        cov.update(1.0, 0.0, from_a=True)
        assert len(cov.stats()) == 4
        assert all(math.isfinite(v) for v in cov.stats())
