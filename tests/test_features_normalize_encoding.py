"""Tests for online scalers and the flow-vector encoder."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.features.encoding import FlowVectorEncoder
from repro.features.normalize import OnlineMinMaxScaler, ZScoreScaler

from tests.kitsune_oracle import scaler_transform


class TestOnlineMinMax:
    def test_learns_extrema(self):
        scaler = OnlineMinMaxScaler(2)
        scaler.partial_fit(np.array([0.0, 10.0]))
        scaler.partial_fit(np.array([4.0, 30.0]))
        out = scaler.transform(np.array([[2.0, 20.0]]))[0]
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_clip_behaviour(self):
        scaler = OnlineMinMaxScaler(1)
        scaler.partial_fit(np.array([0.0]))
        scaler.partial_fit(np.array([1.0]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == 1.0

    def test_unclipped_extrapolates(self):
        scaler = OnlineMinMaxScaler(1, clip=False)
        scaler.partial_fit(np.array([0.0]))
        scaler.partial_fit(np.array([1.0]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == pytest.approx(5.0)

    def test_freeze_stops_learning(self):
        scaler = OnlineMinMaxScaler(1)
        scaler.partial_fit(np.array([0.0]))
        scaler.partial_fit(np.array([1.0]))
        scaler.freeze()
        scaler.partial_fit(np.array([100.0]))
        assert scaler.max[0] == 1.0

    def test_constant_dimension_maps_to_zero(self):
        scaler = OnlineMinMaxScaler(1)
        scaler.partial_fit(np.array([3.0]))
        scaler.partial_fit(np.array([3.0]))
        assert scaler.transform(np.array([[3.0]]))[0, 0] == 0.0

    def test_shape_validation(self):
        scaler = OnlineMinMaxScaler(3)
        with pytest.raises(ValueError):
            scaler.partial_fit(np.zeros(2))
        with pytest.raises(ValueError):
            scaler.partial_fit(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            scaler.partial_fit(np.zeros((4, 3)))  # batches: fit_transform_running

    @pytest.mark.parametrize("clip", (True, False))
    def test_batch_transform_matches_per_row(self, clip):
        rng = np.random.default_rng(6)
        scaler = OnlineMinMaxScaler(5, clip=clip)
        for row in rng.normal(size=(40, 5)):
            scaler.partial_fit(row)
        rows = rng.normal(size=(23, 5)) * 3.0
        batch = scaler.transform(rows)
        for row, expected in zip(rows, batch):
            assert np.array_equal(scaler_transform(scaler, row), expected)

    def test_transform_takes_batches_only(self):
        # One row is a (1, dim) batch; a bare (dim,) row is refused
        # rather than broadcast.
        scaler = OnlineMinMaxScaler(3)
        scaler.partial_fit(np.zeros(3))
        for method in (scaler.transform, scaler.fit_transform_running):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                method(np.zeros(3))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            OnlineMinMaxScaler(0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_clipped_output_in_unit_interval_property(self, values):
        scaler = OnlineMinMaxScaler(1)
        for v in values:
            scaler.partial_fit(np.array([v]))
        for v in values:
            out = scaler.transform(np.array([[v]]))
            assert 0.0 - 1e-12 <= out[0, 0] <= 1.0 + 1e-12


class TestZScore:
    def test_standardises(self):
        data = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
        out = ZScoreScaler().fit(data).transform(data)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_safe(self):
        data = np.array([[1.0], [1.0]])
        out = ZScoreScaler().fit(data).transform(data)
        assert np.isfinite(out).all()

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ZScoreScaler().transform(np.zeros((1, 2)))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            ZScoreScaler().fit(np.empty((0, 3)))


class TestFlowVectorEncoder:
    def test_order_and_values(self):
        encoder = FlowVectorEncoder(["a", "b"], log_scale=False)
        row = encoder.encode_one({"b": 2.0, "a": 1.0})
        np.testing.assert_allclose(row, [1.0, 2.0])

    def test_missing_features_zero_filled(self):
        encoder = FlowVectorEncoder(["a", "b"], available=["a"], log_scale=False)
        row = encoder.encode_one({"a": 1.0, "b": 99.0})
        np.testing.assert_allclose(row, [1.0, 0.0])
        assert encoder.missing_features == ("b",)

    def test_log_scaling_applies_to_magnitudes(self):
        encoder = FlowVectorEncoder(["sbytes", "dur"])
        row = encoder.encode_one({"sbytes": 100.0, "dur": 100.0})
        assert row[0] == pytest.approx(np.log1p(100.0))
        assert row[1] == pytest.approx(100.0)  # "dur" is not magnitude-like

    def test_non_finite_values_sanitised(self):
        encoder = FlowVectorEncoder(["x"], log_scale=False)
        row = encoder.encode_one({"x": float("inf")})
        assert row[0] == 0.0

    def test_encode_matrix(self):
        encoder = FlowVectorEncoder(["a"], log_scale=False)
        matrix = encoder.encode([{"a": 1.0}, {"a": 2.0}])
        assert matrix.shape == (2, 1)

    def test_encode_empty(self):
        encoder = FlowVectorEncoder(["a"])
        assert encoder.encode([]).shape == (0, 1)

    def test_rejects_empty_schema(self):
        with pytest.raises(ValueError):
            FlowVectorEncoder([])
