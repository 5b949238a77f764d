"""Differential tests: incremental feature-mapper clustering vs brute force.

``FeatureMapper._cluster`` keeps a cluster-to-cluster distance matrix
and updates it per merge. The oracle below is the direct definition:
on every merge, rescan every cluster pair, take the minimum of the
pair's distance block, and merge the first strictly-closest pair in
row-major order under the size cap. Both must return identical groups
(same members, same order) on any symmetric distance matrix, including
ties and NaN entries, and on the real grace-period correlations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.kitsune.feature_mapper import FeatureMapper

from tests.conftest import scaled_examples

FM_GRACE = 200


def brute_force_cluster(
    distance: np.ndarray, max_group: int
) -> list[list[int]]:
    """Single-linkage clustering by rescanning every pair per merge."""
    clusters: list[list[int]] = [[i] for i in range(distance.shape[0])]
    while len(clusters) > 1:
        best_pair: tuple[int, int] | None = None
        best_distance = np.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_group:
                    continue
                d = distance[np.ix_(clusters[i], clusters[j])].min()
                if d < best_distance:  # NaN never compares smaller
                    best_distance = d
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return clusters


def _symmetric(
    dim: int, seed: int, levels: int | None, nan_share: float
) -> np.ndarray:
    """A symmetric distance matrix with a zero diagonal.

    ``levels`` quantises the entries to that many values, so many pairs
    tie; ``None`` draws continuous values. NaN entries come in
    symmetric pairs.
    """
    rng = np.random.default_rng(seed)
    if levels is None:
        upper = rng.random((dim, dim))
    else:
        upper = rng.integers(0, levels, size=(dim, dim)) / levels
    upper[rng.random((dim, dim)) < nan_share] = np.nan
    upper = np.triu(upper, k=1)
    distance = upper + upper.T
    np.fill_diagonal(distance, 0.0)
    return distance


class TestClusterMatchesBruteForce:
    @settings(max_examples=scaled_examples(120), deadline=None)
    @given(
        dim=st.integers(1, 40),
        max_group=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        levels=st.one_of(st.none(), st.integers(1, 4)),
        nan_share=st.sampled_from([0.0, 0.0, 0.05, 0.3]),
    )
    def test_random_symmetric_matrices(
        self, dim, max_group, seed, levels, nan_share
    ):
        distance = _symmetric(dim, seed, levels, nan_share)
        mapper = FeatureMapper(dim, max_group=max_group)
        assert mapper._cluster(distance) == brute_force_cluster(
            distance, max_group
        )

    @pytest.mark.parametrize("dim", [1, 2, 7, 25])
    def test_all_ties(self, dim):
        distance = np.full((dim, dim), 0.5)
        np.fill_diagonal(distance, 0.0)
        mapper = FeatureMapper(dim, max_group=4)
        assert mapper._cluster(distance) == brute_force_cluster(distance, 4)

    def test_max_group_one_never_merges(self):
        distance = _symmetric(12, 3, None, 0.0)
        mapper = FeatureMapper(12, max_group=1)
        groups = mapper._cluster(distance)
        assert groups == [[i] for i in range(12)]
        assert groups == brute_force_cluster(distance, 1)

    @pytest.mark.parametrize("max_group", [15, 16, 40])
    def test_max_group_at_least_dim_merges_everything(self, max_group):
        distance = _symmetric(15, 4, 3, 0.0)
        mapper = FeatureMapper(15, max_group=max_group)
        groups = mapper._cluster(distance)
        assert groups == brute_force_cluster(distance, max_group)
        assert len(groups) == 1 and sorted(groups[0]) == list(range(15))

    def test_nan_pairs_are_unmergeable(self):
        # 0-1 would be the closest pair but is NaN; every other pair is
        # finite, so 0 and 1 end up apart under a cap of 2.
        distance = np.array([
            [0.0, np.nan, 0.2, 0.9],
            [np.nan, 0.0, 0.9, 0.3],
            [0.2, 0.9, 0.0, 0.9],
            [0.9, 0.3, 0.9, 0.0],
        ])
        mapper = FeatureMapper(4, max_group=2)
        groups = mapper._cluster(distance)
        assert groups == brute_force_cluster(distance, 2)
        assert groups == [[0, 2], [1, 3]]

    def test_nan_poisons_the_merged_cluster(self):
        # After 0+2 merge, the {0,2}-{1} block holds a NaN, so the pair
        # never merges even though 2-1 alone is close.
        distance = np.array([
            [0.0, np.nan, 0.1],
            [np.nan, 0.0, 0.2],
            [0.1, 0.2, 0.0],
        ])
        mapper = FeatureMapper(3, max_group=3)
        groups = mapper._cluster(distance)
        assert groups == brute_force_cluster(distance, 3)
        assert groups == [[0, 2], [1]]


@lru_cache(maxsize=None)
def _grace_prefix(dataset: str) -> np.ndarray:
    from repro.datasets.registry import generate_dataset_uncached
    from repro.features.netstat import NetStat

    packets = generate_dataset_uncached(dataset, seed=0, scale=0.05).packets
    return NetStat(engine="vector").extract_all(packets[:FM_GRACE])


@pytest.mark.parametrize("dataset", ["Mirai", "CICIDS2017"])
def test_real_grace_prefix_groups_match_brute_force(dataset):
    rows = _grace_prefix(dataset)
    assert rows.shape[0] == FM_GRACE
    mapper = FeatureMapper(rows.shape[1], max_group=10)
    for row in rows:
        mapper.partial_fit(row)
    expected = brute_force_cluster(mapper.distance(), 10)
    assert mapper.finalise() == expected
    assert len(expected) > 1
