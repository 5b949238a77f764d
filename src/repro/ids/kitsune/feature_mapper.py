"""Kitsune's feature mapper: correlation clustering of features.

During the feature-mapping grace period Kitsune accumulates summary
statistics of the feature stream; at the end it hierarchically clusters
features by correlation distance, capping cluster size at ``max_group``
(m=10 upstream). Each cluster becomes one ensemble autoencoder's input.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class FeatureMapper:
    """Learns a partition of feature indices from streamed instances."""

    def __init__(self, dim: int, *, max_group: int = 10) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.max_group = int(check_positive("max_group", max_group))
        # Streaming sums for the correlation matrix.
        self._count = 0
        self._sum = np.zeros(dim)
        self._sum_sq = np.zeros(dim)
        self._sum_outer = np.zeros((dim, dim))
        self.groups: list[list[int]] | None = None

    def partial_fit(self, row: np.ndarray) -> None:
        """Accumulate one instance's contribution to the correlations."""
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {row.shape}")
        self._count += 1
        self._sum += row
        self._sum_sq += row * row
        self._sum_outer += np.outer(row, row)

    def finalise(self) -> list[list[int]]:
        """Cluster features; returns (and caches) the index groups."""
        if self._count < 2:
            # Degenerate grace period: fall back to contiguous chunks.
            self.groups = [
                list(range(i, min(i + self.max_group, self.dim)))
                for i in range(0, self.dim, self.max_group)
            ]
            return self.groups
        self.groups = self._cluster(self.distance())
        return self.groups

    def distance(self) -> np.ndarray:
        """The ``1 - |correlation|`` matrix the clustering runs on."""
        n = self._count
        mean = self._sum / n
        var = self._sum_sq / n - mean * mean
        std = np.sqrt(np.maximum(var, 0.0))
        cov = self._sum_outer / n - np.outer(mean, mean)
        denom = np.outer(std, std)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 0, cov / denom, 0.0)
        np.fill_diagonal(corr, 1.0)
        return 1.0 - np.abs(corr)

    def _cluster(self, distance: np.ndarray) -> list[list[int]]:
        """Agglomerative single-linkage clustering with a size cap.

        Keeps one cluster-to-cluster distance matrix, indexed by slot.
        Merging slot ``j`` into slot ``i`` replaces row and column ``i``
        with ``np.minimum`` of both rows (the Lance-Williams update for
        single linkage) and retires slot ``j``. Slots keep their
        original relative order, so the row-major ``argmin`` over the
        mergeable upper triangle picks the same first strictly-closest
        pair as a scan of every pair's block minimum would. ``np.minimum``
        propagates NaN like a block ``min()`` does, and NaN or infinite
        distances never merge.
        """
        size = np.ones(self.dim, dtype=np.intp)
        members: list[list[int]] = [[i] for i in range(self.dim)]
        linkage = np.array(distance, dtype=np.float64)
        upper = np.triu(np.ones((self.dim, self.dim), dtype=bool), k=1)
        while True:
            mergeable = (
                upper
                & (size[:, None] + size[None, :] <= self.max_group)
                & (linkage < np.inf)
            )
            best = int(np.where(mergeable, linkage, np.inf).argmin())
            if not mergeable.flat[best]:  # nothing mergeable under the cap
                break
            i, j = divmod(best, self.dim)
            merged = np.minimum(linkage[i], linkage[j])
            linkage[i] = merged
            linkage[:, i] = merged
            linkage[j] = np.inf
            linkage[:, j] = np.inf
            size[i] += size[j]
            size[j] = 0
            members[i] = members[i] + members[j]
        return [members[slot] for slot in range(self.dim) if size[slot]]
