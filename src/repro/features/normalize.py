"""Online feature normalizers.

Kitsune normalises features to [0, 1] with a running min/max learned
during its training phase and frozen afterwards; the flow-level IDSs
use z-score standardisation fit on the training split. Both are
implemented here so every IDS shares audited scaling code.
"""

from __future__ import annotations

import numpy as np


class OnlineMinMaxScaler:
    """Running min-max scaler with frozen-after-training semantics.

    ``clip=False`` reproduces AfterImage's behaviour exactly: values
    outside the learned range scale past [0, 1], so a post-training
    regime shift (e.g. a flood) produces arbitrarily large normalised
    features — and correspondingly large reconstruction errors.
    """

    def __init__(self, dim: int, *, clip: bool = True) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.clip = clip
        self.min = np.full(dim, np.inf)
        self.max = np.full(dim, -np.inf)
        self.frozen = False

    def _checked(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 2 and rows.shape[1] == self.dim:
            return rows
        raise ValueError(f"expected shape (n, {self.dim}), got {rows.shape}")

    def partial_fit(self, row: np.ndarray) -> None:
        """Update the running extrema with one ``(dim,)`` observation.

        Batches fold in through :meth:`fit_transform_running`.
        """
        if self.frozen:
            return
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {row.shape}")
        np.minimum(self.min, row, out=self.min)
        np.maximum(self.max, row, out=self.max)

    def freeze(self) -> None:
        """Stop learning extrema (training phase over)."""
        self.frozen = True

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Scale into the learned range; constant dimensions map to 0.

        Takes a ``(n, dim)`` batch and is purely elementwise, so each
        output row is bit-identical to transforming that row alone.
        With ``clip=True`` output is clamped to [0, 1]; with
        ``clip=False`` out-of-range inputs extrapolate beyond it.
        """
        rows = self._checked(rows)
        span = self.max - self.min
        ok = np.isfinite(span) & (span > 0)
        out = np.zeros_like(rows)
        out[:, ok] = (rows[:, ok] - self.min[ok]) / span[ok]
        if self.clip:
            return np.clip(out, 0.0, 1.0)
        return out

    def fit_transform_running(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized *online* fit-transform over a ``(n, dim)`` batch.

        Bit-identical to folding the rows into the extrema one at a
        time with :meth:`partial_fit`, each scaled right after its own
        fold: row ``i`` is scaled against the extrema of rows ``0..i``
        (plus any previously learned state), never against future rows.
        ``np.minimum.accumulate`` computes exactly the running extrema
        the sequential loop would (min/max are exact, order-insensitive
        IEEE operations) and the transform arithmetic is elementwise.
        """
        rows = self._checked(rows)
        if rows.shape[0] == 0:
            return np.empty_like(rows)
        if self.frozen:
            return self.transform(rows)
        run_min = np.minimum.accumulate(rows, axis=0)
        np.minimum(run_min, self.min, out=run_min)
        run_max = np.maximum.accumulate(rows, axis=0)
        np.maximum(run_max, self.max, out=run_max)
        self.min = run_min[-1].copy()
        self.max = run_max[-1].copy()
        span = run_max - run_min
        ok = np.isfinite(span) & (span > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(ok, (rows - run_min) / span, 0.0)
        if self.clip:
            return np.clip(out, 0.0, 1.0)
        return out


class ZScoreScaler:
    """Batch z-score standardiser (fit once on the training split)."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, matrix: np.ndarray) -> "ZScoreScaler":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("fit expects a non-empty 2-D matrix")
        self.mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std == 0] = 1.0
        self.std = std
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise RuntimeError("ZScoreScaler used before fit()")
        matrix = np.asarray(matrix, dtype=np.float64)
        return (matrix - self.mean) / self.std
