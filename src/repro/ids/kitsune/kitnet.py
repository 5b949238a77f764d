"""KitNET: the ensemble-of-autoencoders anomaly detector.

Architecture per the paper: each feature group feeds a small sigmoid
autoencoder; the per-autoencoder RMSEs feed an output autoencoder whose
reconstruction RMSE is the final anomaly score. Training is online:
a feature-mapping grace period, then an ensemble-training grace period,
then pure execution.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.features.normalize import OnlineMinMaxScaler
from repro.ids.kitsune.feature_mapper import FeatureMapper
from repro.ml.autoencoder import Autoencoder
from repro.utils.rng import SeededRNG
from repro.utils.validation import check_positive


#: Accepted ``ensemble_backend`` values. Both name the one
#: execute-phase engine, stacked einsum contractions over whole batches.
ENSEMBLE_BACKENDS = ("auto", "batched-einsum")


class KitNET:
    """Online anomaly detector over fixed-dimension feature vectors.

    Parameters mirror the upstream defaults: ``max_group=10``,
    ``hidden_ratio=0.75``, ``learning_rate=0.1``.
    """

    def __init__(
        self,
        dim: int,
        *,
        fm_grace: int = 1000,
        ad_grace: int = 9000,
        max_group: int = 10,
        hidden_ratio: float = 0.75,
        learning_rate: float = 0.1,
        ensemble_backend: str = "auto",
        rng: SeededRNG,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if ensemble_backend not in ENSEMBLE_BACKENDS:
            # Execute-phase rows always score through the packed
            # ensemble; "auto" is its other spelling.
            raise ValueError(
                f"unknown ensemble backend {ensemble_backend!r}; "
                f"known: {', '.join(ENSEMBLE_BACKENDS)}"
            )
        self.dim = dim
        self.fm_grace = int(check_positive("fm_grace", fm_grace))
        self.ad_grace = int(check_positive("ad_grace", ad_grace))
        self.hidden_ratio = hidden_ratio
        self.learning_rate = learning_rate
        self._rng = rng
        self.mapper = FeatureMapper(dim, max_group=max_group)
        # AfterImage normalisation does not clip: post-training regime
        # shifts scale past [0, 1] and drive reconstruction RMSE up.
        self.scaler = OnlineMinMaxScaler(dim, clip=False)
        #: Per-group feature gather indices, one ``np.intp`` array per
        #: autoencoder (set with the ensemble).
        self._group_index: list[np.ndarray] = []
        self.ensemble: list[Autoencoder] = []
        self.output_layer: Autoencoder | None = None
        self._output_scaler: OnlineMinMaxScaler | None = None
        self.samples_seen = 0
        #: Packed execute-phase scorer, built by the first execute row.
        self._batched_ensemble = None

    # -- lifecycle -------------------------------------------------------
    @property
    def resolved_ensemble_backend(self) -> str:
        """The concrete execute-phase backend (``"auto"`` resolved)."""
        return "batched-einsum"

    @property
    def in_feature_mapping(self) -> bool:
        return self.samples_seen < self.fm_grace

    @property
    def in_training(self) -> bool:
        """True from ``fm_grace`` up to ``fm_grace + ad_grace`` rows
        seen: one row longer than training lasts, since the boundary
        row scores through :meth:`execute_batch` (see
        :attr:`_execute_from`)."""
        return self.fm_grace <= self.samples_seen < self.fm_grace + self.ad_grace

    @property
    def _execute_from(self) -> int:
        """Rows seen before the first one :meth:`execute_batch` scores:
        the boundary row, whose count reaches ``fm_grace + ad_grace``,
        is scored without fitting."""
        return self.fm_grace + self.ad_grace - 1

    def _build_ensemble(self) -> None:
        groups = self.mapper.finalise()
        self._group_index = [
            np.asarray(group, dtype=np.intp) for group in groups
        ]
        self.ensemble = [
            Autoencoder(
                len(group),
                hidden_ratio=self.hidden_ratio,
                learning_rate=self.learning_rate,
                rng=self._rng.child(f"ae-{i}"),
            )
            for i, group in enumerate(groups)
        ]
        self.output_layer = Autoencoder(
            len(groups),
            hidden_ratio=self.hidden_ratio,
            learning_rate=self.learning_rate,
            rng=self._rng.child("output"),
        )
        self._output_scaler = OnlineMinMaxScaler(len(groups))
        if obs.is_enabled():
            obs.gauge("ml.kitnet.ensemble_groups").set(len(groups))

    def _record_training(self, rows: int) -> None:
        """Obs bookkeeping for a training run (no-op when disabled)."""
        if not obs.is_enabled():
            return
        registry = obs.get_registry()
        registry.counter("ml.kitnet.rows_trained").inc(rows)
        if self.ad_grace:
            trained = min(max(self.samples_seen - self.fm_grace, 0),
                          self.ad_grace)
            registry.gauge("ml.kitnet.grace_progress").set(
                trained / self.ad_grace
            )

    # -- batched training ---------------------------------------------------
    def _train_rows_online(self, matrix: np.ndarray) -> np.ndarray:
        """Online training over a run of rows — bit-identical to
        training every autoencoder on each row in turn.

        In passes of at most ``ROWS_PER_PASS`` rows, both scalers'
        per-row trajectories are computed vectorized (running extrema)
        and the stacked online engine replays the per-row SGD: first
        the group autoencoders over the pass, then the output
        autoencoder over the pass's scaled RMSE rows (each row's input
        depends only on that row's group RMSEs). The engines pack the
        weights here and write them back before returning, so calls of
        any size compose.
        """
        from repro.ml.batched_train import (
            ROWS_PER_PASS,
            OnlineEnsembleTrainer,
        )

        self._record_training(matrix.shape[0])
        assert self._output_scaler is not None and self.output_layer is not None
        ensemble = OnlineEnsembleTrainer(self.ensemble, self._group_index)
        output = OnlineEnsembleTrainer(
            [self.output_layer], [np.arange(len(self.ensemble))]
        )
        scores = np.empty(matrix.shape[0])
        for start in range(0, matrix.shape[0], ROWS_PER_PASS):
            chunk = matrix[start : start + ROWS_PER_PASS]
            scaled = self.scaler.fit_transform_running(chunk)
            rmses = ensemble.train_rows(scaled)
            scaled_rmses = self._output_scaler.fit_transform_running(rmses)
            scores[start : start + len(chunk)] = output.train_rows(
                scaled_rmses
            )[:, 0]
        ensemble.sync()
        output.sync()
        return scores

    # -- batched execution ------------------------------------------------
    def _packed(self):
        """The lazily built packed-ensemble scorer (execute phase only)."""
        packed = self._batched_ensemble
        if packed is None:
            from repro.ml.batched import BatchedEnsemble

            assert self.output_layer is not None
            packed = BatchedEnsemble(
                self.ensemble, self._group_index, self.output_layer
            )
            self._batched_ensemble = packed
            if obs.is_enabled():
                obs.counter("ml.kitnet.batched_builds").inc()
        return packed

    def _as_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` as ``(n, dim)`` float64, where ``n`` may be 0.

        Empty inputs (an empty list, a zero-row matrix) normalise to
        ``(0, dim)`` instead of the ``(1, 0)`` shape ``np.atleast_2d``
        would produce — which used to die in the scaler with a
        confusing dimension-mismatch error. A non-empty matrix with the
        wrong feature dimension is rejected *before* any state changes.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            return np.empty((0, self.dim))
        matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(
                f"expected rows of dimension {self.dim}, "
                f"got shape {matrix.shape}"
            )
        return matrix

    def execute_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Score a batch of execute-phase rows in one shot.

        The whole batch goes through the packed ensemble: one scaler
        transform, a few stacked einsum contractions for all groups,
        and the output-layer RMSE per row. Each row scores as it would
        alone. Legal from the row that reaches the grace boundary on:
        that row is scored without fitting, like every later one.
        """
        matrix = self._as_matrix(matrix)
        if self.samples_seen < self._execute_from:
            raise RuntimeError(
                "execute_batch during the grace periods; use process_batch"
            )
        if matrix.shape[0] == 0:
            return np.empty(0)
        assert self._output_scaler is not None
        packed = self._packed()
        scaled = self.scaler.transform(matrix)
        rmses = packed.group_rmses(scaled)
        scores = packed.output_rmses(self._output_scaler.transform(rmses))
        # Advance the sample counter only after the whole batch scored:
        # a failure above must not corrupt the detector's phase state.
        self.samples_seen += matrix.shape[0]
        return scores

    def process_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Feed a batch of instances; returns one score per row.

        Rows move through the phases in order. Feature-mapping rows
        score 0.0 and fold into the mapper and the input scaler one at
        a time: the mapper finalises at an exact row index. Rows whose
        count lands in ``[fm_grace + 1, fm_grace + ad_grace - 1]`` train
        through the stacked online engine (:meth:`_train_rows_online`).
        The rest, from the row that reaches the grace boundary on,
        score through :meth:`execute_batch`. Any chunking of a stream
        gives the same scores and state as one call
        (``tests/kitsune_oracle.py`` holds the per-row form).
        """
        matrix = self._as_matrix(matrix)
        n = matrix.shape[0]
        scores = np.zeros(n)
        i = 0
        while i < n and self.samples_seen < self.fm_grace:
            self.mapper.partial_fit(matrix[i])
            self.scaler.partial_fit(matrix[i])
            self.samples_seen += 1
            i += 1
            if self.samples_seen == self.fm_grace:
                self._build_ensemble()
        take = min(n - i, self._execute_from - self.samples_seen)
        if take > 0:
            self.samples_seen += take
            scores[i : i + take] = self._train_rows_online(matrix[i : i + take])
            i += take
        if i < n:
            scores[i:] = self.execute_batch(matrix[i:])
        return scores
