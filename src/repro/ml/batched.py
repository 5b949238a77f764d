"""Batched execute-phase scoring for an ensemble of autoencoders.

KitNET's execute loop scores one packet at a time: per feature group, a
tiny ``(1, d) @ (d, h)`` forward whose cost is all NumPy call dispatch,
not arithmetic. :class:`BatchedEnsemble` packs the per-group weights
into stacked tensors so a micro-batch of N instances is scored against
every group in a handful of ``einsum`` contractions.

**Bit-for-bit parity.** The packed path must reproduce the per-row
reference (one autoencoder scored on one group slice at a time,
``tests/kitsune_oracle.py``) exactly, which pins down two
implementation choices:

* contractions use ``np.einsum`` — its accumulation order over the
  contracted axis depends only on that axis' length, so the same row
  scored alone or inside a batch (or inside a stacked 3-D operand)
  rounds identically. BLAS ``@`` does *not* have this property: GEMM
  kernel selection varies with the batch dimension, so a batched matmul
  differs from the per-row matmul in the last ulp.
* groups are packed into **shape buckets** (one stack per distinct
  ``(in_dim, hidden_dim)``) instead of zero-padded lanes. Padding the
  contracted axis changes its length, which changes einsum's partial-sum
  pattern — and the RMSE mean's pairwise-summation tree — so padded
  lanes are *not* bit-transparent even though the extra terms are zero.

Every einsum operand is materialised C-contiguous first: NumPy executes
strided operands with different inner loops that can round differently.

The packed tensors are weight *snapshots*: KitNET builds them once,
on its first execute-phase row, after training has stopped for good
(see :meth:`repro.ids.kitsune.kitnet.KitNET.execute_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.autoencoder import Autoencoder


@dataclass(frozen=True)
class _ShapeBucket:
    """All groups sharing one autoencoder shape, packed for einsum."""

    group_ids: np.ndarray  # (B,) positions in the original group order
    gather: np.ndarray     # (B, in_dim) feature indices into a scaled row
    enc_w: np.ndarray      # (B, in_dim, hidden)
    enc_b: np.ndarray      # (B, hidden)
    dec_w: np.ndarray      # (B, hidden, in_dim)
    dec_b: np.ndarray      # (B, in_dim)


class BatchedEnsemble:
    """Execute-phase scorer packing a KitNET-style ensemble.

    Built from live :class:`~repro.ml.autoencoder.Autoencoder` objects
    plus their feature-group index arrays, and an output autoencoder
    over the per-group RMSEs. Scoring is pure (no training, no state):
    ``group_rmses`` then ``output_rmses`` reproduce the per-row loop
    bit for bit.
    """

    def __init__(
        self,
        ensemble: Sequence[Autoencoder],
        group_index: Sequence[np.ndarray],
        output_layer: Autoencoder,
    ) -> None:
        if len(ensemble) != len(group_index):
            raise ValueError(
                f"{len(ensemble)} autoencoders for {len(group_index)} groups"
            )
        if output_layer.dim != len(ensemble):
            raise ValueError(
                f"output layer dim {output_layer.dim} != "
                f"{len(ensemble)} groups"
            )
        self.n_groups = len(ensemble)
        self._enc_act = output_layer.encoder.activation
        self._dec_act = output_layer.decoder.activation
        self._buckets = self._pack(ensemble, group_index)
        self._out_enc_w = output_layer.encoder.weights.copy()
        self._out_enc_b = output_layer.encoder.bias.copy()
        self._out_dec_w = output_layer.decoder.weights.copy()
        self._out_dec_b = output_layer.decoder.bias.copy()

    def _pack(
        self,
        ensemble: Sequence[Autoencoder],
        group_index: Sequence[np.ndarray],
    ) -> list[_ShapeBucket]:
        by_shape: dict[tuple[int, int], list[int]] = {}
        for position, autoencoder in enumerate(ensemble):
            if (
                autoencoder.encoder.activation.name != self._enc_act.name
                or autoencoder.decoder.activation.name != self._dec_act.name
            ):
                raise ValueError(
                    "mixed activations cannot be packed into one ensemble"
                )
            shape = (autoencoder.dim, autoencoder.hidden_dim)
            by_shape.setdefault(shape, []).append(position)
        buckets = []
        for positions in by_shape.values():
            buckets.append(
                _ShapeBucket(
                    group_ids=np.asarray(positions, dtype=np.intp),
                    gather=np.stack(
                        [np.asarray(group_index[p], dtype=np.intp)
                         for p in positions]
                    ),
                    enc_w=np.stack(
                        [ensemble[p].encoder.weights for p in positions]
                    ),
                    enc_b=np.stack(
                        [ensemble[p].encoder.bias for p in positions]
                    ),
                    dec_w=np.stack(
                        [ensemble[p].decoder.weights for p in positions]
                    ),
                    dec_b=np.stack(
                        [ensemble[p].decoder.bias for p in positions]
                    ),
                )
            )
        return buckets

    def group_rmses(self, scaled: np.ndarray) -> np.ndarray:
        """Per-group reconstruction RMSEs for a batch of scaled rows.

        ``scaled`` is ``(N, dim)``; returns ``(N, n_groups)`` with
        columns in the original group order — each entry bit-identical
        to scoring ``scaled_row[group_index[g]]`` alone with
        ``ensemble[g]``.
        """
        scaled = np.ascontiguousarray(scaled, dtype=np.float64)
        rmses = np.empty((scaled.shape[0], self.n_groups))
        for bucket in self._buckets:
            # (N, B, in_dim). The copy is load-bearing: an advanced
            # index on axis 1 returns a *non-contiguous* layout on
            # NumPy 2.x (the advanced subspace is iterated first), and
            # einsum rounds differently on strided operands.
            sub = np.ascontiguousarray(scaled[:, bucket.gather])
            hidden = self._enc_act.f(
                np.einsum("ngi,gih->ngh", sub, bucket.enc_w) + bucket.enc_b
            )
            recon = self._dec_act.f(
                np.einsum("ngh,ghi->ngi", hidden, bucket.dec_w) + bucket.dec_b
            )
            rmses[:, bucket.group_ids] = np.sqrt(
                np.mean((recon - sub) ** 2, axis=2)
            )
        return rmses

    def output_rmses(self, scaled_rmses: np.ndarray) -> np.ndarray:
        """Output-layer RMSE per row — the final anomaly scores."""
        scaled_rmses = np.ascontiguousarray(scaled_rmses, dtype=np.float64)
        hidden = self._enc_act.f(
            np.einsum("ni,ih->nh", scaled_rmses, self._out_enc_w)
            + self._out_enc_b
        )
        recon = self._dec_act.f(
            np.einsum("nh,ho->no", hidden, self._out_dec_w) + self._out_dec_b
        )
        return np.sqrt(np.mean((recon - scaled_rmses) ** 2, axis=1))
