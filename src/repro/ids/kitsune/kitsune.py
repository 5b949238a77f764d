"""The Kitsune NIDS: NetStat features + KitNET, packet in, score out."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.netstat import NetStat
from repro.ids.base import PacketIDS
from repro.net.packet import Packet
from repro.utils.rng import SeededRNG


def grace_periods(
    train_packets: int,
    *,
    fm_grace: int | None = None,
    ad_grace: int | None = None,
) -> tuple[int, int]:
    """``(fm_grace, ad_grace)`` scaled to a ``train_packets``-long
    training stream: a tenth of it maps features, the rest trains, each
    at least 100 rows. A period passed in is kept, and the other fills
    the remainder (at least 100), so the pair never silently mixes a
    scaled period with a default one.
    """
    if fm_grace is None and ad_grace is None:
        fm_grace = max(100, train_packets // 10)
    if ad_grace is None:
        ad_grace = max(100, train_packets - fm_grace)
    elif fm_grace is None:
        fm_grace = max(100, train_packets - ad_grace)
    return fm_grace, ad_grace


class Kitsune(PacketIDS):
    """Plug-and-play packet anomaly detector (Mirsky et al. 2018).

    ``fit`` runs the feature-mapping and training grace periods over
    the provided stream (assumed benign, per the paper's methodology of
    training on each dataset's initial benign traffic);
    ``score_batch`` runs pure execution. The NetStat state persists
    across both calls — Kitsune is an *online* system and its damped
    statistics must flow continuously from training into execution.
    """

    name = "Kitsune"
    supervised = False

    def __init__(
        self,
        *,
        fm_grace: int = 1000,
        ad_grace: int = 9000,
        max_group: int = 10,
        hidden_ratio: float = 0.75,
        learning_rate: float = 0.1,
        decays: tuple[float, ...] = (5.0, 3.0, 1.0, 0.1, 0.01),
        seed: int = 0,
        netstat_engine: str = "vector",
        ensemble_backend: str = "auto",
    ) -> None:
        # The vectorized AfterImage engine is bit-identical to the
        # scalar reference (tests/test_features_parity.py), so the
        # engine choice is a pure throughput knob.
        self.netstat = NetStat(decays, engine=netstat_engine)
        from repro.ids.kitsune.kitnet import KitNET

        self.kitnet = KitNET(
            self.netstat.feature_count,
            fm_grace=fm_grace,
            ad_grace=ad_grace,
            max_group=max_group,
            hidden_ratio=hidden_ratio,
            learning_rate=learning_rate,
            ensemble_backend=ensemble_backend,
            rng=SeededRNG(seed, "kitsune"),
        )

    @classmethod
    def default_config(cls) -> dict:
        """Upstream repo defaults (FMgrace=5000, ADgrace=50000 scaled to
        the sampled captures; group size 10, lr 0.1, hidden 0.75)."""
        return {
            "fm_grace": 1000,
            "ad_grace": 9000,
            "max_group": 10,
            "hidden_ratio": 0.75,
            "learning_rate": 0.1,
        }

    def fit(self, packets: Sequence[Packet]) -> None:
        """Consume the training stream (grace periods).

        Features are extracted sequentially into one matrix and handed
        to :meth:`KitNET.process_batch`, through which the stacked
        training engine sees whole chunks.
        """
        self.kitnet.process_batch(self.netstat.extract_all(packets))

    def score_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        """Execute-mode RMSE scores, one per packet.

        NetStat stays sequential (damped statistics are order-defined)
        but writes into one preallocated matrix; KitNET then scores all
        execute-phase rows through its packed ensemble. Bit-identical
        to the per-packet loop in ``tests/kitsune_oracle.py``.
        """
        return self.kitnet.process_batch(self.netstat.extract_all(packets))

    @property
    def trained(self) -> bool:
        return not (self.kitnet.in_feature_mapping or self.kitnet.in_training)
