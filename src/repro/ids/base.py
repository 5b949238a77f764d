"""Common IDS interfaces.

Two input kinds exist in the paper's pipeline (Section I: "IDSs
commonly either take packets or flows"):

* **packet-level** IDSs (Kitsune, HELAD) consume a timestamp-ordered
  packet stream and emit one anomaly score per packet;
* **flow-level** IDSs (DNN, Slips) consume completed flow records (or
  feature matrices derived from them) and emit one score per flow.

Every IDS exposes continuous ``anomaly scores``; binarisation happens
once, centrally, in :mod:`repro.core.thresholds` — the paper's
standardised threshold procedure (Section IV-A-4).
"""

from __future__ import annotations

import abc
import enum
from typing import Sequence

import numpy as np

from repro.flows.record import FlowRecord
from repro.net.packet import Packet


class InputKind(enum.Enum):
    """What a given IDS consumes."""

    PACKET = "packet"
    FLOW = "flow"


class IDSBase(abc.ABC):
    """Base class carrying identity and configuration."""

    #: Human-readable system name (matches the paper's Table IV rows).
    name: str = "ids"
    #: Input format, per :class:`InputKind`.
    input_kind: InputKind
    #: Whether training requires labels.
    supervised: bool = False

    @classmethod
    def default_config(cls) -> dict:
        """The out-of-the-box configuration (paper Section IV-A-3).

        Returns the constructor keyword arguments that mirror the
        upstream project's shipped defaults. The pipeline instantiates
        every IDS from this config and never tunes per dataset.
        """
        return {}

    def describe(self) -> str:
        return f"{self.name} ({self.input_kind.value}-level)"


class PacketIDS(IDSBase):
    """A packet-stream anomaly detector."""

    input_kind = InputKind.PACKET

    @abc.abstractmethod
    def fit(self, packets: Sequence[Packet]) -> None:
        """Train on a (presumed benign) packet stream."""

    @abc.abstractmethod
    def score_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        """One non-negative anomaly score per packet of ``packets``.

        Consecutive calls continue one online session: scoring a stream
        in pieces gives the scores one call over the whole stream gives.
        """


class FlowIDS(IDSBase):
    """A flow-record anomaly detector / classifier."""

    input_kind = InputKind.FLOW

    @abc.abstractmethod
    def fit(
        self,
        flows: Sequence[FlowRecord],
        features: np.ndarray,
        labels: np.ndarray | None,
    ) -> None:
        """Train on flows.

        ``features`` is the encoded matrix the adapter produced for
        this IDS's schema; ``labels`` is None for unsupervised systems.
        """

    @abc.abstractmethod
    def anomaly_scores(
        self, flows: Sequence[FlowRecord], features: np.ndarray
    ) -> np.ndarray:
        """One anomaly score per flow."""
