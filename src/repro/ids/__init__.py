"""The four evaluated IDSs plus classical baselines.

* :mod:`repro.ids.kitsune` — ensemble-of-autoencoders online NIDS
  (Mirsky et al., NDSS 2018); packet-level, unsupervised.
* :mod:`repro.ids.helad` — heterogeneous ensemble (autoencoder + LSTM)
  anomaly detection (Zhong et al., Computer Networks 2020);
  packet-level, unsupervised.
* :mod:`repro.ids.dnn` — the 3-hidden-layer supervised DNN
  (Vigneswaran et al., ICCCNT 2018); flow-level, supervised.
* :mod:`repro.ids.slips` — a behavioural evidence-accumulation IPS
  modelled on Stratosphere Linux IPS v1.0.7; flow-level, heuristic/ML.
* :mod:`repro.ids.classical` — LR / decision tree / naive Bayes / kNN
  baselines from the DNN study, used in the ablation benches.
"""

from repro.ids.base import IDSBase, PacketIDS, FlowIDS, InputKind
from repro.ids.kitsune import Kitsune
from repro.ids.helad import HELAD
from repro.ids.dnn import DNNClassifierIDS
from repro.ids.slips import SlipsIDS
from repro.ids.registry import (
    INVESTIGATED_IDS,
    IDSRecord,
    evaluated_ids_factories,
)

__all__ = [
    "IDSBase",
    "PacketIDS",
    "FlowIDS",
    "InputKind",
    "Kitsune",
    "HELAD",
    "DNNClassifierIDS",
    "SlipsIDS",
    "INVESTIGATED_IDS",
    "IDSRecord",
    "evaluated_ids_factories",
]
