"""Registry of every IDS the paper investigated (Table I).

Fifteen systems were examined; four survived the usability gauntlet.
``INVESTIGATED_IDS`` records the full inventory with outcomes, and
``evaluated_ids_factories`` exposes constructors for the four systems
carried into Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ids.base import IDSBase


@dataclass(frozen=True)
class IDSRecord:
    """One row of the paper's Table I."""

    name: str
    year: int
    dataset: str
    source: str
    academic: bool
    used: bool
    issue: str = ""  # exclusion reason for systems that failed

    @property
    def status(self) -> str:
        return "Used in Paper" if self.used else self.issue


INVESTIGATED_IDS: tuple[IDSRecord, ...] = (
    IDSRecord("Deep Neural Network (DNN)", 2018, "KDDCup-'99'",
              "Conference: ICCCNT", academic=True, used=True),
    IDSRecord("Kitsune", 2018, "Custom IoT Dataset", "Conference: NDSS",
              academic=True, used=True),
    IDSRecord("HELAD", 2020, "CICIDS2017", "Journal: MDPI Informatics",
              academic=True, used=True),
    IDSRecord("Multiclass Classification", 2020, "ASNM Datasets",
              "Conference: DSAA", academic=True, used=False,
              issue=("Vague dependencies in provided repository, "
                     "\"ValueError on converting string to complex in "
                     "ASNM-TUN.py\"")),
    IDSRecord("ARTEMIS", 2021, "Custom Dataset", "Conference: LATINCOM",
              academic=True, used=False, issue="Code error"),
    IDSRecord("Dense-Attention-LSTM (DAL)", 2021, "UNSW-NB15",
              "Conference: IWCMC", academic=True, used=False,
              issue="Dependency errors"),
    IDSRecord("I-SiamIDS", 2021, "CICIDS, NSL-KDD",
              "Journal: Applied Intelligence", academic=True, used=False,
              issue="Type error"),
    IDSRecord("SecureTea", 2021, "N/A", "GitHub", academic=False,
              used=False, issue="Dependency errors"),
    IDSRecord("AutoML", 2022, "CICIDS2017, IoTID20",
              "Journal: Engineering Applications of Artificial Intelligence",
              academic=True, used=False, issue="IDS code not provided"),
    IDSRecord("Deep Belief Networks NIDS", 2022, "CICIDS2017",
              "Conference: SciSec", academic=True, used=False,
              issue=("Invalidated by dependency errors in provided "
                     "repository: \"Tensors found on two or more devices\"")),
    IDSRecord("RIDS", 2022, "Custom Dataset", "Conference: GLOBECOM",
              academic=True, used=False, issue="Provided Out of memory"),
    IDSRecord("StratosphereIPS (Slips)", 2022, "N/A", "GitHub",
              academic=False, used=True),
    IDSRecord("IDS-ML", 2022, "CICIDS2017", "Journal: Software Impacts",
              academic=True, used=False, issue="Runtime errors"),
    IDSRecord("xNIDS", 2023, "Mirai, CICDoS2017, NSL-KDD",
              "Conference: USENIX Security", academic=True, used=False,
              issue=("Did not propose a directly usable NIDS, so was not "
                     "appropriate.")),
    IDSRecord("Suricata", 2023, "N/A", "GitHub", academic=False,
              used=False, issue="Unable to verify any use of ML"),
)


def evaluated_ids_factories() -> dict[str, Callable[..., IDSBase]]:
    """Constructors for the four evaluated systems, by Table IV name."""
    from repro.ids.dnn import DNNClassifierIDS
    from repro.ids.helad import HELAD
    from repro.ids.kitsune import Kitsune
    from repro.ids.slips import SlipsIDS

    return {
        "Kitsune": Kitsune,
        "HELAD": HELAD,
        "DNN": DNNClassifierIDS,
        "Slips": SlipsIDS,
    }


def backend_notes(ids) -> dict[str, str]:
    """The concrete compute backends driving a constructed IDS, for
    stream and runner reports.

    Empty for flow-level IDSs (and ``None``): they consume flow feature
    matrices and never touch the per-packet feature engine or the
    KitNET ensemble.
    """
    notes: dict[str, str] = {}
    netstat = getattr(ids, "netstat", None)
    if netstat is not None:
        notes["feature_backend"] = netstat.backend
    kitnet = getattr(ids, "kitnet", None)
    if kitnet is not None:
        notes["ensemble_backend"] = kitnet.resolved_ensemble_backend
    return notes
