"""Plugging a custom IDS into the evaluation pipeline.

The pipeline's point is standardised comparison, so adding a fifth
system should be (and is) a ~30-line exercise: subclass
:class:`repro.ids.base.PacketIDS`, implement ``fit`` and
``score_batch``, and reuse the shared adaptation + threshold +
metrics machinery.

The custom system here is a deliberately simple per-source rate
detector — it embarrasses itself on everything except floods, which is
exactly the kind of insight the paper's cross-dataset methodology is
designed to surface.

Usage::

    python examples/evaluate_custom_ids.py [--scale 0.1]
"""

from __future__ import annotations

import argparse
from typing import Sequence

import numpy as np

from repro.core.metrics import compute_metrics
from repro.core.preprocessing import prepare_packet_experiment
from repro.core.thresholds import standard_threshold
from repro.datasets import USED_DATASETS, generate_dataset
from repro.ids.base import PacketIDS
from repro.net.packet import Packet
from repro.utils.rng import SeededRNG
from repro.utils.tables import TextTable


class RateThresholdIDS(PacketIDS):
    """Scores each packet by its source's recent packet rate.

    Keeps an exponentially-decaying packet counter per source IP; the
    anomaly score is that counter normalised by the maximum seen during
    training. No ML, one parameter — a useful floor for any comparison.
    """

    name = "RateThreshold"
    supervised = False

    def __init__(self, *, half_life: float = 1.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life
        self._counters: dict[str, tuple[float, float]] = {}
        self._train_max = 1e-9

    def _bump(self, packet: Packet) -> float:
        source = packet.src_ip or "?"
        count, last = self._counters.get(source, (0.0, packet.timestamp))
        dt = max(packet.timestamp - last, 0.0)
        count = count * 0.5 ** (dt / self.half_life) + 1.0
        self._counters[source] = (count, packet.timestamp)
        return count

    def fit(self, packets: Sequence[Packet]) -> None:
        for packet in packets:
            self._train_max = max(self._train_max, self._bump(packet))

    def score_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        return np.array([self._bump(p) / self._train_max for p in packets])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    table = TextTable(["Dataset", "Acc.", "Prec.", "Rec.", "F1"])
    f1_by_dataset = {}
    for name in USED_DATASETS:
        dataset = generate_dataset(name, seed=args.seed, scale=args.scale)
        data = prepare_packet_experiment(
            dataset, SeededRNG(args.seed, f"custom/{name}"),
            max_test_packets=6000, max_train_packets=4000,
        )
        ids = RateThresholdIDS()
        ids.fit(data.train_packets)
        scores = ids.score_batch(data.test_packets)
        threshold = standard_threshold(data.y_true, scores,
                                       strategy="fpr-budget", max_fpr=0.05)
        metrics = compute_metrics(data.y_true, scores >= threshold)
        f1_by_dataset[name] = metrics.f1
        table.add_row([name, *metrics.row()])

    print("IDS: RateThreshold (custom plug-in)")
    print(table.render())
    best = max(f1_by_dataset, key=lambda k: f1_by_dataset[k])
    print(f"\nBest dataset: {best} — rate counting catches floods, and "
          "nothing else. Cross-dataset evaluation makes that one-trick "
          "profile impossible to hide, which is the methodology's point.")


if __name__ == "__main__":
    main()
