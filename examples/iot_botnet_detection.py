"""IoT botnet detection: watch Kitsune catch a Mirai infection live.

Generates the Mirai-capture emulation, trains Kitsune on the clean
benign prefix (as the paper's methodology prescribes), then streams the
infection and prints an anomaly-score timeline around the outbreak —
the scenario the Kitsune paper was built for.

Also demonstrates pcap persistence: the capture is written to and
re-read from a real libpcap file on the way in.

Usage::

    python examples/iot_botnet_detection.py [--scale 0.15]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import Kitsune, generate_dataset
from repro.net.pcap import read_pcap, write_pcap


def score_timeline(timestamps, scores, labels, buckets: int = 24) -> None:
    """Print a coarse text timeline of median anomaly score per bucket."""
    t0, t1 = timestamps[0], timestamps[-1]
    edges = np.linspace(t0, t1, buckets + 1)
    print(f"{'window':>18s}  {'median score':>12s}  {'attack%':>8s}  ")
    for i in range(buckets):
        mask = (timestamps >= edges[i]) & (timestamps < edges[i + 1])
        if not mask.any():
            continue
        med = float(np.median(scores[mask]))
        attack_pct = 100.0 * float(np.mean(labels[mask]))
        bar = "#" * min(int(med * 40), 60)
        print(f"[{edges[i]:7.0f}s,{edges[i+1]:7.0f}s)  {med:12.4f}  "
              f"{attack_pct:7.1f}%  {bar}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("Generating the Mirai capture emulation ...")
    dataset = generate_dataset("Mirai", seed=args.seed, scale=args.scale)
    print(f"  {len(dataset)} packets, attack prevalence "
          f"{dataset.attack_prevalence:.1%}")

    # Round-trip through a real pcap file, like consuming the public trace.
    with tempfile.TemporaryDirectory() as tmp:
        pcap_path = Path(tmp) / "mirai.pcap"
        dataset.to_pcap(pcap_path)
        replayed = read_pcap(pcap_path)
        print(f"  wrote and re-read {len(replayed)} packets via "
              f"{pcap_path.name} (labels do not survive pcap — we keep "
              f"the originals for ground truth)")

    train = dataset.benign_prefix()
    test = dataset.packets[len(train):]
    print(f"\nTraining Kitsune on the benign prefix "
          f"({len(train)} packets) ...")
    fm = max(100, len(train) // 10)
    ids = Kitsune(fm_grace=fm, ad_grace=max(100, len(train) - fm),
                  seed=args.seed)
    ids.fit(train)

    print(f"Scoring the remaining {len(test)} packets ...\n")
    scores = ids.score_batch(test)
    timestamps = np.array([p.timestamp for p in test])
    labels = np.array([p.label for p in test])
    score_timeline(timestamps, scores, labels)

    benign_scores = scores[labels == 0]
    attack_scores = scores[labels == 1]
    if benign_scores.size:
        print(f"\nmedian benign score : {np.median(benign_scores):.4f}")
    print(f"median attack score : {np.median(attack_scores):.4f}")
    print("\nThe score step-change tracks the scan -> infection -> flood "
          "phases: this is the plug-and-play behaviour that earns Kitsune "
          "its strong IoT rows in the paper's Table IV.")


if __name__ == "__main__":
    main()
