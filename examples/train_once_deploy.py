"""Train once, deploy later: persisting a trained Kitsune detector.

Production IDSs are trained once and executed for weeks across process
restarts. This example trains KitNET on benign IoT traffic, saves it to
a single ``.npz``, restores it in a "new process", and shows that the
restored detector makes the same calls — then exports the evaluation as
JSON/markdown for CI archival.

Usage::

    python examples/train_once_deploy.py [--scale 0.1]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import generate_dataset
from repro.core.export import results_to_json, results_to_markdown
from repro.core.pipeline import IDSAnalysisPipeline
from repro.features.netstat import NetStat
from repro.ids.kitsune.kitnet import KitNET
from repro.ids.persistence import load_kitnet, save_kitnet
from repro.utils.rng import SeededRNG


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = generate_dataset("BoT-IoT", seed=args.seed, scale=args.scale)
    benign = dataset.benign_prefix()
    attack_tail = [p for p in dataset.packets if p.label][:1500]
    print(f"BoT-IoT emulation: {len(benign)} benign training packets, "
          f"{len(attack_tail)} attack packets held for the demo")

    # --- day 0: train --------------------------------------------------
    netstat = NetStat()
    features = netstat.extract_all(benign)
    fm = max(50, len(features) // 10)
    kitnet = KitNET(netstat.feature_count, fm_grace=fm,
                    ad_grace=max(50, len(features) - fm),
                    rng=SeededRNG(args.seed, "deploy"))
    kitnet.process_batch(features)
    print(f"trained KitNET: {len(kitnet.ensemble)} ensemble autoencoders")

    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "kitnet-botiot.npz"
        save_kitnet(kitnet, model_path)
        print(f"saved model: {model_path.name} "
              f"({model_path.stat().st_size / 1024:.1f} KiB)")

        # --- day N: restore in a fresh process and execute -------------
        # The restored detector is execute-only, so the whole batch
        # goes through the packed ensemble engine.
        restored = load_kitnet(model_path)
        fresh_netstat = NetStat()  # stream state rebuilds online
        scores = restored.process_batch(
            fresh_netstat.extract_all(attack_tail)
        )
        # Skip the stream warm-up packets when summarising.
        steady = scores[200:]
        print(f"restored detector scored the flood at median "
              f"{np.median(steady):.3f} (training-time benign scores "
              f"sit well below 1.0)")

    # --- export an evaluation for CI archival ---------------------------
    pipeline = IDSAnalysisPipeline(
        seed=args.seed, scale=max(args.scale, 0.08),
        ids_names=("Slips",), dataset_names=("Stratosphere",),
    )
    pipeline.run_all()
    print("\nJSON export (truncated):")
    print(results_to_json(pipeline)[:400] + " ...")
    print("\nMarkdown export:")
    print(results_to_markdown(pipeline))


if __name__ == "__main__":
    main()
