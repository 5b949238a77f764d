"""Reference Kitsune scoring loop: one packet at a time.

``Kitsune.score_batch`` extracts a whole batch's features into one
matrix and scores the execute-phase rows through KitNET's packed
ensemble; :func:`kitsune_scores` is its straightforward per-packet form,
kept only as the oracle it is checked against
(``tests/test_ml_batched.py``, ``tests/test_ml_batched_train.py``).
"""

from __future__ import annotations

import numpy as np


def kitsune_scores(ids, packets) -> np.ndarray:
    """One ``KitNET.process(NetStat.update(packet))`` per packet."""
    return np.array(
        [ids.kitnet.process(ids.netstat.update(p)) for p in packets]
    )
