"""How fast the host runs right now, read from a fixed piece of work.

The benchmark's host is a small VM on a shared machine. As other
tenants come and go its speed drifts, by up to ~2.5x over minutes, and
every phase the benchmark times drifts with it. So a timed pass runs
the *reference work* below before it, at the boundaries inside it (a
live session between set-up and capture, Table IV between cells) and
after it. The time between two samples is program time, and it is
scaled by how long the reference work took at its two ends::

    scaled_s = raw_s * REFERENCE_S / mean(sample before, sample after)

A phase's scaled time is the sum over the stretches it spans; the
samples' own time is in none of them. A scaled timing reads in
reference-host seconds: what the phase would take on a host where the
reference work takes :data:`REFERENCE_S`. The reference work never
calls the program, so a change to the program moves the scaled timing
as much as the raw one. It mixes the kinds of work the program does:
tuple hashing and dict updates in the interpreter (flow interning),
short-lived tuples (score rows), and NumPy products, elementwise maps,
sorts and a digest over arrays a few times larger than the L2 cache.
It works in place on state built once (~6 MB) with the garbage
collector paused, so its time depends on the host, not on how much the
program has allocated around it.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

#: Seconds the reference work takes on the reference host state (the
#: quiet state of a 2-vCPU Xeon VM); scaled timings are relative to it.
REFERENCE_S = 0.1

_KEYS = 20_000
_ROWS = 30_000
_MATRIX_ROWS = 1_000
_ARRAY_LEN = 100_000
_ROUNDS = 6
_REPEATS = 4


class HostSpeed:
    """Runs of the reference work around the phases of timed passes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._inputs = rng.random((_MATRIX_ROWS, 100))
        self._weights = rng.random((100, 40))
        self._hidden = np.empty((_MATRIX_ROWS, 40))
        self._values = rng.random(_ARRAY_LEN)
        self._scratch = np.empty(_ARRAY_LEN)
        self._table = {((i * 2654435761) % 1_000_003, i % 17, "tcp"): 0
                       for i in range(_KEYS)}
        #: ``(start, end)`` ``perf_counter()`` stamps of every sample.
        self.samples: list[tuple[float, float]] = []
        self.work()  # first touch of its state stays out of the samples

    def work(self) -> float:
        """One run of the reference work; returns a value that uses it."""
        table, hidden, scratch = self._table, self._hidden, self._scratch
        total = 0.0
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_ROUNDS):
                for i in range(_KEYS):
                    key = ((i * 2654435761) % 1_000_003, i % 17, "tcp")
                    table[key] = (table[key] + i) & 0xFFFF
                for i in range(_ROWS):
                    row = (i, i * 0.5, i % 3 == 0)
                    if row[2]:
                        total += row[1]
                for _ in range(_REPEATS):
                    np.matmul(self._inputs, self._weights, out=hidden)
                    np.tanh(hidden, out=hidden)
                    total += float(hidden.sum())
                    np.multiply(self._values, 1.0001, out=scratch)
                    np.cumsum(scratch, out=scratch)
                    total += float(scratch[-1])
                    scratch[:] = self._values
                    scratch.sort()
                    total += hashlib.sha256(self._values).digest()[0]
        finally:
            if collecting:
                gc.enable()
        return total

    def sample(self) -> float:
        """Time one run of the reference work and keep the sample."""
        started = time.perf_counter()
        self.work()
        ended = time.perf_counter()
        self.samples.append((started, ended))
        return ended - started

    def seconds(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def raw(self, start: float, end: float) -> float:
        """Program time in ``[start, end]``: the samples' time left out."""
        return self._sum(start, end, scaled=False)

    def scaled(self, start: float, end: float) -> float:
        """Program time in ``[start, end]`` in reference-host seconds.

        Each stretch between two samples is scaled by the mean of the
        two. ``[start, end]`` must lie between the first and the last
        sample.
        """
        return self._sum(start, end, scaled=True)

    def _sum(self, start: float, end: float, *, scaled: bool) -> float:
        if not (self.samples and self.samples[0][1] <= start
                and end <= self.samples[-1][0]):
            raise ValueError("interval not bracketed by host-speed samples")
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            stretch = min(end, s1) - max(start, e0)
            if stretch > 0:
                factor = REFERENCE_S / (((e0 - s0) + (e1 - s1)) / 2.0)
                total += stretch * factor if scaled else stretch
        return total
