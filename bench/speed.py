"""Scaling measured times to a reference machine speed.

The benchmark runs on a shared machine whose speed drifts by a third or
more over spans of seconds. Measured on a 2-core cloud VM, six
processes preprocessing the same 128 records read from 99 to 157
records/s, and the drift shows in CPU time as well as in wall time. A
run's raw figures follow that drift rather than the program.

So right before each timed sample the benchmark runs a fixed probe, a
couple of milliseconds of interpreter and small-array work like the
pipeline's own, and scales the sample by `PROBE_REF_S / probe time`.
A change to the program changes the samples and not the probe, so it
shows in full; a drift in machine speed changes both and cancels. The
same six processes, scaled this way, read from 101 to 105 records/s.
The probe tracks interpreter-bound work best and over-corrects work made
of small numpy operations (NOTES.md has the figures). Reports print the
raw figures next to the scaled ones.
"""

from __future__ import annotations

import gc
import time

import numpy as np

PROBE_REF_S = 0.0015  # probe time that defines reference speed


def speed_probe() -> float:
    """Seconds taken by a fixed mix of dict/str work and small numpy ops.

    The garbage collector is off meanwhile: a full collection over the
    program's heap would otherwise land in some probes and not others.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[str, int] = {}
        for i in range(2000):
            key = f"k{i % 113}"
            table[key] = table.get(key, 0) + len(key)
        v = np.full(64, 0.5)
        m = np.eye(64) * 0.5
        for _ in range(150):
            v = np.tanh(m @ v + 0.1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Probes the machine's speed and keeps every probe time."""

    def __init__(self):
        self.probes: list[float] = []
        speed_probe()  # the first call pays for numpy's lazy set-up

    def factor(self) -> float:
        """Probe now; the scale for a sample timed right after."""
        probe = speed_probe()
        self.probes.append(probe)
        return PROBE_REF_S / probe
