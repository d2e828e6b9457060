"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed drifts by half
for minutes at a time: the same op on the same input takes 0.30 s in one
minute and 0.47 s in the next.  The drift is not stolen time (the op's CPU
time grows with its wall time), so no statistic over one run can remove it
when a whole run falls in a slow phase.

The loop below is fixed work of the benchmark's own, never the program's:
interpreted Python (dict and integer ops, as in the simulator's event loop)
followed by numpy passes over 8192-value arrays (the codec's chunk size).
Timed right before and right after an op, it says how much slower than
usual the host ran that op, and the op's wall time is scaled back to a host
that runs the loop in ``REFERENCE_S``.  A change to the program cannot move
the loop, so the scaled times still move with every change to the program.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "calibration_s", "normalised"]

#: seconds the calibration loop takes on an undisturbed host of the kind the
#: benchmark was tuned on (2 vCPUs of a shared x86-64 host); normalised times
#: read as wall times on such a host
REFERENCE_S = 0.0105

_ARRAY = np.random.default_rng(0).standard_normal(8192)


def calibration_s() -> float:
    """Wall seconds of one pass of the fixed calibration loop."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(30000):
        total += i * 3 % 7
        table[i & 1023] = total
    for _ in range(60):
        q = np.round(_ARRAY * 1000.0).astype(np.int64)
        total += int(np.abs(np.diff(q)).max()) + int(np.argsort(q)[0])
    return time.perf_counter() - start


def normalised(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference host, from the loop timed around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)
