"""Machine-speed probe, used to normalise round times on a shared host.

On a VM that shares its cores, the speed of the same code drifts by up to
70% over minutes as neighbours come and go, and the drift shows in process
CPU time as well as in wall time.  The probe times a fixed mix of interpreter
work and small dense numpy -- the two kinds of work mfekit does -- that
touches no mfekit code, so a change to mfekit cannot move it.  Dividing a
round's time by the probe's time around it cancels most of the drift.
Measured on a 2-core VM in a busy hour: a set of exact solves slowed from
0.95 s to 1.6 s per round while round/probe moved from 34 to 32, and over
five 30 s runs of heatmap_sweep the quartile spread of the median round
time was 0.28 of the median raw and 0.08 normalised.  Bursts shorter than a
round are not cancelled; the median over rounds absorbs them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's time on a quiet 2-core reference VM (OpenBLAS pinned to one
# thread); normalised times are seconds at that machine's speed.
REFERENCE_S = 0.028


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    A = rng.random((40, 40))
    v = rng.random(40)
    acc = 0.0
    t0 = perf_counter()
    for i in range(8000):
        w = A @ v
        j = int(w.argmax())
        acc += float(w[j]) * 1e-3
        v[i % 40] = acc % 1.0
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - t0


def probe() -> float:
    """Seconds the kernel takes now: the faster of two runs."""
    return min(_kernel(), _kernel())
