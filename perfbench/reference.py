"""A fixed reference computation that measures how fast the host runs now.

A shared host changes speed by a quarter or more for seconds to minutes at
a time, and the benchmark's runs fall on different spells.  The timed run
interleaves this computation with the workload's passes, and reports each
time at the reference speed: measured seconds times REFERENCE_S over the
reference's own mean time in the same run.  A workload that runs at the
same share of the host's speed then reads the same on a fast and a slow
spell, while a change to the program still moves it in full, since the
reference runs no substoch code.

The work is random-walk-like numpy steps over arrays of tens of MB.  On a
2-vCPU Xeon VM its time followed both workloads' times, the exact one's
too, more closely than a cache-resident Fraction elimination did, which
suggests the host's slow spells are mostly contention for memory.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one reference() call on a 2-vCPU Intel Xeon VM; values
# reported at the reference speed are seconds on a host that runs
# reference() in exactly this time.
REFERENCE_S = 0.15

_ROWS, _COLS, _STEPS = 200_000, 16, 4


def reference() -> float:
    """Run the fixed reference computation once; returns its wall seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    cum = np.cumsum(rng.random((_COLS, _COLS)), axis=1)
    cum /= cum[:, -1:] * 1.5
    counts = np.zeros((_ROWS, _COLS), dtype=np.int64)
    state = np.arange(_ROWS) % _COLS
    for _ in range(_STEPS):
        u = rng.random(_ROWS)
        nxt = np.minimum((cum[state] <= u[:, None]).sum(axis=1), _COLS - 1)
        counts[np.arange(_ROWS), nxt] += 1
        state = nxt
    return time.perf_counter() - t0
