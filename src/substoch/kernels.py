"""Random-walk visit-count kernel.

The hot loop of the Monte-Carlo oracle: a vectorized numpy kernel that
steps every live walk once per iteration.  Trial t draws from its own
SplitMix64 stream (seeded with mix64(seed + (t+1)*GOLDEN), then advanced by
GOLDEN per step) and compares each uniform against precomputed cumulative
transition rows, so a seed always reproduces the same visit matrix.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_INV53 = 2.0**-53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def walk_visits(cum, start: int, trials: int, seed: int, cap: int):
    """Step every live walk once per iteration until all absorb or `cap` moves.

    cum: (n, n) float64 cumulative transition rows. Returns the
    (trials, n) int64 visit matrix and the number of walks still alive
    after `cap` moves.
    """
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    n = cum.shape[0]
    visits = np.zeros((trials, n), dtype=np.int64)
    visits[:, start] = 1
    idx = np.arange(trials, dtype=np.uint64)
    rng = _mix64_array(np.uint64(seed & MASK64) + (idx + np.uint64(1)) * GOLDEN_U64)
    state = np.full(trials, start, dtype=np.int64)
    alive = np.arange(trials)
    steps = 0
    while alive.size and steps < cap:
        rng[alive] += GOLDEN_U64
        z = _mix64_array(rng[alive])
        u = (z >> _SH11).astype(np.float64) * _INV53
        rows = cum[state[alive]]
        nxt = (rows <= u[:, None]).sum(axis=1)
        moved_mask = nxt < n
        moved = alive[moved_mask]
        new_states = nxt[moved_mask]
        state[moved] = new_states
        visits[moved, new_states] += 1
        alive = moved
        steps += 1
    return visits, int(alive.size)
