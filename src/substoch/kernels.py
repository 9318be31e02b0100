"""Random-walk visit-count kernel.

The hot loop of the Monte-Carlo oracle: a vectorized numpy kernel that
steps every live walk of a chunk of trials once per iteration.  Trial t
draws from its own SplitMix64 stream (seeded with mix64(seed + (t+1)*GOLDEN),
then advanced by GOLDEN per step), so a seed reproduces the same visits
however the trials are split into chunks.

A draw z gives the uniform u = k * 2**-53 with k = z >> 11, and the walk at
state i moves to the number of cumulative entries cum[i, j] <= u (n means it
absorbs).  `WalkTable` finds that count exactly on integers: for integer k,
cum[i, j] <= k * 2**-53 holds exactly when ceil(cum[i, j] * 2**53) <= k.
"""

from __future__ import annotations

import numpy as np

from .generators import GOLDEN, MASK64, MIX1, MIX2

GOLDEN_U64 = np.uint64(GOLDEN)
_MIX1 = np.uint64(MIX1)
_MIX2 = np.uint64(MIX2)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)

KEY_BITS = 53  # k = z >> 11 lies in [0, 2**53)
GUIDE_BITS = 10  # guide-table buckets per row: 2**10, indexed by k >> 43
_BUCKET_SHIFT = np.uint64(64 - GUIDE_BITS)  # k >> 43 == z >> 54
_BUCKET_SPAN = 1 << (KEY_BITS - GUIDE_BITS)
# Row i's thresholds are offset by i * 2**53 in one uint64 array, so the
# largest entry is n * 2**53 and n must stay below 2**11.
MAX_STATES = (1 << (64 - KEY_BITS)) - 1
# WalkTable is built a block of rows at a time, each temporary of a block
# about this many cells, so that beside the arrays it keeps it needs a few
# MiB at any n.
_BLOCK_CELLS = 1 << 16


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


class WalkTable:
    """Exact O(1) next-state lookup for (n, n) float cumulative rows.

    thresholds[i, j] = ceil(cum[i, j] * 2**53), clipped to [0, 2**53], so
    that cum[i, j] <= k * 2**-53 exactly when thresholds[i, j] <= k.  A guide
    table (Chen & Asau 1974) of 2**10 buckets per row answers a draw directly
    when its bucket of keys holds no threshold; the other draws, about
    n / 2**10 of them, fall back to one `np.searchsorted` over every row's
    thresholds, offset by row so the rows stay sorted in one array.
    """

    def __init__(self, cum):
        cum = np.asarray(cum, dtype=np.float64)
        n = cum.shape[0]
        if cum.shape != (n, n) or not 1 <= n <= MAX_STATES:
            raise ValueError(f"cumulative rows must be (n, n) with 1 <= n <= {MAX_STATES}")
        if np.isnan(cum).any() or (np.diff(cum, axis=1) < 0).any():
            raise ValueError("cumulative rows must be non-decreasing and free of NaN")
        self.cum = cum
        self.n = n
        self.offsets = offsets = np.arange(n, dtype=np.uint64) << np.uint64(KEY_BITS)
        thresholds = np.empty((n, n), dtype=np.uint64)
        guide = np.empty((n, 1 << GUIDE_BITS), dtype=np.intp)
        # Bucket b holds the keys b*2**43 .. (b+1)*2**43 - 1; its count is
        # the same for all of them when both ends give the same count.
        lowest = np.arange(1 << GUIDE_BITS, dtype=np.uint64) * _BUCKET_SPAN
        size = max(1, _BLOCK_CELLS // max(n, 1 << GUIDE_BITS))
        for r0 in range(0, n, size):
            rows = slice(r0, min(r0 + size, n))
            block = np.ceil(cum[rows] * 2.0**KEY_BITS)
            thresholds[rows] = np.clip(block, 0.0, 2.0**KEY_BITS, out=block)
            thresholds[rows] += offsets[rows, None]
            # A key of row i lies in [i * 2**53, (i + 1) * 2**53): no earlier
            # row's threshold is above it and no later row's is at or below
            # it, so it is counted among its own block's thresholds alone.
            flat = thresholds[rows].ravel()
            below = np.arange(rows.stop - r0)[:, None] * n
            keys = offsets[rows, None] + lowest
            lo = np.searchsorted(flat, keys, side="right") - below
            keys += _BUCKET_SPAN - 1
            hi = np.searchsorted(flat, keys, side="right") - below
            guide[rows] = np.where(lo == hi, lo, -1)
        self.thresholds = thresholds.ravel()
        self.guide = guide.ravel()

    def next_states(self, state: np.ndarray, z: np.ndarray) -> np.ndarray:
        """For walks at `state` (intp) with draws `z` (uint64): the count of
        cum[state, j] <= (z >> 11) * 2**-53 per walk; n means absorbed."""
        nxt = self.guide[(state << GUIDE_BITS) + (z >> _BUCKET_SHIFT).astype(np.intp)]
        miss = np.flatnonzero(nxt < 0)
        if miss.size:
            rows = state[miss]
            keys = self.offsets[rows] + (z[miss] >> _SH11)
            nxt[miss] = np.searchsorted(self.thresholds, keys, side="right") - rows * self.n
        return nxt


class WalkTally:
    """Walk counts a kernel call adds to: moves made (visits after the
    first) and the longest walk, in moves."""

    __slots__ = ("moves", "longest")

    def __init__(self, moves: int = 0, longest: int = 0):
        self.moves, self.longest = moves, longest


def walk_visits(cum, start: int, trials: int, seed: int, cap: int, first: int = 0,
                table: WalkTable | None = None, tally: WalkTally | None = None):
    """Walk trials first .. first+trials-1 from `start` (0-based), stepping
    every live walk once per iteration until all absorb or make `cap` moves.

    cum: (n, n) float64 cumulative transition rows; `table` is its
    WalkTable, when the caller has one already.  Returns the (trials, n)
    int64 visit matrix of these trials and the number of walks still alive
    after `cap` moves; moves and the longest walk are added to `tally`.
    """
    if table is None:
        table = WalkTable(cum)
    n = table.n
    # Column-major, so per-state sums over trials read contiguous memory.
    visits = np.zeros((trials, n), dtype=np.int64, order="F")
    visits[:, start] = 1
    counts = visits.ravel(order="F")  # a view: walk w at state j is counts[j*trials + w]
    idx = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
    # Every stream advances by GOLDEN per step, so a walk's step-s state is
    # its seeded state plus s*GOLDEN, the same for every live walk.
    rng = _mix64_array(np.uint64(seed & MASK64) + idx * GOLDEN_U64)
    walk = np.arange(trials)
    state = np.full(trials, start, dtype=np.intp)
    steps = moves = longest = 0
    while walk.size and steps < cap:
        steps += 1
        z = _mix64_array(rng + np.uint64(steps * GOLDEN & MASK64))
        nxt = table.next_states(state, z)
        # Index arrays, not boolean masks: a random mask makes numpy's
        # masked copy branch unpredictably, several times slower.
        moved = np.flatnonzero(nxt < n)
        walk, state, rng = walk[moved], nxt[moved], rng[moved]
        np.add.at(counts, state * trials + walk, 1)
        if walk.size:
            moves += walk.size
            longest = steps
    if tally is not None:
        tally.moves += moves
        tally.longest = max(tally.longest, longest)
    return visits, int(walk.size)
