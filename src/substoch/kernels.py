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
Its guide reads z >> 54, which the mix's last step leaves alone, so only
the draws the guide cannot answer finish the mix.

No step writes a visit matrix: each appends the cells state * trials + walk
of the walks that moved, and one bincount a chunk counts them into the
matrix and, exactly in int64, the per-state visit sums and squares.
"""

from __future__ import annotations

import numpy as np

from .generators import GOLDEN, MASK64, MIX1, MIX2

GOLDEN_U64, _MIX1, _MIX2 = map(np.uint64, (GOLDEN, MIX1, MIX2))
_SH30, _SH27, _SH31, _SH11 = map(np.uint64, (30, 27, 31, 11))  # shifts

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


def _mix64_head(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place, but its last step z ^= z >> 31,
    which changes no bit above 32: the head fixes z >> 54."""
    z ^= z >> _SH30
    z *= _MIX1
    z ^= z >> _SH27
    z *= _MIX2
    return z


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

    def next_states(self, state: np.ndarray, head: np.ndarray) -> np.ndarray:
        """For walks at `state` (intp) and the heads (_mix64_head) of their
        draws z (uint64): the count of cum[state, j] <= (z >> 11) * 2**-53
        per walk; n means absorbed.  Only the guide's misses finish the mix."""
        nxt = self.guide[(state << GUIDE_BITS) + (head >> _BUCKET_SHIFT).view(np.intp)]
        miss = (nxt < 0).nonzero()[0]
        if miss.size:
            rows, z = state[miss], head[miss]
            keys = self.offsets[rows] + ((z ^ (z >> _SH31)) >> _SH11)
            nxt[miss] = np.searchsorted(self.thresholds, keys, side="right") - rows * self.n
        return nxt


class WalkTally:
    """Walk counts kernel calls add to: per state (int64 arrays of n) the
    visits and the squared visit counts of each walk, summed over walks;
    moves made (visits after the first) and the longest walk, in moves."""

    __slots__ = ("sums", "squares", "moves", "longest")

    def __init__(self, sums: np.ndarray, squares: np.ndarray):
        self.sums, self.squares, self.moves, self.longest = sums, squares, 0, 0


def _count(events: list, visits, tally: WalkTally, trials: int, n: int) -> np.ndarray:
    """Count the visit events (cells state * trials + walk) into `visits`,
    the F-order (trials, n) matrix (None before any count), and `tally`.  A
    cell at count a gaining d grows its square by 2ad + d**2: 2a + d an event."""
    cells = np.concatenate(events) if events else np.empty(0, dtype=np.intp)
    events.clear()
    counts = np.bincount(cells, minlength=trials * n)
    grown = counts[cells]
    if visits is not None:
        grown += 2 * visits[cells]
        counts += visits
    states = np.floor_divide(cells, trials, out=cells)
    tally.sums += np.bincount(states, minlength=n)
    tally.moves += cells.size
    np.add.at(tally.squares, states, grown)
    return counts


def walk_visits(cum, start: int, trials: int, seed: int, cap: int, first: int = 0,
                table: WalkTable | None = None, tally: WalkTally | None = None):
    """Walk trials first .. first+trials-1 from `start` (0-based), stepping
    every live walk once per iteration until all absorb or make `cap` moves.

    cum: (n, n) float64 cumulative transition rows; `table` is its
    WalkTable, when the caller has one already.  Returns the (trials, n)
    int64 visit matrix of these trials and the number of walks still alive
    after `cap` moves, and adds their counts to `tally`.  The visit events
    are counted at the end, or as soon as they outnumber the trials * n cells.
    """
    table = table or WalkTable(cum)
    n = table.n
    tally = tally or WalkTally(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    idx = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
    # Every stream advances by GOLDEN per step, so a walk's step-s state is
    # its seeded state plus s*GOLDEN, the same for every live walk.
    rng = _mix64_head(np.uint64(seed & MASK64) + idx * GOLDEN_U64)
    rng ^= rng >> _SH31
    walk = np.arange(trials)
    state = np.full(trials, start, dtype=np.intp)
    events, pending, visits, steps = [], 0, None, 0
    while walk.size and steps < cap:
        if pending >= trials * n:  # hold no more events than the chunk has cells
            visits, pending = _count(events, visits, tally, trials, n), 0
        steps += 1
        nxt = table.next_states(state, _mix64_head(rng + np.uint64(steps * GOLDEN & MASK64)))
        # Index arrays, not boolean masks: a random mask makes numpy's
        # masked copy branch unpredictably, several times slower.
        moved = (nxt < n).nonzero()[0]
        walk, state, rng = walk[moved], nxt[moved], rng[moved]
        events.append(state * trials + walk)
        pending += walk.size
    visits = _count(events, visits, tally, trials, n)
    start_column = visits[start * trials:(start + 1) * trials]
    tally.sums[start] += trials  # the visits at time 0, which add 2c + 1 to c**2
    tally.squares[start] += 2 * int(start_column.sum()) + trials
    start_column += 1
    tally.longest = max(tally.longest, steps if walk.size else steps - 1)
    return visits.reshape(n, trials).T, int(walk.size)
