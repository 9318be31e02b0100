"""Monte-Carlo random-walk oracle for the fundamental matrix.

A walk at state i moves to j with probability p_ij and absorbs with the
leftover probability 1 - sum_j p_ij; the expected number of visits to j
from start i (counting the visit at time 0) is entry (i, j) of (I-P)^-1.
Simulating walks therefore cross-checks the exact linear algebra through a
channel that never touches it.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import BeyondDoubleRange, IndexOutOfRange
from .generators import derive_seed
from .kernels import WalkTable, WalkTally, walk_visits
from .substochastic import SubstochasticMatrix, fundamental_matrix
from .workers import forked_map

WALK_CAP_DEFAULT = 10**6
CONFIDENCE_Z = 1.96  # 95% normal approximation
# Visit-matrix cells per kernel call: each walk process holds one chunk of
# at most CHUNK_CELLS int64 cells (2 MiB), whatever n and the trial count.
# Below 16 states a chunk stays at CHUNK_CELLS // 16 trials, since its
# per-trial arrays (streams, states, draws) would then outweigh the visits.
CHUNK_CELLS = 1 << 18


class WalkStatistics(namedtuple("WalkStatistics", "start_state trials mean_visits ci_halfwidth "
                                                 "seed cap_exceeded moves longest_walk")):
    """Per-state mean visit counts with 95% half-widths (tuples of floats)
    for one start state, and the walks' total moves and longest walk (in
    moves)."""

    __slots__ = ()


def walk_table(P: SubstochasticMatrix) -> WalkTable:
    """The kernel's lookup table for the float cumulative rows of P."""
    p = np.array(P.P.to_float().rows_as_lists(), dtype=np.float64)
    return WalkTable(np.cumsum(p, axis=1))


def _walk_share(table: WalkTable, starts, trials: int, cap: int, size: int, jobs) -> np.ndarray:
    """Integer totals of the chunk jobs of `size` trials: with c chunks per
    start, job j walks chunk j % c of starts[j // c], a (start, seed) pair.
    Row r holds the visit sums and sums of squares per state, then the cap
    hits, moves and longest walk of starts[r]."""
    n = table.n
    chunks = -(-trials // size)
    totals = np.zeros((len(starts), 2 * n + 3), dtype=np.int64)
    tallies = [WalkTally(t[:n], t[n:2 * n]) for t in totals]  # views: kernels add into the rows
    for job in jobs:
        row, chunk = divmod(job, chunks)
        start, seed = starts[row]
        first = chunk * size
        # The visit matrix is not bound, so no two chunks are alive at once.
        totals[row, 2 * n] += walk_visits(
            table.cum, start - 1, min(size, trials - first), seed, cap, first,
            table=table, tally=tallies[row],
        )[1]
    totals[:, 2 * n + 1:] = [(t.moves, t.longest) for t in tallies]
    return totals


def _walk_totals(table: WalkTable, starts, trials: int, cap: int) -> np.ndarray:
    """_walk_share's totals for `trials` walks from each (start, seed) in
    `starts`.  The chunk jobs, numbered start by start, are dealt to every
    CPU by forked_map.  Each trial has its own stream and the totals are
    integers, so they do not depend on the worker count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    size = CHUNK_CELLS // max(table.n, 16)  # trials per chunk job
    jobs = range(len(starts) * -(-trials // size))
    totals, *others = forked_map(lambda share: _walk_share(table, starts, trials, cap, size, share), jobs)
    for other in others:
        totals[:, :-1] += other[:, :-1]
        np.maximum(totals[:, -1], other[:, -1], out=totals[:, -1])
    return totals


def _statistics(start: int, seed: int, trials: int, totals: np.ndarray) -> WalkStatistics:
    n = (totals.size - 3) // 2
    sums = totals[:n].astype(np.float64)
    var = np.maximum(totals[n:2 * n] - sums * sums / trials, 0.0) / max(trials - 1, 1)
    halfwidth = CONFIDENCE_Z * np.sqrt(var / trials)
    return WalkStatistics(
        start, trials, tuple((sums / trials).tolist()), tuple(halfwidth.tolist()), seed,
        *(int(v) for v in totals[2 * n:]),
    )


def simulate_visits(
    P: SubstochasticMatrix,
    start: int,
    trials: int,
    seed: int,
    cap: int = WALK_CAP_DEFAULT,
) -> WalkStatistics:
    """Simulate `trials` independent walks from `start` (1-based).

    Deterministic for a fixed seed: trial t draws from the SplitMix64
    stream seeded with mix64(seed + (t+1)*GOLDEN), so results do not depend
    on execution order, chunking or the worker count.  Walks are capped at
    `cap` moves; capped walks are counted in cap_exceeded instead of
    raising.  The walks run a chunk of CHUNK_CELLS visit cells at a time,
    so memory grows with neither `trials` nor n.
    """
    n = P.n
    if not 1 <= start <= n:
        raise IndexOutOfRange(f"start state {start} outside 1..{n}")
    totals = _walk_totals(walk_table(P), [(start, seed)], trials, cap)
    return _statistics(start, seed, trials, totals[0])


CrosscheckCell = namedtuple("CrosscheckCell", "start state estimate exact halfwidth flagged")


class CrosscheckReport(namedtuple("CrosscheckReport", "trials seed sigma stats cells cap_exceeded")):
    """Estimate-vs-exact comparison of (I-P)^-1 over all start states: stats
    holds a WalkStatistics per start, cells a CrosscheckCell per entry."""

    __slots__ = ()

    @property
    def walks(self) -> int:
        return self.trials * len(self.stats)

    @property
    def moves(self) -> int:
        return sum(st.moves for st in self.stats)

    @property
    def longest_walk(self) -> int:
        return max(st.longest_walk for st in self.stats)

    @property
    def flags(self) -> tuple[CrosscheckCell, ...]:
        return tuple(c for c in self.cells if c.flagged)

    @property
    def passed(self) -> bool:
        return not any(c.flagged for c in self.cells)


def crosscheck_fundamental(
    P: SubstochasticMatrix,
    trials: int,
    seed: int,
    sigma: float = 4.0,
    cap: int = WALK_CAP_DEFAULT,
) -> CrosscheckReport:
    """Simulate from every start state and flag any (start, state) whose
    estimate deviates from the exact (I-P)^-1 entry by more than
    sigma * half-width.  Start state s uses the sub-seed derive_seed(seed, s-1).
    (I-P)^-1 goes to floats before any walk (an entry up to the floor of N's
    own backend is 0).  Each error on the way names (I-P)^-1: N's own
    SingularMatrix does, and a BeyondDoubleRange is renamed here.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and > 0")
    n = P.n
    N = fundamental_matrix(P)
    floor = N.backend.floor(N.entries)
    try:
        targets = [t if abs(t) > floor else 0.0 for t in N.to_float().entries]
    except BeyondDoubleRange as exc:
        raise BeyondDoubleRange(exc.row, exc.col, "(I-P)^-1") from None
    table = walk_table(P)
    starts = [(s, derive_seed(seed, s - 1)) for s in range(1, n + 1)]
    totals = _walk_totals(table, starts, trials, cap)
    stats = tuple(_statistics(s, sd, trials, row) for (s, sd), row in zip(starts, totals))
    cells = []
    for st in stats:
        for j, (est, hw) in enumerate(zip(st.mean_visits, st.ci_halfwidth), 1):
            target = targets[(st.start_state - 1) * n + j - 1]
            flagged = abs(est - target) > sigma * hw
            cells.append(CrosscheckCell(st.start_state, j, est, target, hw, flagged))
    return CrosscheckReport(
        trials, seed, sigma, stats, tuple(cells), sum(st.cap_exceeded for st in stats)
    )
