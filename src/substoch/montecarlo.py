"""Monte-Carlo random-walk oracle for the fundamental matrix.

A walk at state i moves to j with probability p_ij and absorbs with the
leftover probability 1 - sum_j p_ij; the expected number of visits to j
from start i (counting the visit at time 0) is entry (i, j) of (I-P)^-1.
Simulating walks therefore cross-checks the exact linear algebra through a
channel that never touches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .generators import derive_seed
from .kernels import WalkTable, WalkTally, walk_visits
from .substochastic import SubstochasticMatrix, fundamental_matrix
from .workers import forked_map

WALK_CAP_DEFAULT = 10**6
CONFIDENCE_Z = 1.96  # 95% normal approximation
# Trials per kernel call: memory holds one (CHUNK_TRIALS, n) visit matrix
# per walk process, however many trials are asked for.
CHUNK_TRIALS = 1 << 14


@dataclass(frozen=True)
class WalkStatistics:
    """Per-state mean visit counts with 95% half-widths for one start state,
    and the walks' total moves and longest walk (in moves)."""

    start_state: int
    trials: int
    mean_visits: tuple[float, ...]
    ci_halfwidth: tuple[float, ...]
    seed: int
    cap_exceeded: int
    moves: int
    longest_walk: int


def walk_table(P: SubstochasticMatrix) -> WalkTable:
    """The kernel's lookup table for the float cumulative rows of P."""
    p = np.array(P.P.to_float().rows_as_lists(), dtype=np.float64)
    return WalkTable(np.cumsum(p, axis=1))


def _walk_share(table: WalkTable, starts, trials: int, cap: int, jobs) -> np.ndarray:
    """Integer totals of the chunk jobs (row, first): trials first ..
    first+CHUNK_TRIALS-1 from starts[row], a (start, seed) pair.  Row r
    holds the visit sums and sums of squares per state, then the cap hits,
    moves and longest walk of starts[r]."""
    n = table.n
    totals = np.zeros((len(starts), 2 * n + 3), dtype=np.int64)
    for row, first in jobs:
        start, seed = starts[row]
        tally = WalkTally()
        visits, survivors = walk_visits(
            table.cum, start - 1, min(CHUNK_TRIALS, trials - first), seed, cap, first,
            table=table, tally=tally,
        )
        t = totals[row]
        t[:n] += visits.sum(axis=0)
        t[n:-1] += (*np.einsum("ij,ij->j", visits, visits), survivors, tally.moves)
        t[-1] = max(t[-1], tally.longest)
        del visits  # else two chunks are alive while the next one is built
    return totals


def _walk_totals(table: WalkTable, starts, trials: int, cap: int) -> np.ndarray:
    """_walk_share's totals for `trials` walks from each (start, seed) in
    `starts`.  The chunk jobs, one per start and CHUNK_TRIALS trials, are
    dealt to every CPU by forked_map.  Each trial has its own stream and the
    totals are integers, so they do not depend on the worker count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    jobs = [(row, first) for row in range(len(starts)) for first in range(0, trials, CHUNK_TRIALS)]
    totals, *others = forked_map(lambda share: _walk_share(table, starts, trials, cap, share), jobs)
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
    raising.  The walks run CHUNK_TRIALS at a time, so memory does not grow
    with `trials`.
    """
    n = P.n
    if not 1 <= start <= n:
        raise IndexOutOfRange(f"start state {start} outside 1..{n}")
    totals = _walk_totals(walk_table(P), [(start, seed)], trials, cap)
    return _statistics(start, seed, trials, totals[0])


@dataclass(frozen=True)
class CrosscheckCell:
    start: int
    state: int
    estimate: float
    exact: float
    halfwidth: float
    flagged: bool


@dataclass(frozen=True)
class CrosscheckReport:
    """Estimate-vs-exact comparison of (I-P)^-1 over all start states."""

    trials: int
    seed: int
    sigma: float
    stats: tuple[WalkStatistics, ...]
    cells: tuple[CrosscheckCell, ...]
    cap_exceeded: int

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
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and > 0")
    n = P.n
    exact = fundamental_matrix(P, transposed=False)
    table = walk_table(P)
    starts = [(s, derive_seed(seed, s - 1)) for s in range(1, n + 1)]
    totals = _walk_totals(table, starts, trials, cap)
    stats = tuple(_statistics(s, sd, trials, row) for (s, sd), row in zip(starts, totals))
    cells = []
    for st in stats:
        for j, (est, hw) in enumerate(zip(st.mean_visits, st.ci_halfwidth), 1):
            target = float(exact.at(st.start_state, j))
            flagged = abs(est - target) > sigma * hw
            cells.append(CrosscheckCell(st.start_state, j, est, target, hw, flagged))
    return CrosscheckReport(
        trials, seed, sigma, stats, tuple(cells), sum(st.cap_exceeded for st in stats)
    )
