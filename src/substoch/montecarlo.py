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

WALK_CAP_DEFAULT = 10**6
CONFIDENCE_Z = 1.96  # 95% normal approximation
# Trials per kernel call: memory holds one (CHUNK_TRIALS, n) visit matrix,
# however many trials are asked for.
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


def simulate_visits(
    P: SubstochasticMatrix,
    start: int,
    trials: int,
    seed: int,
    cap: int = WALK_CAP_DEFAULT,
    table: WalkTable | None = None,
) -> WalkStatistics:
    """Simulate `trials` independent walks from `start` (1-based).

    Deterministic for a fixed seed: trial t draws from the SplitMix64
    stream seeded with mix64(seed + (t+1)*GOLDEN), so results do not depend
    on execution order or chunking.  Walks are capped at `cap` moves;
    capped walks are counted in cap_exceeded instead of raising.  The
    walks run CHUNK_TRIALS at a time, so memory does not grow with
    `trials`.  `table` is walk_table(P), when the caller has it already.
    """
    n = P.n
    if not 1 <= start <= n:
        raise IndexOutOfRange(f"start state {start} outside 1..{n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if table is None:
        table = walk_table(P)
    sums = np.zeros(n, dtype=np.int64)
    sumsq = np.zeros(n, dtype=np.int64)
    tally = WalkTally()
    cap_exceeded = 0
    for first in range(0, trials, CHUNK_TRIALS):
        chunk = min(CHUNK_TRIALS, trials - first)
        visits, survivors = walk_visits(
            table.cum, start - 1, chunk, seed, cap, first, table=table, tally=tally
        )
        sums += visits.sum(axis=0)
        sumsq += np.einsum("ij,ij->j", visits, visits)
        cap_exceeded += survivors
        del visits  # else two chunks are alive while the next one is built
    sums = sums.astype(np.float64)
    mean = sums / trials
    var = np.maximum(sumsq - sums * sums / trials, 0.0) / max(trials - 1, 1)
    halfwidth = CONFIDENCE_Z * np.sqrt(var / trials)
    return WalkStatistics(
        start, trials, tuple(mean.tolist()), tuple(halfwidth.tolist()), seed,
        cap_exceeded, tally.moves, tally.longest,
    )


@dataclass(frozen=True)
class CrosscheckCell:
    start: int
    state: int
    estimate: float
    halfwidth: float
    exact: float
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
    stats = []
    cells = []
    cap_total = 0
    for s in range(1, n + 1):
        st = simulate_visits(P, s, trials, derive_seed(seed, s - 1), cap, table)
        stats.append(st)
        cap_total += st.cap_exceeded
        for j in range(1, n + 1):
            target = float(exact.at(s, j))
            est = st.mean_visits[j - 1]
            hw = st.ci_halfwidth[j - 1]
            flagged = abs(est - target) > sigma * hw
            cells.append(CrosscheckCell(s, j, est, hw, target, flagged))
    return CrosscheckReport(
        trials, seed, sigma, tuple(stats), tuple(cells), cap_total
    )
