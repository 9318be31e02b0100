"""Certified substochastic matrices and their fundamental-matrix properties.

A substochastic matrix here is square, entrywise nonnegative, with every row
sum at most 1 and spectral radius strictly below 1.  The spectral-radius
hypothesis is decided exactly: either every row sum is strictly below 1, or
every state reaches a row summing below 1 through entries > 0 (equivalently,
I - P is a nonsingular M-matrix), decided over exact rationals.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MatrixTooSmall,
    NegativeEntry,
    NotColumnSubstochastic,
    PreconditionViolated,
    RowSumExceedsOne,
    SpectralRadiusNotLessThanOne,
)
from .matrix import DenseMatrix, determinant, inverse, minor
from .scalars import EXACT


class Certification(enum.Enum):
    ROW_SUM_STRICT = "RowSumStrict"
    M_MATRIX = "MMatrixCertified"


@dataclass(frozen=True)
class SubstochasticMatrix:
    """A validated substochastic matrix plus how its spectral radius < 1
    was certified.  Construct via validate_substochastic."""

    P: DenseMatrix
    certification: Certification

    @property
    def n(self) -> int:
        return self.P.n_rows

    @functools.cached_property
    def fundamental(self) -> DenseMatrix:
        """(I - P)^-1, inverted once per instance; entries are checked
        nonnegative (exactly, or up to the float floor on floats)."""
        N = inverse(identity_minus(self.P))
        for e in N.entries:
            if e < 0 and not N.backend.eq(e, N.backend.zero):
                raise InvariantViolation(f"fundamental matrix entry {e!r} is negative")
        return N


@dataclass(frozen=True)
class MaximalityWitness:
    row: int
    col: int
    diagonal_value: object
    offending_value: object


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of the diagonal-maximality check on (I - P^T)^-1."""

    holds: bool
    witness: Optional[MaximalityWitness]
    fundamental: DenseMatrix


def identity_minus(P: DenseMatrix) -> DenseMatrix:
    """I - P."""
    return DenseMatrix.identity(P.require_square(), P.backend).sub(P)


def spectral_radius_lt_one(P: DenseMatrix) -> bool:
    """Exact decision of rho(P) < 1 for nonnegative P with row sums <= 1.

    rho(P) < 1 exactly when every state reaches, through entries > 0, a row
    summing below 1 (Seneta, Non-negative Matrices and Markov Chains): the
    states that reach none form a closed class with stochastic rows.  This
    is equivalent to I - P being a nonsingular M-matrix.  Signs, sums and
    reachability are decided on P's rows lifted to integers, row i being
    rows[i] / scales[i], even for float input (floats convert exactly), so
    the answer carries no rounding.
    """
    n = P.require_square()
    rows, scales = EXACT.lift_rows(P.to_exact().rows_as_lists())
    leaking = []
    for i, (row, scale) in enumerate(zip(rows, scales)):
        for j, x in enumerate(row):
            if x < 0:
                raise PreconditionViolated(f"entry ({i + 1},{j + 1}) is negative")
        total = sum(row)
        if total > scale:
            raise PreconditionViolated(f"row {i + 1} sums above 1")
        if total < scale:
            leaking.append(i)
    # search backwards along the entries > 0 from the leaking rows
    reaches = set(leaking)
    while leaking:
        j = leaking.pop()
        for i in range(n):
            if i not in reaches and rows[i][j] > 0:
                reaches.add(i)
                leaking.append(i)
    return len(reaches) == n


def validate_substochastic(M: DenseMatrix) -> SubstochasticMatrix:
    """Certify M as substochastic with spectral radius < 1, or raise.

    Signs and row sums are decided on the exact values of M's entries.
    Fast path: every row sum strictly below 1.  Otherwise the exact
    reachability test of spectral_radius_lt_one decides.
    """
    M.require_square()
    E = M.to_exact()  # float entries convert exactly, so no check rounds
    lifted, scales = EXACT.lift_rows(E.rows_as_lists())  # row i is lifted[i] / scales[i]
    all_strict = True
    for i, (row, scale) in enumerate(zip(lifted, scales), 1):
        for j, x in enumerate(row, 1):
            if x < 0:
                raise NegativeEntry(i, j, M.at(i, j))
        total = sum(row)
        if total > scale:
            total = EXACT.ratio(total, scale)
            # report the sum in M's backend unless rounding hides the excess
            shown = M.backend.coerce(total)
            raise RowSumExceedsOne(i, shown if shown > 1 else total)
        all_strict = all_strict and total < scale
    if all_strict:
        return SubstochasticMatrix(M, Certification.ROW_SUM_STRICT)
    if spectral_radius_lt_one(E):
        return SubstochasticMatrix(M, Certification.M_MATRIX)
    raise SpectralRadiusNotLessThanOne(
        "matrix has spectral radius >= 1 (some state reaches no row summing below 1)"
    )


def spectral_radius_estimate(P: DenseMatrix, iterations: int = 200, seed: int = 0) -> float:
    """Power-iteration estimate of rho(P) from a seeded positive start vector.

    Float diagnostic only; deterministic for a fixed seed and iteration
    count.  The exact predicate is spectral_radius_lt_one.
    """
    n = P.require_square()
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    import numpy as np

    from .generators import SplitMix64

    rng = SplitMix64(seed)
    a = np.array(P.to_float().rows_as_lists(), dtype=np.float64)
    v = np.array([0.5 + rng.next_unit() / 2.0 for _ in range(n)], dtype=np.float64)
    estimate = 0.0
    for _ in range(iterations):
        w = a @ v
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            return 0.0
        estimate = norm / float(np.max(np.abs(v)))
        v = w / norm
    return estimate


def det_I_minus_Pt_positive(P: SubstochasticMatrix):
    """det(I - P^T), computed as det(I - P), which equals it; certified
    input makes this provably positive."""
    d = determinant(identity_minus(P.P))
    if not d > 0:
        raise InvariantViolation(f"det(I - P^T) = {d!r} is not positive")
    return d


def fundamental_matrix(P: SubstochasticMatrix, transposed: bool = False) -> DenseMatrix:
    """(I - P)^-1, or its transpose (I - P^T)^-1 when transposed; both read
    the one inverse that P caches."""
    return P.fundamental.transpose() if transposed else P.fundamental


def check_diagonal_maximality(P: SubstochasticMatrix) -> MaximalityReport:
    """Check that every diagonal entry of C = (I - P^T)^-1 is a maximal
    element of its row (non-strict; on the float backend a value equal to
    the diagonal within the backend's tolerance is a tie).  First violation
    in row-major scan order is returned as a witness."""
    C = fundamental_matrix(P, transposed=True)
    n = C.n_rows
    for m in range(1, n + 1):
        diag = C.at(m, m)
        for l in range(1, n + 1):
            val = C.at(m, l)
            if val > diag and not C.backend.eq(val, diag):
                return MaximalityReport(
                    False, MaximalityWitness(m, l, diag, val), C
                )
    return MaximalityReport(True, None, C)


def _check_column_substochastic(Q: DenseMatrix, err=NotColumnSubstochastic):
    n = Q.require_square()
    for j in range(1, n + 1):
        total = Q.backend.zero
        for i in range(1, n + 1):
            e = Q.at(i, j)
            if e < 0:
                raise err(f"entry ({i},{j}) is negative")
            total = total + e
        if total > Q.backend.one:
            raise err(f"column {j} sums above 1")


def merge_rows_reduction(Q: DenseMatrix, m: int) -> DenseMatrix:
    """Add rows m and m+1 of a column-substochastic Q, delete column m.

    This is the (n-1)x(n-1) reduction used to show that the fundamental
    matrix's diagonal dominates: the reduced matrix stays column
    substochastic, so det(I~ - P~) >= 0.
    """
    n = Q.require_square()
    if n < 2:
        raise MatrixTooSmall("need n >= 2")
    _check_column_substochastic(Q)
    if not 1 <= m <= n - 1:
        raise IndexOutOfRange(f"merge index {m} outside 1..{n - 1}")
    rows = Q.rows_as_lists()
    merged = [a + b for a, b in zip(rows[m - 1], rows[m])]
    new_rows = rows[: m - 1] + [merged] + rows[m + 1 :]
    reduced = [v for r in new_rows for j, v in enumerate(r) if j != m - 1]
    out = DenseMatrix(n - 1, n - 1, reduced, Q.backend)
    _check_column_substochastic(out, err=InvariantViolation)
    return out


def minor_sum_nonneg(P: SubstochasticMatrix, m: int, l: int):
    """M_mm - (-1)^(m+l) M_lm on I - P^T; nonnegative whenever diagonal
    maximality holds (checked exactly on the exact backend).  A minor of
    the transpose is the transposed minor, so M_mm and M_lm read off I - P
    as its (m,m) and (m,l) minors."""
    n = P.n
    if not (1 <= m <= n and 1 <= l <= n):
        raise IndexOutOfRange(f"indices ({m},{l}) outside 1..{n}")
    A = identity_minus(P.P)
    value = minor(A, m, m)
    signed = minor(A, m, l)
    if (m + l) % 2 == 0:
        value = value - signed
    else:
        value = value + signed
    if P.P.backend is EXACT and value < 0:
        raise InvariantViolation(
            f"M_mm - (-1)^(m+l) M_lm = {value!r} < 0 at (m={m}, l={l})"
        )
    return value
