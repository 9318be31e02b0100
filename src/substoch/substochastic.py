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
from collections import namedtuple

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MatrixTooSmall,
    NegativeEntry,
    NotColumnSubstochastic,
    PreconditionViolated,
    RowSumExceedsOne,
    SingularMatrix,
    SpectralRadiusNotLessThanOne,
)
from .matrix import DenseMatrix, determinant, identity_minus, inverse, minor
from .scalars import EXACT


class Certification(enum.Enum):
    ROW_SUM_STRICT = "RowSumStrict"
    M_MATRIX = "MMatrixCertified"


class SubstochasticMatrix(namedtuple("SubstochasticMatrix", "P certification")):
    """A validated substochastic matrix plus how its spectral radius < 1
    was certified.  Construct via validate_substochastic.  Its __dict__
    holds only the cached fundamental matrix; assignment is refused."""

    def __setattr__(self, name, value=None):
        raise AttributeError("SubstochasticMatrix is immutable")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return self.P.n_rows

    @functools.cached_property
    def fundamental(self) -> DenseMatrix:
        """(I - P)^-1, inverted once per instance.  P is certified, so N >= 0
        is checked on exact entries only (a rounded one can dip below 0), and
        a pivot below the floor, which only rounding makes, names the float N."""
        try:
            N = inverse(identity_minus(self.P))
        except SingularMatrix as exc:
            raise SingularMatrix(f"{exc} in the float (I-P)^-1") from None
        for e in N.entries if N.backend is EXACT else ():
            if e < 0:
                raise InvariantViolation(f"fundamental matrix entry {e!r} is negative")
        return N


MaximalityWitness = namedtuple("MaximalityWitness", "row col diagonal_value offending_value")
# the outcome of the diagonal-maximality check on (I - P^T)^-1: witness is a
# MaximalityWitness, or None when it holds
MaximalityReport = namedtuple("MaximalityReport", "holds witness")


def _leaking_rows(E: DenseMatrix, M: DenseMatrix) -> tuple[list[list[int]], list[int]]:
    """E's lifted rows, row i being rows[i] / scales[i], and the indices of
    those summing below 1, from one pass; E is M's exact copy.  Raises
    NegativeEntry or RowSumExceedsOne, with M's values, at the first one."""
    rows, scales = E.lifted()
    leaking = []
    for i, (row, scale) in enumerate(zip(rows, scales)):
        for j, x in enumerate(row):
            if x < 0:
                raise NegativeEntry(i + 1, j + 1, M.at(i + 1, j + 1))
        total = sum(row)
        if total > scale:
            total = EXACT.ratio(total, scale)
            # report the sum in M's backend unless rounding hides the excess
            shown = M.backend.coerce(total)
            raise RowSumExceedsOne(i + 1, shown if shown > 1 else total)
        if total < scale:
            leaking.append(i)
    return rows, leaking


def spectral_radius_lt_one(P: DenseMatrix) -> bool:
    """Exact decision of rho(P) < 1 for nonnegative P with row sums <= 1.

    rho(P) < 1 exactly when every state reaches, through entries > 0, a row
    summing below 1 (Seneta, Non-negative Matrices and Markov Chains): the
    states that reach none form a closed class with stochastic rows.  This
    is equivalent to I - P being a nonsingular M-matrix.  Signs, sums and
    reachability are decided on P's rows lifted to integers, even for float
    input (floats convert exactly), so the answer carries no rounding.
    """
    n = P.require_square()
    E = P.to_exact()
    try:
        rows, leaking = _leaking_rows(E, P)
    except NegativeEntry as exc:
        raise PreconditionViolated(f"entry ({exc.row},{exc.col}) is negative") from None
    except RowSumExceedsOne as exc:
        raise PreconditionViolated(f"row {exc.row} sums above 1") from None
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
    reachability test of spectral_radius_lt_one decides on the same lift.
    """
    n = M.require_square()
    E = M.to_exact()  # float entries convert exactly, so no check rounds
    if len(_leaking_rows(E, M)[1]) == n:
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
    input makes it provably positive (checked on exact values only)."""
    d = determinant(identity_minus(P.P))
    if P.P.backend is EXACT and not d > 0:
        raise InvariantViolation(f"det(I - P^T) = {d!r} is not positive")
    return d


def fundamental_matrix(P: SubstochasticMatrix) -> DenseMatrix:
    """N = (I - P)^-1, the one inverse that P caches.  (I - P^T)^-1 is its
    transpose, so Thm1 reads it off N's columns."""
    return P.fundamental


def check_diagonal_maximality(P: SubstochasticMatrix) -> MaximalityReport:
    """Check that every diagonal entry of C = (I - P^T)^-1 is a maximal
    element of its row (non-strict; a tie is a value that sides_pass finds
    equal to the diagonal).  Row m of C is column m of N = (I - P)^-1, read
    in place; the first violation in C's row-major order is the witness."""
    N = fundamental_matrix(P)
    n = N.n_rows
    for m in range(1, n + 1):
        diag = N.at(m, m)
        for l in range(1, n + 1):
            val = N.at(l, m)
            if val > diag and not N.backend.sides_pass((val, 1), (diag, 1)):
                return MaximalityReport(False, MaximalityWitness(m, l, diag, val))
    return MaximalityReport(True, None)


def _check_column_substochastic(Q: DenseMatrix, err=NotColumnSubstochastic):
    """Raise err at the first column of the square Q with a negative entry
    or summing above 1, decided as rows are, on the integers of a lift."""
    Qt = Q.transpose()
    try:
        _leaking_rows(Qt.to_exact(), Qt)
    except NegativeEntry as exc:
        raise err(f"entry ({exc.col},{exc.row}) is negative") from None
    except RowSumExceedsOne as exc:
        raise err(f"column {exc.row} sums above 1") from None


def merge_rows_reduction(Q: DenseMatrix, m: int) -> DenseMatrix:
    """Add rows m and m+1 of a column-substochastic Q, delete column m.

    This is the (n-1)x(n-1) reduction used to show that the fundamental
    matrix's diagonal dominates: the reduced matrix stays column
    substochastic, so det(I~ - P~) >= 0 (checked on exact values).
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
    if Q.backend is EXACT:  # a rounded sum can land above 1
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
    value = minor(A, m, m) - (-1) ** (m + l) * minor(A, m, l)
    if P.P.backend is EXACT and value < 0:
        raise InvariantViolation(
            f"M_mm - (-1)^(m+l) M_lm = {value!r} < 0 at (m={m}, l={l})"
        )
    return value
