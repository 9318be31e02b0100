"""Dense matrices over pluggable scalar backends.

Implements single row/column deletion together with determinants, minors,
adjugates and inverses.  Public indices are 1-based.

There are two elimination kernels, both on rows the backend has already
lifted (to integers on the exact backend): the fraction-free Gauss-Jordan
kernel gives determinants and adjugates, the Gauss-Jordan kernel inverses,
on both backends.  The public functions lift [B] or [B | I] and call them;
adjugate_column and solve_column read one solution column, adj(A) c or
A^-1 c, off them as integers over one denominator, for the identity
routes, which lift once and build their rows themselves.  The backend owns
what differs (lifting rows, the pivot, division, the singularity floor).
Cofactor expansion exists only as a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    IndexOutOfRange,
    MatrixTooSmall,
    NotSquare,
    SingularMatrix,
)
from .scalars import EXACT, FLOAT


class DenseMatrix:
    """Immutable row-major dense matrix over a scalar backend."""

    __slots__ = ("n_rows", "n_cols", "entries", "backend")

    def __init__(self, n_rows: int, n_cols: int, entries: Sequence, backend=EXACT):
        if n_rows <= 0 or n_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != n_rows * n_cols:
            raise ValueError(
                f"expected {n_rows * n_cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], backend=EXACT) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("all rows must have the same length")
        flat = [backend.coerce(v) for r in rows for v in r]
        return cls(len(rows), width, flat, backend)

    @classmethod
    def identity(cls, n: int, backend=EXACT) -> "DenseMatrix":
        one, zero = backend.one, backend.zero
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)], backend)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, backend=EXACT) -> "DenseMatrix":
        return cls(n_rows, n_cols, [backend.zero] * (n_rows * n_cols), backend)

    # -- queries ----------------------------------------------------------

    def require_square(self) -> int:
        if self.n_rows != self.n_cols:
            raise NotSquare(f"matrix is {self.n_rows}x{self.n_cols}")
        return self.n_rows

    def at(self, i: int, j: int):
        """Entry at row i, column j (1-based, bounds-checked)."""
        if not (1 <= i <= self.n_rows and 1 <= j <= self.n_cols):
            raise IndexOutOfRange(
                f"index ({i},{j}) outside 1..{self.n_rows} x 1..{self.n_cols}"
            )
        return self.entries[(i - 1) * self.n_cols + (j - 1)]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.n_rows:
            raise IndexOutOfRange(f"row {i} outside 1..{self.n_rows}")
        base = (i - 1) * self.n_cols
        return self.entries[base : base + self.n_cols]

    def col(self, j: int) -> tuple:
        if not 1 <= j <= self.n_cols:
            raise IndexOutOfRange(f"column {j} outside 1..{self.n_cols}")
        return self.entries[j - 1 :: self.n_cols]

    def rows_as_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(1, self.n_rows + 1)]

    # -- algebra ----------------------------------------------------------

    def transpose(self) -> "DenseMatrix":
        flat = [self.entries[r * self.n_cols + c] for c in range(self.n_cols) for r in range(self.n_rows)]
        return DenseMatrix(self.n_cols, self.n_rows, flat, self.backend)

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")
        return DenseMatrix(
            self.n_rows, self.n_cols,
            [a - b for a, b in zip(self.entries, other.entries)], self.backend,
        )

    def scale(self, s) -> "DenseMatrix":
        return DenseMatrix(self.n_rows, self.n_cols, [s * e for e in self.entries], self.backend)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        rows = self.rows_as_lists()
        cols = [other.col(j) for j in range(1, other.n_cols + 1)]
        flat = [sum(a * b for a, b in zip(r, c)) for r in rows for c in cols]
        return DenseMatrix(self.n_rows, other.n_cols, flat, self.backend)

    # -- conversions ------------------------------------------------------

    def to_float(self) -> "DenseMatrix":
        """Render onto the float backend (correctly rounded per entry)."""
        if self.backend is FLOAT:
            return self
        return DenseMatrix(self.n_rows, self.n_cols, [float(e) for e in self.entries], FLOAT)

    def to_exact(self) -> "DenseMatrix":
        """Lift onto the exact backend; float entries convert exactly."""
        if self.backend is EXACT:
            return self
        return DenseMatrix(self.n_rows, self.n_cols, [Fraction(e) for e in self.entries], EXACT)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.backend.name == other.backend.name
            and (self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.backend.name, self.n_rows, self.n_cols, self.entries))

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(self.backend.format(e) for e in self.row(i))
            for i in range(1, self.n_rows + 1)
        )
        return f"DenseMatrix({self.n_rows}x{self.n_cols} {self.backend.name} [{rows}])"


def mat_vec(M: DenseMatrix, v) -> tuple:
    """M @ v for a plain entries sequence; returns a tuple."""
    entries = tuple(v)
    if M.n_cols != len(entries):
        raise ValueError("dimension mismatch in mat_vec")
    return tuple(
        sum(a * b for a, b in zip(M.row(i), entries)) for i in range(1, M.n_rows + 1)
    )


def delete_row_col(B: DenseMatrix, i: int, j: int) -> DenseMatrix:
    """B with row i and column j removed (conventionally written B(i|j))."""
    n = B.require_square()
    if n < 2:
        raise MatrixTooSmall("cannot delete from a 1x1 matrix")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"deletion index ({i},{j}) outside 1..{n}")
    flat = [
        B.entries[r * n + c]
        for r in range(n)
        if r != i - 1
        for c in range(n)
        if c != j - 1
    ]
    return DenseMatrix(n - 1, n - 1, flat, B.backend)


# -- determinants and adjugates --------------------------------------------


def fraction_free(rows: list[list], n: int, backend):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on the first n columns of
    rows already lifted by the backend (integers on the exact backend).

    Step k takes the backend's pivot in column k and sets every other row
    to (pivot*row - lead*pivot_row) / previous pivot, a division the
    backend keeps exact on integer rows.  The last row's diagonal then
    holds the determinant of the lifted, exchanged rows, and each column
    past n that determinant times the inverse applied to it.  Returns the
    rows and the sign of the row exchanges (the parity, never read off
    rounded pivots), or None on a zero pivot column (singular).
    """
    quotient = backend.quotient
    width = len(rows[0])
    prev = 1
    swaps = 0
    for k in range(n):
        p = backend.pivot(rows, k, n)
        pivot_row = rows[p]
        pivot = pivot_row[k]
        if pivot == 0:
            return None
        if p != k:
            rows[k], rows[p] = pivot_row, rows[k]
            swaps += 1
        for i, row in enumerate(rows):
            if i != k:
                lead = row[k]
                for j in range(k + 1, width):
                    row[j] = quotient(pivot * row[j] - lead * pivot_row[j], prev)
        prev = pivot
    return rows, -1 if swaps % 2 else 1


def _augmented(B: DenseMatrix) -> list[list]:
    """The rows of [B | I]."""
    right = DenseMatrix.identity(B.n_rows, B.backend).rows_as_lists()
    return [a + r for a, r in zip(B.rows_as_lists(), right)]


def _fraction_free_on(B: DenseMatrix, rows: list[list]):
    """The fraction-free kernel on the rows of B or [B | I], lifted by B's
    backend; returns the rows and the divisor (the lifts' scales times
    the exchange sign) that maps them back, or None when B is singular."""
    rows, scales = B.backend.lift_rows(rows)
    done = fraction_free(rows, B.require_square(), B.backend)
    if done is None:
        return None
    rows, sign = done
    return rows, sign * math.prod(scales)


def determinant(B: DenseMatrix):
    """det(B) by the fraction-free kernel; zero when B is singular."""
    done = _fraction_free_on(B, B.rows_as_lists())
    if done is None:
        return B.backend.zero
    rows, divisor = done
    return B.backend.ratio(rows[-1][-1], divisor)


def minor(B: DenseMatrix, i: int, j: int):
    """The (i,j)-minor: det of B with row i and column j deleted."""
    return determinant(delete_row_col(B, i, j))


def adjugate(B: DenseMatrix) -> DenseMatrix:
    """Transpose of the cofactor matrix; adj of a 1x1 matrix is [[1]].

    The fraction-free kernel on [B | I] ends with det(B) * B^-1 = adj(B)
    in its right block.  A singular B falls back to cofactors from minor.
    """
    n = B.require_square()
    backend = B.backend
    if n == 1:
        return DenseMatrix(1, 1, [backend.one], backend)
    done = _fraction_free_on(B, _augmented(B))
    if done is None:
        flat = [
            minor(B, j, i) * (-1) ** (i + j)  # note the transpose
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    else:
        rows, divisor = done
        flat = [backend.ratio(e, divisor) for row in rows for e in row[n:]]
    return DenseMatrix(n, n, flat, backend)


def adjugate_column(rows: list[list], scales: list, backend) -> tuple:
    """adj(A) c = V / D and det(A) = d / D from the fraction-free kernel on
    lifted rows [A | c], row i scaled by scales[i]: with S = diag(scales)
    its last column is det(SA) (SA)^-1 Sc = det(S) adj(A) c and its last
    pivot det(S) det(A), so D is det(S) times the sign of the exchanges.
    Returns (V, D, d); a zero pivot column raises SingularMatrix."""
    n = len(rows)
    done = fraction_free(rows, n, backend)
    if done is None:
        raise SingularMatrix("fraction-free elimination found a zero pivot column")
    rows, sign = done
    (V,), D = backend.common([[row[n] for row in rows] + [rows[-1][-2]]], [sign * math.prod(scales)])
    return V[:-1], D, V[-1]


# -- inverses -------------------------------------------------------------


def gauss_jordan(rows: list[list], n: int, backend) -> list[list]:
    """Gauss-Jordan on the first n columns of rows already lifted by the
    backend (integers on the exact backend), with the backend's pivot.

    The backend owns the step that clears column k of a row with the pivot
    row; nothing divides by a previous pivot, so this is not the
    fraction-free kernel.  Row i ends as diag_i e_i followed by diag_i
    times the solution, so x_i = rhs_i / diag_i.  A pivot that is zero or
    below the backend's singularity floor (0 on the exact backend, taken
    over the first n columns only) raises SingularMatrix."""
    factor = backend.pivot_floor_factor
    floor = factor and factor * max(max(map(abs, row[:n])) for row in rows)
    eliminate = backend.eliminate
    for k in range(n):
        p = backend.pivot(rows, k, n)
        pivot = rows[p][k]
        if pivot == 0 or abs(pivot) < floor:
            raise SingularMatrix(
                f"pivot {backend.format(pivot)} below singularity floor {backend.format(floor)}"
            )
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        for r, row in enumerate(rows):
            if r != k and row[k] != 0:
                rows[r] = eliminate(row, pivot_row, k)
    return rows


def solve_column(rows: list[list], backend) -> tuple:
    """A^-1 c = V / D from the Gauss-Jordan kernel on lifted rows [A | c]."""
    n = len(rows)
    rows = gauss_jordan(rows, n, backend)
    V, D = backend.common([[row[n]] for row in rows], [row[i] for i, row in enumerate(rows)])
    return [v for v, in V], D


def inverse(B: DenseMatrix) -> DenseMatrix:
    """B^-1 by Gauss-Jordan on [B | I]; on the exact backend B @ B^-1 == I exactly."""
    n = B.require_square()
    backend = B.backend
    rows = gauss_jordan(backend.lift_rows(_augmented(B))[0], n, backend)
    flat = [backend.ratio(x, row[i]) for i, row in enumerate(rows) for x in row[n:]]
    return DenseMatrix(n, n, flat, backend)
