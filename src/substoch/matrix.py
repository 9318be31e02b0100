"""Dense matrices over pluggable scalar backends.

Implements single row/column deletion together with determinants, minors,
adjugates and inverses.  Public indices are 1-based.

Each matrix keeps the lift its backend makes of its rows on first use (to
integers on the exact backend); I - P is lifted from P's lift.  There are
two elimination kernels, both on lifted rows: the fraction-free
Gauss-Jordan kernel gives determinants and adjugates, the Gauss-Jordan
kernel inverses, on both backends.  adjugate_column and solve_column read
one solution column, adj(A) c or A^-1 c, off them as integers over one
denominator, for the identity routes.  The backend owns what differs
(lifting rows, the pivot, division, the singularity floor).  Cofactor
expansion exists only as a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BeyondDoubleRange,
    IndexOutOfRange,
    MatrixTooSmall,
    NotSquare,
    SingularMatrix,
)
from .scalars import EXACT, FLOAT


class DenseMatrix:
    """Immutable row-major dense matrix over a scalar backend."""

    __slots__ = ("n_rows", "n_cols", "entries", "backend", "_lift")

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
        object.__setattr__(self, "_lift", None)

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

    def rows_as_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(1, self.n_rows + 1)]

    def lifted(self) -> tuple[list[list], list]:
        """The backend's lift (rows, scales), row i being rows[i] / scales[i],
        made on first use and kept; the rows are fresh copies, as the
        kernels write into them."""
        if self._lift is None:
            object.__setattr__(self, "_lift", self.backend.lift_rows(self.rows_as_lists()))
        rows, scales = self._lift
        return [list(row) for row in rows], scales

    # -- algebra ----------------------------------------------------------

    def transpose(self) -> "DenseMatrix":
        flat = [self.entries[r * self.n_cols + c] for c in range(self.n_cols) for r in range(self.n_rows)]
        return DenseMatrix(self.n_cols, self.n_rows, flat, self.backend)

    def scale(self, s) -> "DenseMatrix":
        return DenseMatrix(self.n_rows, self.n_cols, [s * e for e in self.entries], self.backend)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        rows = self.rows_as_lists()
        cols = list(zip(*other.rows_as_lists()))
        flat = [sum(a * b for a, b in zip(r, c)) for r in rows for c in cols]
        return DenseMatrix(self.n_rows, other.n_cols, flat, self.backend)

    # -- conversions ------------------------------------------------------

    def to_float(self) -> "DenseMatrix":
        """Render onto the float backend (correctly rounded per entry); the first
        entry past the largest double raises BeyondDoubleRange at its place."""
        if self.backend is FLOAT:
            return self
        flat = []
        for e in self.entries:
            try:
                flat.append(float(e))
            except OverflowError:
                i, j = divmod(len(flat), self.n_cols)
                raise BeyondDoubleRange(i + 1, j + 1) from None
        return DenseMatrix(self.n_rows, self.n_cols, flat, FLOAT)

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
            " ".join(str(self.backend.to_json(e)) for e in self.row(i))
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


def identity_minus(P: DenseMatrix) -> DenseMatrix:
    """I - P, lifted from P's lift: 1 - p_ii has p_ii's denominator, so row
    i of I - P lifts to s_i e_i - L_i over P's scale s_i.  Off the diagonal
    an entry is -p_ij, a negation that needs no gcd, or the backend's zero
    (negating 0.0 would give -0.0)."""
    n = P.require_square()
    one, zero = P.backend.one, P.backend.zero
    B = DenseMatrix(n, n, [one - e if k % (n + 1) == 0 else -e if e else zero
                           for k, e in enumerate(P.entries)], P.backend)
    rows, scales = P.lifted()
    for i, (row, s) in enumerate(zip(rows, scales)):
        row[:] = [s * (i == j) - x for j, x in enumerate(row)]
    object.__setattr__(B, "_lift", (rows, scales))
    return B


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
    width = len(rows[0]) if rows else 0
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


def _augmented(B: DenseMatrix) -> tuple[list[list], list]:
    """The lifted rows of [B | I] and their scales, from B's lift: row i of
    I lifts to s_i e_i."""
    rows, scales = B.lifted()
    for i, (row, s) in enumerate(zip(rows, scales)):
        row += [s * (i == j) for j in range(B.n_rows)]
    return rows, scales


def determinant(B: DenseMatrix):
    """det(B) by the fraction-free kernel; zero when B is singular."""
    rows, scales = B.lifted()
    done = fraction_free(rows, B.require_square(), B.backend)
    if done is None:
        return B.backend.zero
    rows, sign = done
    return B.backend.ratio(rows[-1][-1], sign * math.prod(scales))


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
    rows, scales = _augmented(B)
    done = fraction_free(rows, n, backend)
    if done is None:
        flat = [
            minor(B, j, i) * (-1) ** (i + j)  # note the transpose
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    else:
        rows, sign = done
        divisor = sign * math.prod(scales)
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
    last_pivot = rows[-1][-2] if rows else 1  # a 0x0 A has det 1
    (V,), D = backend.common([[row[n] for row in rows] + [last_pivot]], [sign * math.prod(scales)])
    return V[:-1], D, V[-1]


# -- inverses -------------------------------------------------------------


def gauss_jordan(rows: list[list], n: int, backend) -> list[list]:
    """Gauss-Jordan on the first n columns of rows already lifted by the
    backend (integers on the exact backend), with the backend's pivot.

    The backend owns the step that clears column k of a row with the pivot
    row; nothing divides by a previous pivot, so this is not the
    fraction-free kernel.  Row i ends as diag_i e_i followed by diag_i
    times the solution, so x_i = rhs_i / diag_i.  A pivot that is zero or
    below the backend's floor of the first n columns' entries (0 on the
    exact backend and on an empty system) raises SingularMatrix."""
    floor = backend.floor(x for row in rows for x in row[:n])
    eliminate = backend.eliminate
    for k in range(n):
        p = backend.pivot(rows, k, n)
        pivot = rows[p][k]
        if pivot == 0 or abs(pivot) < floor:
            raise SingularMatrix(
                f"pivot {backend.to_json(pivot)} below singularity floor {backend.to_json(floor)}"
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
    rows = gauss_jordan(_augmented(B)[0], n, backend)
    flat = [backend.ratio(x, row[i]) for i, row in enumerate(rows) for x in row[n:]]
    return DenseMatrix(n, n, flat, backend)
