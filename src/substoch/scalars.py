"""Scalar backends: exact arbitrary-precision rationals and IEEE-754 doubles.

The exact backend stores entries as ``fractions.Fraction`` (always in lowest
terms with positive denominator); comparisons are exact.  The float backend
stores plain ``float`` and compares with a relative tolerance plus an absolute
floor near zero.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class ExactScalars:
    """Arithmetic over exact rationals."""

    name = "exact"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        """Accept ints, Fractions and 'p/q' / decimal strings. Floats are
        rejected: convert one explicitly with Fraction(value)."""
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, float):
            raise TypeError(
                "refusing implicit float -> rational conversion; use Fraction(value)"
            )
        raise TypeError(f"cannot coerce {type(value).__name__} to a rational")

    def eq(self, a, b, tol=None) -> bool:
        return a == b

    def residual_ok(self, residual, scale, tol=None) -> bool:
        return residual == 0

    # the kernels run on rows lifted to integers, where the fraction-free
    # kernel's divisions are exact; only a zero pivot is singular
    quotient = staticmethod(operator.floordiv)
    ratio = Fraction
    pivot_floor_factor = 0

    @staticmethod
    def pivot(rows: list[list[int]], k: int, n: int) -> int:
        """The row in k..n-1 with the smallest nonzero |entry| in column k
        (small pivots keep the cross-multiplied rows short); k when the
        column is zero."""
        return min(range(k, n), key=lambda r: abs(rows[r][k]) or math.inf)

    @staticmethod
    def eliminate(row: list[int], pivot_row: list[int], k: int) -> list[int]:
        """a*row - f*pivot_row, a and f the column-k entries, divided by
        its content (the gcd of its entries), so rows stay primitive."""
        a, f = pivot_row[k], row[k]
        row = [a * x - f * y for x, y in zip(row, pivot_row)]
        g = math.gcd(*row)
        return [x // g for x in row] if g > 1 else row

    @staticmethod
    def lift_rows(rows: list[list]) -> tuple[list[list[int]], list[int]]:
        """Scale each row to integers by the lcm of its denominators; also
        return those scales, row i being lifted[i] / scales[i]."""
        lcms = [math.lcm(*(e.denominator for e in row)) for row in rows]
        lifted = [[e.numerator * (s // e.denominator) for e in row] for s, row in zip(lcms, rows)]
        return lifted, lcms

    @staticmethod
    def common(rows: list[list[int]], dens: list[int]) -> tuple[list[list[int]], int]:
        """Integer rows over one positive denominator D for the values
        rows[k][i] / dens[k] (each nonzero); each row is first reduced by
        its gcd with its denominator, so D is the lcm of the reduced ones."""
        reduced = []
        for row, d in zip(rows, dens):
            g = math.gcd(d, *row)
            reduced.append(([x // g for x in row], d // g) if g > 1 else (row, d))
        D = math.lcm(*(d for _, d in reduced))
        return [[x * (D // d) for x in row] for row, d in reduced], D

    def to_json(self, a):
        """An int, or a "p/q" string."""
        a = Fraction(a)
        return a.numerator if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def format(self, a) -> str:
        return str(self.to_json(a))


class FloatScalars:
    """Arithmetic over 64-bit floats with tolerance-based comparison."""

    name = "float"
    zero = 0.0
    one = 1.0
    rel_tol = 1e-9
    abs_floor = 1e-12

    def coerce(self, value) -> float:
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        if isinstance(value, str):
            return float(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to a float")

    def eq(self, a, b, tol=None) -> bool:
        rel = self.rel_tol if tol is None else tol
        diff = abs(a - b)
        return diff <= rel * max(abs(a), abs(b)) or diff <= self.abs_floor

    def residual_ok(self, residual, scale, tol=None) -> bool:
        """|residual| <= tol * (1 + scale), scale the sum of |term| over
        both sides: sides that cancel large terms are only as accurate as
        those terms."""
        rel = self.rel_tol if tol is None else tol
        return abs(residual) <= rel * (1.0 + scale)

    quotient = ratio = staticmethod(operator.truediv)
    # elimination treats a pivot below this times the largest |entry| as singular
    pivot_floor_factor = 1e-13

    @staticmethod
    def pivot(rows: list[list[float]], k: int, n: int) -> int:
        """The row in k..n-1 with the largest |entry| in column k."""
        return max(range(k, n), key=lambda r: abs(rows[r][k]))

    @staticmethod
    def eliminate(row: list[float], pivot_row: list[float], k: int) -> list[float]:
        """row - (f/a)*pivot_row on the columns past k, with column k set to 0."""
        r = row[k] / pivot_row[k]
        return row[:k] + [0.0] + [x - r * y for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])]

    @staticmethod
    def lift_rows(rows: list[list]) -> tuple[list[list], list[float]]:
        return rows, [1.0] * len(rows)

    @staticmethod
    def common(rows: list[list], dens: list) -> tuple[list[list[float]], float]:
        return [[x / d for x in row] for row, d in zip(rows, dens)], 1.0

    def to_json(self, a) -> float:
        return float(a)

    def format(self, a) -> str:
        return repr(float(a))


EXACT = ExactScalars()
FLOAT = FloatScalars()
