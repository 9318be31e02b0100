"""Scalar backends: exact arbitrary-precision rationals and IEEE-754 doubles.

The exact backend stores entries as ``fractions.Fraction`` (always in lowest
terms with positive denominator); comparisons are exact.  The float backend
stores plain ``float``.  Each backend has two rules for rounded values:
``floor(values)`` says when one counts as zero, ``sides_pass`` when two agree.
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
        if isinstance(value, Fraction):
            return value  # immutable, so shared rather than copied
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            raise TypeError(
                "refusing implicit float -> rational conversion; use Fraction(value)"
            )
        raise TypeError(f"cannot coerce {type(value).__name__} to a rational")

    @staticmethod
    def sides_pass(a, b, *_) -> bool:
        """p / q == r / s for a = (p, q), b = (r, s), integers over nonzero
        denominators of either sign: p s == r q, whatever the tolerance."""
        return a[0] * b[1] == b[0] * a[1]

    # the kernels run on rows lifted to integers, where the fraction-free
    # kernel's divisions are exact; only a zero pivot is singular
    quotient = staticmethod(operator.floordiv)
    ratio = Fraction
    as_ratio = operator.methodcaller("as_integer_ratio")  # a value as a pair (p, q)
    floor = staticmethod(lambda values: 0)  # exact values carry no rounding noise

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
        if not isinstance(a, Fraction):
            a = Fraction(a)
        return a.numerator if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class FloatScalars:
    """Arithmetic over 64-bit floats with tolerance-based comparison."""

    name = "float"
    zero = 0.0
    one = 1.0
    rel_tol = 1e-9

    def coerce(self, value) -> float:
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, float, Fraction, str)):
            return float(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to a float")

    def sides_pass(self, lhs, rhs, magnitude=None, tol=None) -> bool:
        """|residual| <= tol * (1 + scale) on the pairs' values, scale the
        sum of |term| over both sides: sides that cancel large terms are
        only as accurate as those terms.  The scale magnitude() (|lhs| +
        |rhs| when None) is only evaluated for a nonzero residual."""
        lhs, rhs = lhs[0] / lhs[1], rhs[0] / rhs[1]
        residual = lhs - rhs
        scale = residual and (magnitude() if magnitude else abs(lhs) + abs(rhs))
        return abs(residual) <= (self.rel_tol if tol is None else tol) * (1.0 + scale)

    quotient = ratio = staticmethod(operator.truediv)
    as_ratio = staticmethod(lambda a: (a, 1.0))
    # the singularity floor: next to values, a value below 1e-13 * max |value| is rounding noise
    floor = staticmethod(lambda values: 1e-13 * max(map(abs, values), default=0))

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


EXACT = ExactScalars()
FLOAT = FloatScalars()
