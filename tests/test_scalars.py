from fractions import Fraction

import pytest

from substoch import EXACT, FLOAT


def test_exact_coerce_accepts_ints_fractions_strings():
    assert EXACT.coerce(3) == Fraction(3)
    assert EXACT.coerce("3/4") == Fraction(3, 4)
    assert EXACT.coerce("0.25") == Fraction(1, 4)
    assert EXACT.coerce(Fraction(6, 4)) == Fraction(3, 2)


def test_exact_coerce_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        EXACT.coerce(0.5)
    with pytest.raises(TypeError):
        EXACT.coerce(True)


def test_rational_lowest_terms_positive_denominator():
    v = EXACT.coerce(Fraction(6, -4))
    assert (v.numerator, v.denominator) == (-3, 2)


def test_exact_comparisons_and_sign():
    assert EXACT.eq(Fraction(1, 3), Fraction(2, 6))
    assert not EXACT.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))


def test_exact_residual_requires_literal_zero():
    assert EXACT.residual_ok(0, 2)
    assert not EXACT.residual_ok(Fraction(1, 10**40), 2)


def test_float_eq_relative_tolerance():
    assert FLOAT.eq(1.0, 1.0 + 5e-10)
    assert not FLOAT.eq(1.0, 1.0 + 5e-8)
    assert FLOAT.eq(1.0, 1.0 + 5e-8, tol=1e-6)


def test_float_eq_absolute_floor_near_zero():
    assert FLOAT.eq(0.0, 1e-13)
    assert not FLOAT.eq(0.0, 1e-9)


def test_float_residual_scales_with_magnitude():
    # |residual| <= tol * (1 + scale), scale the sum of |term| over both sides
    assert FLOAT.residual_ok(5e-4, 2e6, tol=1e-9)
    assert not FLOAT.residual_ok(5e-8, 2.0, tol=1e-9)


def test_backend_pivot_rules():
    # exact Gauss-Jordan pivots on the smallest nonzero |entry| (short
    # integer rows), float on the largest; an all-zero column gives k
    rows = [[9, 1], [0, 2], [-3, 5], [7, 0]]
    assert EXACT.pivot(rows, 0, 4) == 2
    assert FLOAT.pivot(rows, 0, 4) == 0
    assert EXACT.pivot(rows, 1, 4) == 1 and FLOAT.pivot(rows, 1, 4) == 2
    assert EXACT.pivot([[0], [0]], 0, 2) == 0


def test_format():
    assert EXACT.format(Fraction(3, 4)) == "3/4"
    assert EXACT.format(Fraction(5)) == "5"
    assert EXACT.format(Fraction(-1, 2)) == "-1/2"
    assert FLOAT.format(0.25) == "0.25"
