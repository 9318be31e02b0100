from fractions import Fraction

import pytest

from substoch import EXACT, FLOAT, DenseMatrix


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


@pytest.mark.parametrize(
    "backend, value, expected",
    [
        (EXACT, object(), TypeError("cannot coerce object to a rational")),
        (FLOAT, "0.25", 0.25),
        (FLOAT, True, TypeError("bool is not a scalar")),
        (FLOAT, object(), TypeError("cannot coerce object to a float")),
    ],
    ids=["exact object", "float str", "float bool", "float object"],
)
def test_coerce_guards(backend, value, expected):
    if not isinstance(expected, Exception):
        assert backend.coerce(value) == expected
        return
    with pytest.raises(type(expected)) as info:
        backend.coerce(value)
    assert str(info.value) == str(expected)


def test_rational_lowest_terms_positive_denominator():
    v = EXACT.coerce(Fraction(6, -4))
    assert (v.numerator, v.denominator) == (-3, 2)


def test_exact_comparisons_and_sign():
    # 1/3 against 2/6, and against 1/3 + 1/10**30, as pairs
    assert EXACT.sides_pass((1, 3), (2, 6))
    assert not EXACT.sides_pass((1, 3), (10**30 + 3, 3 * 10**30))


def test_exact_residual_requires_literal_zero():
    # the sides as pairs (numerator, denominator) pass iff they are equal,
    # whatever the signs of the denominators; no tolerance applies
    assert EXACT.sides_pass((0, 2), (0, -7))
    assert EXACT.sides_pass((3, -6), (-1, 2), None, 1e-3)
    assert not EXACT.sides_pass((1, 10**40), (0, 1), None, 1e-3)
    assert not EXACT.sides_pass((1, -2), (1, 2)) and not EXACT.sides_pass((3, 4), (-3, 4))


def test_float_eq_relative_tolerance():
    # agreement is sides_pass on pairs: |residual| <= tol * (1 + |lhs| + |rhs|)
    assert FLOAT.sides_pass((1.0, 1.0), (1.0 + 5e-10, 1.0))
    assert FLOAT.sides_pass((2.0, 2.0), (3.0 + 1e-9, 3.0))
    assert not FLOAT.sides_pass((1.0, 1.0), (1.0 + 5e-8, 1.0))
    assert FLOAT.sides_pass((1.0, 1.0), (1.0 + 5e-8, 1.0), None, 1e-6)


def test_float_eq_absolute_floor_near_zero():
    # near zero the bound is tol itself, 1e-9 by default; at tol 0 only
    # equal values agree
    assert FLOAT.sides_pass((0.0, 1.0), (1e-9, 1.0))
    assert not FLOAT.sides_pass((0.0, 1.0), (2e-9, 1.0))
    assert not FLOAT.sides_pass((0.0, 1.0), (1e-13, 1.0), None, 0.0)
    assert FLOAT.sides_pass((0.0, 1.0), (-0.0, 1.0), None, 0.0)


def test_float_residual_scales_with_magnitude():
    # |residual| <= tol * (1 + scale), scale the sum of |term| over both sides
    assert FLOAT.sides_pass((5e-4, 1.0), (0.0, 1.0), lambda: 2e6, 1e-9)
    assert not FLOAT.sides_pass((5e-8, 1.0), (0.0, 1.0), lambda: 2.0, 1e-9)


def test_backend_pivot_rules():
    # exact Gauss-Jordan pivots on the smallest nonzero |entry| (short
    # integer rows), float on the largest; an all-zero column gives k
    rows = [[9, 1], [0, 2], [-3, 5], [7, 0]]
    assert EXACT.pivot(rows, 0, 4) == 2
    assert FLOAT.pivot(rows, 0, 4) == 0
    assert EXACT.pivot(rows, 1, 4) == 1 and FLOAT.pivot(rows, 1, 4) == 2
    assert EXACT.pivot([[0], [0]], 0, 2) == 0


def test_format():
    # a scalar prints as str of its to_json value: "p/q", an integer, a float's repr
    assert str(EXACT.to_json(Fraction(3, 4))) == "3/4"
    assert str(EXACT.to_json(Fraction(5))) == "5"
    assert str(EXACT.to_json(Fraction(-1, 2))) == "-1/2"
    assert str(FLOAT.to_json(0.25)) == "0.25"
    assert str(FLOAT.to_json(0.1)) == repr(0.1)
    assert repr(DenseMatrix.from_rows([[0.5, 0.25]], FLOAT)) == "DenseMatrix(1x2 float [0.5 0.25])"
    assert repr(DenseMatrix.from_rows([["1/2", -3]])) == "DenseMatrix(1x2 exact [1/2 -3])"
