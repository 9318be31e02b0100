from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoch import (
    EXACT,
    FLOAT,
    DenseMatrix,
    adjugate,
    delete_row_col,
    determinant,
    inverse,
    mat_vec,
    minor,
)
from substoch.errors import IndexOutOfRange, MatrixTooSmall, NotSquare, SingularMatrix
from substoch.generators import SplitMix64
from substoch.matrix import adjugate_column, solve_column

from .oracles import (
    keep_submatrix,
    laplace_adjugate,
    laplace_det,
    laplace_inverse,
    random_int_matrix,
)


def mat(rows, backend=EXACT):
    return DenseMatrix.from_rows(rows, backend)


small_int_matrices = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def _lifted(M, v):
    """[M | v], lifted by M's backend as the identity routes lift their rows."""
    return M.backend.lift_rows([row + [x] for row, x in zip(M.rows_as_lists(), v)])


def solve_times(M, v):
    """M^-1 v from solve_column, the inverse route's Gauss-Jordan kernel."""
    V, D = solve_column(_lifted(M, v)[0], M.backend)
    return tuple(M.backend.ratio(x, D) for x in V)


def adjugate_times(M, v):
    """adj(M) v from adjugate_column, the adjugate route's fraction-free kernel."""
    V, D, _ = adjugate_column(*_lifted(M, v), M.backend)
    return tuple(M.backend.ratio(x, D) for x in V)


# -- deletion ---------------------------------------------------------------


def test_delete_row_col_definition():
    assert delete_row_col(mat([[1, 2], [3, 4]]), 1, 1) == mat([[4]])
    assert delete_row_col(
        mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 2, 3
    ) == mat([[1, 2], [7, 8]])


def test_delete_row_col_leaves_source_unchanged():
    B = mat([[1, 2], [3, 4]])
    delete_row_col(B, 1, 2)
    assert B == mat([[1, 2], [3, 4]])


def test_delete_row_col_errors():
    with pytest.raises(MatrixTooSmall):
        delete_row_col(mat([[5]]), 1, 1)
    with pytest.raises(IndexOutOfRange):
        delete_row_col(mat([[1, 2], [3, 4]]), 0, 1)
    with pytest.raises(IndexOutOfRange):
        delete_row_col(mat([[1, 2], [3, 4]]), 1, 3)
    with pytest.raises(NotSquare):
        delete_row_col(DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), 1, 1)


def test_double_deletion_order_independent():
    # deleting diagonal indices l1 then l2 (adjusted) must equal the
    # brute-force submatrix on the surviving index set, in either order
    rng = SplitMix64(101)
    for _ in range(20):
        B = random_int_matrix(rng, 4)
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                if l1 == l2:
                    continue
                a2 = l2 - 1 if l2 > l1 else l2
                first = delete_row_col(delete_row_col(B, l1, l1), a2, a2)
                a1 = l1 - 1 if l1 > l2 else l1
                second = delete_row_col(delete_row_col(B, l2, l2), a1, a1)
                keep = [i for i in range(1, 5) if i not in (l1, l2)]
                assert first == second == keep_submatrix(B, keep, keep)


@settings(max_examples=60)
@given(small_int_matrices, st.data())
def test_deletion_transpose_commutes(rows, data):
    B = mat(rows)
    n = B.n_rows
    i = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=1, max_value=n))
    assert delete_row_col(B.transpose(), i, j) == delete_row_col(B, j, i).transpose()
    assert B.transpose().transpose() == B


# -- determinants -----------------------------------------------------------


def test_determinant_small_cases():
    assert determinant(mat([[1, 2], [3, 4]])) == Fraction(-2)
    for n in (1, 3, 5):
        assert determinant(DenseMatrix.identity(n)) == 1


def test_determinant_matches_laplace_oracle():
    rng = SplitMix64(55)
    for n in range(2, 7):
        for _ in range(4):
            B = random_int_matrix(rng, n)
            assert determinant(B) == laplace_det(B)


def test_determinant_rational_entries():
    rng = SplitMix64(56)
    from .oracles import random_rational_matrix

    for _ in range(10):
        B = random_rational_matrix(rng, 5)
        assert determinant(B) == laplace_det(B)


def test_determinant_requires_square():
    with pytest.raises(NotSquare):
        determinant(DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


KERNEL_CASES = {
    # a zero (1,1) entry forces a row exchange at the first step
    "zero_leading_entry": [[0, 2, 1], [3, 1, 4], [1, 5, 9]],
    "zero_leading_block": [[0, 0, 1, 2], [0, 3, 0, 1], [4, 0, 0, 5], [1, 1, 1, 0]],
    # on floats the kernel exchanges an odd number of rows here, so the
    # adjugate's sign comes from the exchange parity, not from rounded pivots
    "odd_exchanges": [
        ["1/3", "2/7", "1/5", "1/10"],
        ["5/6", "1/9", "3/7", "2/3"],
        ["2/11", "7/13", "1/17", "5/19"],
        ["1/23", "3/29", "8/9", "1/31"],
    ],
    # rank n-1: singular with a nonzero adjugate
    "rank_2_of_3": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    "rank_3_of_4_zero_column": [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 10], [0, 1, 1, 1]],
    # rank <= n-2: the adjugate is zero
    "rank_1_of_3": [[1, 2, 3], [2, 4, 6], [-3, -6, -9]],
    "rank_2_of_4": [[1, 0, 1, 2], [0, 1, 1, 1], [1, 1, 2, 3], [2, 1, 3, 5]],
    "large_mixed_denominators": [
        ["1/1000003", "-7/999983", "5/65537", "1/2"],
        ["3/4294967311", "11/97", "-2/3", "9/1000000007"],
        ["-13/1000000007", "1/2", "17/257", "4/4294967311"],
        ["1/6", "-5/999983", "1/65537", "3/1000003"],
    ],
}


ZERO_ADJUGATE = {"rank_1_of_3", "rank_2_of_4"}


def _close(value, oracle, scale):
    return abs(value - float(oracle)) <= 1e-9 * max(abs(float(oracle)), scale)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matches_laplace_oracle(name):
    B = mat(KERNEL_CASES[name])
    det, adj = laplace_det(B), laplace_adjugate(B)
    assert determinant(B) == det
    assert adjugate(B) == adj
    # an absolute floor for zero oracle values: a bound on every minor's size
    scale = 1.0
    for row in B.rows_as_lists():
        scale *= max(1.0, sum(float(e) ** 2 for e in row) ** 0.5)
    F = B.to_float()
    assert _close(determinant(F), det, scale)
    assert all(_close(a, b, scale) for a, b in zip(adjugate(F).entries, adj.entries))
    v = tuple(Fraction(x) for x in ("1", "-2/3", "5", "1/7")[: B.n_rows])
    vf = tuple(float(x) for x in v)
    if det == 0:
        assert all(e == 0 for e in adj.entries) is (name in ZERO_ADJUGATE)
        for M, rhs in ((B, v), (F, vf)):
            for product in (solve_times, adjugate_times):
                with pytest.raises(SingularMatrix):
                    product(M, rhs)
        with pytest.raises(SingularMatrix):
            inverse(B)
    else:
        inv = laplace_inverse(B)
        assert inverse(B) == inv
        assert solve_times(B, v) == mat_vec(inv, v)
        assert adjugate_times(B, v) == mat_vec(adj, v)
        assert all(_close(a, b / det, scale) for a, b in zip(inverse(F).entries, adj.entries))
        scale_v = scale * max(1.0, sum(x * x for x in vf) ** 0.5)
        for product, oracle in ((solve_times, inv), (adjugate_times, adj)):
            expected = mat_vec(oracle, v)
            assert all(_close(a, b, scale_v) for a, b in zip(product(F, vf), expected))


def test_float_determinant_close_to_exact():
    rng = SplitMix64(57)
    for _ in range(10):
        B = random_int_matrix(rng, 4)
        d_exact = float(determinant(B))
        d_float = determinant(B.to_float())
        assert abs(d_float - d_exact) <= 1e-9 * (1 + abs(d_exact))


def test_float_determinant_of_singular_matrix_is_zero():
    assert determinant(mat([[1.0, 1.0], [1.0, 1.0]], FLOAT)) == 0.0


# -- minors, adjugates, inverses ---------------------------------------------


def test_minor_definitions():
    assert minor(mat([[1, 2], [3, 4]]), 1, 2) == 3
    assert minor(DenseMatrix.identity(3), 1, 1) == 1


def test_minor_consistent_with_adjugate():
    rng = SplitMix64(58)
    for _ in range(6):
        B = random_int_matrix(rng, 4)
        A = adjugate(B)
        for i in range(1, 5):
            for j in range(1, 5):
                cof = minor(B, i, j)
                if (i + j) % 2 == 1:
                    cof = -cof
                assert A.at(j, i) == cof


def test_adjugate_small_cases():
    assert adjugate(mat([[1, 2], [3, 4]])) == mat([[4, -2], [-3, 1]])
    assert adjugate(mat([[5]])) == mat([[1]])


def test_adjugate_multiply_out():
    rng = SplitMix64(59)
    for _ in range(8):
        B = random_int_matrix(rng, 4)
        d = determinant(B)
        assert B.matmul(adjugate(B)) == DenseMatrix.identity(4).scale(d)
        assert adjugate(B) == laplace_adjugate(B)


def test_inverse_small_cases():
    assert inverse(mat([[2, 0], [0, 4]])) == mat([["1/2", 0], [0, "1/4"]])
    assert inverse(DenseMatrix.identity(4)) == DenseMatrix.identity(4)


def test_inverse_equals_adjugate_over_determinant():
    rng = SplitMix64(60)
    found = 0
    while found < 6:
        B = random_int_matrix(rng, 4)
        d = determinant(B)
        if d == 0:
            continue
        found += 1
        inv = inverse(B)
        assert inv == adjugate(B).scale(Fraction(1) / d)
        assert B.matmul(inv) == DenseMatrix.identity(4)


# rationals with large, mixed (often coprime) denominators, zero about a
# third of the time so that leading entries vanish and rows get exchanged
_GJ_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.sampled_from([1, 3, 64, 65537, 999983, 10**9 + 7, 4294967311, 2**61 - 1]),
    ),
)
_GJ_MATRICES = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(_GJ_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=80, deadline=None)
@given(_GJ_MATRICES, st.data())
def test_exact_gauss_jordan_solves_exactly(rows, data):
    B = mat(rows)
    n = B.n_rows
    b = data.draw(st.lists(_GJ_ENTRIES, min_size=n, max_size=n))
    if laplace_det(B) == 0:
        for call in (inverse, lambda M: solve_times(M, b)):
            with pytest.raises(SingularMatrix):
                call(B)
        return
    x = solve_times(B, b)
    assert all(sum(a * xi for a, xi in zip(B.row(i), x)) == b[i - 1] for i in range(1, n + 1))
    assert B.matmul(inverse(B)) == DenseMatrix.identity(n)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices, st.data())
def test_gauss_jordan_raises_on_singular_input_on_both_backends(rows, data):
    # a row that repeats another times 1, -1 or 2 stays an exact multiple
    # under every elimination step, in doubles too
    n = len(rows)
    i, j = data.draw(st.permutations(range(n)))[:2]
    scale = data.draw(st.sampled_from([1, -1, 2]))
    rows[j] = [scale * e for e in rows[i]]
    for backend in (EXACT, FLOAT):
        B = mat(rows, backend)
        with pytest.raises(SingularMatrix):
            inverse(B)
        with pytest.raises(SingularMatrix):
            solve_times(B, [backend.one] * n)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix):
        inverse(mat([[1.0, 2.0], [2.0, 4.0]], FLOAT))


def test_float_pivot_floor_is_relative():
    # scale-invariant cutoff: a uniformly tiny but well-conditioned matrix inverts
    B = mat([[1e-20, 0.0], [0.0, 1e-20]], FLOAT)
    inv = inverse(B)
    assert inv.at(1, 1) == 1e20


# -- global identities --------------------------------------------------------


def test_cofactor_alternating_sum_annihilation():
    # sum_k b_km (-1)^(k+l) det(B(k|l)) == 0 for l != m: it is the determinant
    # of B with column l replaced by column m
    rng = SplitMix64(61)
    for _ in range(6):
        B = random_int_matrix(rng, 5)
        n = 5
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                if l == m:
                    continue
                total = Fraction(0)
                for k in range(1, n + 1):
                    term = B.at(k, m) * determinant(delete_row_col(B, k, l))
                    total += term if (k + l) % 2 == 0 else -term
                assert total == 0


@settings(max_examples=40)
@given(small_int_matrices)
def test_adjugate_identity_property(rows):
    B = mat(rows)
    n = B.n_rows
    assert B.matmul(adjugate(B)) == DenseMatrix.identity(n).scale(determinant(B))


def test_mat_vec_and_bounds():
    B = mat([[1, 2], [3, 4]])
    assert mat_vec(B, (1, 1)) == (Fraction(3), Fraction(7))
    with pytest.raises(IndexOutOfRange):
        B.at(3, 1)
    with pytest.raises(IndexOutOfRange):
        B.at(1, 0)
