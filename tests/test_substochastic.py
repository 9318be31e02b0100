from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from substoch import (
    FLOAT,
    Certification,
    DenseMatrix,
    check_diagonal_maximality,
    det_I_minus_Pt_positive,
    determinant,
    fundamental_matrix,
    identity_minus,
    merge_rows_reduction,
    minor_sum_nonneg,
    spectral_radius_estimate,
    spectral_radius_lt_one,
    validate_substochastic,
)
from substoch.errors import (
    IndexOutOfRange,
    NegativeEntry,
    NotColumnSubstochastic,
    PreconditionViolated,
    RowSumExceedsOne,
    SpectralRadiusNotLessThanOne,
)
from substoch.generators import GenSpec, derive_seed, gen_substochastic

from .oracles import hitting_probabilities, keep_submatrix, laplace_det


def mat(rows):
    return DenseMatrix.from_rows(rows)


P_EXAMPLE = [["1/2", "1/4"], ["1/3", "1/3"]]


def sweep_instances(count, sizes, base_seed, max_row_sum="1"):
    for i in range(count):
        n = sizes[i % len(sizes)]
        spec = GenSpec(
            n=n,
            seed=derive_seed(base_seed, i),
            density=Fraction(3, 4) if i % 3 == 2 else Fraction(1),
            max_row_sum=Fraction(max_row_sum),
        )
        yield gen_substochastic(spec)


# -- validation ---------------------------------------------------------------


def test_validate_row_sum_strict_path():
    P = validate_substochastic(mat([[0, "1/2"], ["1/2", 0]]))
    assert P.certification is Certification.ROW_SUM_STRICT


def test_validate_rejects_permutation_matrix():
    with pytest.raises(SpectralRadiusNotLessThanOne):
        validate_substochastic(mat([[0, 1], [1, 0]]))


def test_validate_negative_entry_names_position():
    with pytest.raises(NegativeEntry) as exc:
        validate_substochastic(mat([["1/2", "-1/4"], [0, 0]]))
    assert (exc.value.row, exc.value.col) == (1, 2)


def test_validate_row_sum_exceeds_one():
    with pytest.raises(RowSumExceedsOne) as exc:
        validate_substochastic(mat([["1/2", "3/5"], [0, 0]]))
    assert exc.value.row == 1


def test_float_signs_and_row_sums_decided_exactly():
    # 0.5 + 0.5000000000000001 is exactly 1 + 2**-53; a float sum gives 1.0
    M = DenseMatrix.from_rows([[0.5, 0.5000000000000001], [0.0, 0.5]], FLOAT)
    with pytest.raises(RowSumExceedsOne) as exc:
        validate_substochastic(M)
    assert exc.value.row == 1 and exc.value.total > 1
    with pytest.raises(PreconditionViolated):
        spectral_radius_lt_one(M)


def fraction_row_checks(M):
    """The row error validate_substochastic must raise, summing each row
    entry by entry in Fraction arithmetic, or whether every row sums below 1."""
    E = M.to_exact()
    for i in range(1, M.n_rows + 1):
        total = Fraction(0)
        for j in range(1, M.n_cols + 1):
            if E.at(i, j) < 0:
                return NegativeEntry(i, j, M.at(i, j))
            total += E.at(i, j)
        if total > 1:
            shown = M.backend.coerce(total)
            return RowSumExceedsOne(i, shown if shown > 1 else total)
    return all(sum(E.row(i)) < 1 for i in range(1, M.n_rows + 1))


def square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        square(st.fractions(-1, Fraction(2, 3), max_denominator=12)).map(mat),
        # 0.5 + 0.5000000000000001 is 1 + 2**-53, which rounds to 1.0 as a float
        square(st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.5000000000000001, 0.7, -0.0, -1e-300])).map(
            lambda rows: DenseMatrix.from_rows(rows, FLOAT)
        ),
    )
)
@example(DenseMatrix.from_rows([[0.0, 0.5], [0.5, 0.5000000000000001]], FLOAT))
def test_row_checks_match_fraction_sums(M):
    # validate_substochastic and spectral_radius_lt_one, which each decide
    # the row checks on their own integer lift
    expected = fraction_row_checks(M)
    try:
        verdict = spectral_radius_lt_one(M)
    except PreconditionViolated as exc:
        verdict = exc
    try:
        P = validate_substochastic(M)
    except (NegativeEntry, RowSumExceedsOne) as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
        if isinstance(exc, NegativeEntry):
            message = f"entry ({exc.row},{exc.col}) is negative"
        else:
            message = f"row {exc.row} sums above 1"
        assert (type(verdict), str(verdict)) == (PreconditionViolated, message)
    except SpectralRadiusNotLessThanOne:
        assert expected is False and verdict is False
    else:
        assert (P.certification is Certification.ROW_SUM_STRICT) == expected
        assert verdict is True


def test_validate_m_matrix_path():
    # row 1 sums to exactly 1, but the chain still drains through row 2
    P = validate_substochastic(mat([[0, 1], [0, 0]]))
    assert P.certification is Certification.M_MATRIX
    with pytest.raises(SpectralRadiusNotLessThanOne):
        validate_substochastic(mat([["1/2", "1/2"], ["1/2", "1/2"]]))


# -- spectral radius ------------------------------------------------------------


def test_spectral_radius_lt_one_examples():
    assert spectral_radius_lt_one(DenseMatrix.zeros(3, 3))
    assert not spectral_radius_lt_one(mat([[0, 1], [1, 0]]))
    assert spectral_radius_lt_one(mat(P_EXAMPLE))


def test_spectral_radius_leading_minors_example():
    A = identity_minus(mat(P_EXAMPLE))
    assert determinant(keep_submatrix(A, [1], [1])) == Fraction(1, 2)
    assert determinant(A) == Fraction(1, 4)


def test_spectral_radius_lt_one_preconditions():
    with pytest.raises(PreconditionViolated):
        spectral_radius_lt_one(mat([[0, "-1/2"], [0, 0]]))
    with pytest.raises(PreconditionViolated):
        spectral_radius_lt_one(mat([[1, "1/2"], [0, 0]]))


@st.composite
def boundary_matrices(draw):
    """Sparse nonnegative rational P with row sums <= 1, many rows summing to
    exactly 1, and closed classes: a cycle such as [[0, 1], [1, 0]] or a
    state that keeps all its mass."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=n, max_size=n))
        total = sum(weights)
        if total:
            total += draw(st.sampled_from([0, 0, 1, 7]))  # 0 makes a stochastic row
        rows.append([Fraction(w, total or 1) for w in weights])
    order = draw(st.permutations(range(n)))
    cycle = order[: draw(st.integers(min_value=0, max_value=min(n, 3)))]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[a] = [Fraction(int(j == b)) for j in range(n)]
    return rows


def test_spectral_radius_predicate_matches_leading_minor_oracle():
    # the reachability predicate against per-k Laplace leading minors of
    # I - P, on exact matrices and on their entries rounded to doubles
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(boundary_matrices(), st.booleans())
    def check(rows, rounded):
        P = mat(rows)
        if rounded:
            P = DenseMatrix.from_rows([[float(e) for e in r] for r in rows], FLOAT)
        E = P.to_exact()
        if any(sum(E.row(i)) > 1 for i in range(1, E.n_rows + 1)):
            with pytest.raises(PreconditionViolated):
                spectral_radius_lt_one(P)
            return
        A = identity_minus(E)
        oracle = all(
            laplace_det(keep_submatrix(A, list(range(1, k + 1)), list(range(1, k + 1)))) > 0
            for k in range(1, E.n_rows + 1)
        )
        assert spectral_radius_lt_one(P) is oracle
        outcomes.add(oracle)

    check()
    assert outcomes == {True, False}


def test_spectral_radius_estimate_examples():
    assert spectral_radius_estimate(DenseMatrix.zeros(3, 3), 50, seed=1) == 0.0
    est = spectral_radius_estimate(mat([["1/2", 0], [0, "1/4"]]), 200, seed=1)
    assert abs(est - 0.5) <= 1e-9


def test_spectral_radius_estimate_deterministic():
    P = mat(P_EXAMPLE)
    assert spectral_radius_estimate(P, 100, seed=3) == spectral_radius_estimate(
        P, 100, seed=3
    )


def test_certification_soundness_estimate_below_one():
    for sub in sweep_instances(25, [2, 3, 4, 5], base_seed=777):
        est = spectral_radius_estimate(sub.P, 200, seed=0)
        assert est < 1 + 1e-6


# -- fundamental matrix ----------------------------------------------------------


def test_det_positive_examples():
    assert det_I_minus_Pt_positive(validate_substochastic(DenseMatrix.zeros(3, 3))) == 1
    assert det_I_minus_Pt_positive(
        validate_substochastic(mat([[0, "1/2"], ["1/2", 0]]))
    ) == Fraction(3, 4)
    assert det_I_minus_Pt_positive(
        validate_substochastic(mat(P_EXAMPLE))
    ) == Fraction(1, 4)


def test_fundamental_matrix_examples():
    Z = validate_substochastic(DenseMatrix.zeros(3, 3))
    assert fundamental_matrix(Z) == DenseMatrix.identity(3)
    P = validate_substochastic(mat(P_EXAMPLE))
    assert fundamental_matrix(P, transposed=False) == mat([["8/3", 1], ["4/3", 2]])
    assert fundamental_matrix(P, transposed=True) == mat([["8/3", "4/3"], [1, 2]])


def test_fundamental_matrix_transpose_coherence_and_nonnegativity():
    for sub in sweep_instances(20, [2, 3, 4, 6], base_seed=888):
        N = fundamental_matrix(sub, transposed=False)
        Nt = fundamental_matrix(sub, transposed=True)
        assert Nt == N.transpose()
        assert all(e >= 0 for e in N.entries)


def test_diagonal_maximality_examples():
    P = validate_substochastic(mat(P_EXAMPLE))
    rep = check_diagonal_maximality(P)
    assert rep.holds and rep.witness is None
    assert rep.fundamental.at(1, 1) == Fraction(8, 3)
    Z = validate_substochastic(DenseMatrix.zeros(4, 4))
    assert check_diagonal_maximality(Z).holds


def test_diagonal_maximality_random_sweep():
    for sub in sweep_instances(100, [2, 3, 4, 5, 6], base_seed=999):
        assert check_diagonal_maximality(sub).holds


# -- proof-step operations ---------------------------------------------------------


def test_merge_rows_reduction_examples():
    assert merge_rows_reduction(mat([[0, "1/2"], ["1/2", 0]]), 1) == mat([["1/2"]])
    assert merge_rows_reduction(DenseMatrix.zeros(3, 3), 2) == DenseMatrix.zeros(2, 2)


def test_merge_rows_reduction_errors():
    Q = mat([[0, "1/2"], ["1/2", 0]])
    with pytest.raises(IndexOutOfRange):
        merge_rows_reduction(Q, 2)  # m must be <= n-1
    with pytest.raises(NotColumnSubstochastic):
        merge_rows_reduction(mat([["3/4", 0], ["3/4", 0]]), 1)


def test_merge_rows_reduction_invariant():
    # column substochasticity is preserved and det(I~ - P~) >= 0
    for sub in sweep_instances(30, [2, 3, 4, 5], base_seed=1234):
        Q = sub.P.transpose()
        n = Q.n_rows
        for m in range(1, n):
            R = merge_rows_reduction(Q, m)
            assert determinant(identity_minus(R)) >= 0


def test_minor_sum_nonneg_examples():
    Z = validate_substochastic(DenseMatrix.zeros(3, 3))
    assert minor_sum_nonneg(Z, 1, 2) == 1
    P = validate_substochastic(mat(P_EXAMPLE))
    assert minor_sum_nonneg(P, 1, 1) == 0
    assert minor_sum_nonneg(P, 2, 2) == 0
    with pytest.raises(IndexOutOfRange):
        minor_sum_nonneg(P, 0, 1)


def test_minor_sum_nonneg_sweep():
    for sub in sweep_instances(25, [2, 3, 4, 5], base_seed=4321):
        n = sub.n
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                assert minor_sum_nonneg(sub, m, l) >= 0


def test_det_and_minor_sum_equal_laplace_on_i_minus_p_transpose():
    # both read I - P; pin them to their definitions on A = I - P^T
    for sub in sweep_instances(16, [2, 3, 4, 5], base_seed=2468):
        n = sub.n
        A = identity_minus(sub.P.transpose())
        assert det_I_minus_Pt_positive(sub) == laplace_det(A)
        without = lambda k: [i for i in range(1, n + 1) if i != k]
        for m in range(1, n + 1):
            M_mm = laplace_det(keep_submatrix(A, without(m), without(m)))
            for l in range(1, n + 1):
                M_lm = laplace_det(keep_submatrix(A, without(l), without(m)))
                assert minor_sum_nonneg(sub, m, l) == M_mm - (-1) ** (m + l) * M_lm


def test_fundamental_matrix_from_hitting_probabilities():
    # Thm1 from probability: N_ij = h_ij N_jj with 0 <= h_ij <= 1, where h_ij
    # is the chance of ever visiting j from i (Kemeny & Snell), and
    # N_jj = 1 / (1 - the chance of returning to j)
    for idx in range(12):
        n = 1 + idx % 6
        P = gen_substochastic(GenSpec(n=n, seed=derive_seed(97, idx)))
        N = fundamental_matrix(P)
        h = hitting_probabilities(P.P)
        for j in range(1, n + 1):
            back = sum(P.P.at(j, k) * h[k, j] for k in range(1, n + 1))
            assert N.at(j, j) * (1 - back) == 1
            for i in range(1, n + 1):
                assert 0 <= h[i, j] <= 1
                assert N.at(i, j) == h[i, j] * N.at(j, j)
