import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from substoch import (
    FLOAT,
    Certification,
    DenseMatrix,
    IdentityId,
    check_diagonal_maximality,
    det_I_minus_Pt_positive,
    determinant,
    fundamental_matrix,
    identity_minus,
    inverse,
    merge_rows_reduction,
    minor_sum_nonneg,
    spectral_radius_estimate,
    spectral_radius_lt_one,
    validate_substochastic,
    verify_all,
)
from substoch import substochastic
from substoch.errors import (
    IndexOutOfRange,
    InvariantViolation,
    MatrixTooSmall,
    NegativeEntry,
    NotColumnSubstochastic,
    PreconditionViolated,
    RowSumExceedsOne,
    SingularMatrix,
    SpectralRadiusNotLessThanOne,
    ValidationError,
)
from substoch.generators import GenSpec, derive_seed, gen_substochastic
from substoch.scalars import ExactScalars

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


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_validate_runs_one_reachability_test_on_one_lift(monkeypatch, backend):
    # the benchmark counts substochastic.mmatrix_tests as calls of
    # spectral_radius_lt_one through the module's global name: one on the
    # M-matrix path, none on the RowSumStrict path; validate and that test
    # read one lift, of the exact copy of the input
    real_test, tests = substochastic.spectral_radius_lt_one, []
    monkeypatch.setattr(
        substochastic, "spectral_radius_lt_one", lambda E: tests.append(E) or real_test(E)
    )
    real_lift, lifts = ExactScalars.lift_rows, []
    counted = staticmethod(lambda rows: lifts.append(1) or real_lift(rows))
    monkeypatch.setattr(ExactScalars, "lift_rows", counted)
    convert = (lambda M: M.to_float()) if backend == "float" else (lambda M: M)
    P = validate_substochastic(convert(mat([[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]])))
    assert P.certification is Certification.M_MATRIX
    assert (len(tests), len(lifts)) == (1, 1)
    tests.clear()
    P = validate_substochastic(convert(mat(P_EXAMPLE)))
    assert P.certification is Certification.ROW_SUM_STRICT
    assert tests == []


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
    assert fundamental_matrix(P) == mat([["8/3", 1], ["4/3", 2]])
    assert fundamental_matrix(P).transpose() == mat([["8/3", "4/3"], [1, 2]])


def test_fundamental_matrix_transpose_coherence_and_nonnegativity():
    for sub in sweep_instances(20, [2, 3, 4, 6], base_seed=888):
        N = fundamental_matrix(sub)
        Nt = inverse(identity_minus(sub.P.transpose()))  # (I - P^T)^-1, which Thm1 reads off N
        assert Nt == N.transpose()
        assert all(e >= 0 for e in N.entries)


def test_diagonal_maximality_examples():
    P = validate_substochastic(mat(P_EXAMPLE))
    rep = check_diagonal_maximality(P)
    assert rep.holds and rep.witness is None
    assert fundamental_matrix(P).at(1, 1) == Fraction(8, 3)
    Z = validate_substochastic(DenseMatrix.zeros(4, 4))
    assert check_diagonal_maximality(Z).holds


def test_diagonal_maximality_random_sweep():
    for sub in sweep_instances(100, [2, 3, 4, 5, 6], base_seed=999):
        assert check_diagonal_maximality(sub).holds


# -- proof-step operations ---------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: spectral_radius_estimate(mat(P_EXAMPLE), iterations=0), ValueError,
         "iterations must be >= 1"),
        (lambda: merge_rows_reduction(mat([["1/2"]]), 1), MatrixTooSmall, "need n >= 2"),
    ],
    ids=["no iterations", "merge 1x1"],
)
def test_substochastic_input_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_merge_rows_reduction_examples():
    assert merge_rows_reduction(mat([[0, "1/2"], ["1/2", 0]]), 1) == mat([["1/2"]])
    assert merge_rows_reduction(DenseMatrix.zeros(3, 3), 2) == DenseMatrix.zeros(2, 2)


def test_merge_rows_reduction_errors():
    Q = mat([[0, "1/2"], ["1/2", 0]])
    with pytest.raises(IndexOutOfRange):
        merge_rows_reduction(Q, 2)  # m must be <= n-1
    with pytest.raises(NotColumnSubstochastic):
        merge_rows_reduction(mat([["3/4", 0], ["3/4", 0]]), 1)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_merge_rows_reduction_decides_columns_exactly(backend):
    # column 1 sums exactly to 1 + 2**-53, which rounds to 1.0 as a float
    Q = DenseMatrix.from_rows([[0.5, 0, 0], [0.5000000000000001, 0, 0], [0, 0, 0]], FLOAT)
    Q = Q.to_exact() if backend == "exact" else Q
    with pytest.raises(NotColumnSubstochastic, match=r"^column 1 sums above 1$"):
        merge_rows_reduction(Q, 2)
    # the first failing column, in order, names the error; a negative entry
    # is found before the sum of its own column
    Q = mat([[0, "-1/2", 1], [0, "3/4", 1], [0, "3/4", 0]])
    with pytest.raises(NotColumnSubstochastic, match=r"^entry \(1,2\) is negative$"):
        merge_rows_reduction(Q, 1)
    with pytest.raises(NotColumnSubstochastic, match=r"^column 2 sums above 1$"):
        merge_rows_reduction(mat([[0, "3/4", 1], [0, "3/4", 0], [0, 0, 0]]), 1)


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


# -- certified invariants: checked on exact values only ------------------------


@st.composite
def nearly_singular_float_rows(draw):
    """Float P with n <= 7: rows of integer weights normalized so that each
    sums to at most 1 exactly, and one row scaled by 1 - 2**-k, k in 20..52,
    so that I - P is nearly singular when P certifies."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
        row = [w / sum(weights) for w in weights]
        while sum(map(Fraction, row)) > 1:  # the rounded quotients can sum above 1
            j = row.index(max(row))
            row[j] = math.nextafter(row[j], 0)
        rows.append(row)
    i, k = draw(st.integers(0, n - 1)), draw(st.integers(20, 52))
    rows[i] = [x * (1 - 2.0**-k) for x in rows[i]]
    return rows


@settings(max_examples=300, deadline=None)
@given(nearly_singular_float_rows())
@example([[0.22441071624787942, 0.0, 0.7755892837521206], [0.9999999999417923, 0.0, 0.0],
          [1.0, 0.0, 0.0]])  # exact det(I - P) = 2**-55, 0.0 in doubles
@example([[0.5961180412741173, 0.0, 0.40388157355403154, 0.0],
          [0.18163976073555235, 0.20338440168156116, 0.4692462612531383, 0.1457295763297482],
          [0.04773787787573456, 0.0, 0.9522621221242654, 0.0],
          [0.7104958253901198, 0.0, 0.15580078773781195, 0.13370338687206826]])  # N_14 < 0 in doubles
def test_float_certified_invariants_raise_no_false_alarm(rows):
    # N >= 0 and det(I - P^T) > 0 follow from the exact certificate, which
    # a rounded value cannot disprove; a pivot below the float floor still
    # makes the inverse singular
    try:
        P = validate_substochastic(DenseMatrix.from_rows(rows, FLOAT))
    except ValidationError:
        assume(False)
    det_I_minus_Pt_positive(P)
    try:
        check_diagonal_maximality(P)
    except SingularMatrix as exc:
        assert "below singularity floor" in str(exc)


@settings(max_examples=200, deadline=None)
@given(nearly_singular_float_rows())
@example([[0.5961180412741173, 0.0, 0.40388157355403154, 0.0],
          [0.18163976073555235, 0.20338440168156116, 0.4692462612531383, 0.1457295763297482],
          [0.04773787787573456, 0.0, 0.9522621221242654, 0.0],
          [0.7104958253901198, 0.0, 0.15580078773781195, 0.13370338687206826]])  # N_14 < 0 in doubles
def test_float_thm2_compares_n_with_the_inverse_route(rows):
    # each Thm2 record's rhs is the Eq13/Eq20 rhs of its key, so a rounded
    # N moves a residual, never a certified invariant
    try:
        P = validate_substochastic(DenseMatrix.from_rows(rows, FLOAT))
    except ValidationError:
        assume(False)
    try:
        reports = verify_all(P)
    except SingularMatrix as exc:  # the float N met a pivot below its floor
        assert str(exc).endswith(" in the float (I-P)^-1")
        return
    assert [r for r in reports if r.error and r.error.startswith("InvariantViolation")] == []
    by_key = {(r.identity, r.m, r.l): r for r in reports}
    ref = {IdentityId.THM2_FIRST: IdentityId.EQ13, IdentityId.THM2_SECOND: IdentityId.EQ20}
    for r in reports:
        if r.identity in ref and r.error is None:
            assert repr(r.rhs) == repr(by_key[ref[r.identity], r.m, r.l].rhs), (r.identity, r.m, r.l)


@st.composite
def tenths_column_substochastic(draw):
    """Float Q with entries k/10, n in 2..6, each column's k summing to at
    most 10 (its float entries can still sum above 1 exactly)."""
    n = draw(st.integers(2, 6))
    columns = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)))
        columns.append([b - a for a, b in zip([0, *cuts], cuts)])
    return [[columns[j][i] / 10 for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(tenths_column_substochastic())
def test_float_merge_raises_no_false_alarm(rows):
    Q = DenseMatrix.from_rows(rows, FLOAT)
    try:
        for m in range(1, Q.n_rows):
            merge_rows_reduction(Q, m)
    except NotColumnSubstochastic:
        assume(False)  # Q's exact column sums exceed 1


def test_float_merge_returns_a_column_summing_above_1_by_rounding():
    # column 5 of Q sums to at most 1 exactly, but 0.35 + 0.15 in rows 3
    # and 4 rounds up to 0.5, so R's column 4, Q's column 5 merged, sums
    # above 1 exactly
    Q = DenseMatrix.from_rows([
        [0.1, 0.09523809523809523, 0.0, 0.3125, 0.0],
        [0.2, 0.23809523809523808, 0.26666666666666666, 0.0, 0.1],
        [0.05, 0.09523809523809523, 0.3, 0.0625, 0.35],
        [0.35, 0.38095238095238093, 0.19999999999999998, 0.5625, 0.15],
        [0.3, 0.19047619047619047, 0.2333333333333333, 0.0625, 0.4],
    ], FLOAT)
    R = merge_rows_reduction(Q, 3)
    assert R.rows_as_lists()[2] == [0.39999999999999997, 0.47619047619047616, 0.625, 0.5]
    with pytest.raises(NotColumnSubstochastic, match=r"^column 4 sums above 1$"):
        merge_rows_reduction(R, 1)


def _bump_first_entry(real):
    return lambda r, c, entries, backend: real(r, c, [entries[0] + 1, *entries[1:]], backend)


# a name in substochastic, a fake for it made from the real one, the check
# that reads it, and the check's message on P_EXAMPLE
_PLANTED = [
    ("inverse", lambda real: lambda B: real(B).scale(-1), lambda P: P.fundamental,
     r"^fundamental matrix entry Fraction\(-8, 3\) is negative$"),
    ("determinant", lambda real: lambda A: -real(A), det_I_minus_Pt_positive,
     r"^det\(I - P\^T\) = Fraction\(-1, 4\) is not positive$"),
    ("DenseMatrix", _bump_first_entry, lambda P: merge_rows_reduction(P.P.transpose(), 1),
     r"^column 1 sums above 1$"),
    ("minor", lambda real: lambda A, i, j: -real(A, i, j) if i == j else 0,
     lambda P: minor_sum_nonneg(P, 1, 2),
     r"^M_mm - \(-1\)\^\(m\+l\) M_lm = Fraction\(-2, 3\) < 0 at \(m=1, l=2\)$"),
]


@pytest.mark.parametrize("name, fake, check, message", _PLANTED, ids=[p[0] for p in _PLANTED])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_planted_fault_raises_on_exact_values_only(monkeypatch, name, fake, check, message, exact):
    # the cleared-denominator check of the identity routes is planted in
    # tests/test_identities.py::test_cleared_denominators_checked_against_det
    monkeypatch.setattr(substochastic, name, fake(getattr(substochastic, name)))
    M = mat(P_EXAMPLE)
    P = validate_substochastic(M if exact else M.to_float())
    if exact:
        with pytest.raises(InvariantViolation, match=message):
            check(P)
    else:
        check(P)


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
