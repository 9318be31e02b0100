from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoch import (
    FLOAT,
    DenseMatrix,
    GeneralMatrix,
    IdentityId,
    certify_general,
    check_diagonal_maximality,
    delete_row_col,
    determinant,
    identity_minus,
    validate_substochastic,
    verify_all,
)
from substoch import identities, substochastic
from substoch.errors import SingularSubmatrix
from substoch.generators import GenSpec, SplitMix64, derive_seed, gen_general, gen_substochastic
from substoch.scalars import ExactScalars

from .oracles import hitting_probabilities, laplace_det, laplace_inverse, oracle_sides


def mat(rows):
    return DenseMatrix.from_rows(rows)


def reports(G, tol=None):
    """verify_all(G, tol)'s reports by (identity, m, l)."""
    return {(r.identity, r.m, r.l): r for r in verify_all(G, tol)}


TRIDIAG = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
P_EXAMPLE = [["1/2", "1/4"], ["1/3", "1/3"]]


def general_instances(count, sizes, base_seed):
    for i in range(count):
        spec = GenSpec(n=sizes[i % len(sizes)], seed=derive_seed(base_seed, i))
        yield gen_general(spec)


def substochastic_instances(count, sizes, base_seed):
    for i in range(count):
        spec = GenSpec(n=sizes[i % len(sizes)], seed=derive_seed(base_seed, i))
        yield gen_substochastic(spec)


# -- certification --------------------------------------------------------------


def test_certify_rejects_singular():
    with pytest.raises(SingularSubmatrix):
        certify_general(mat([[1, 2], [2, 4]]))


def test_certify_rejects_zero_single_deletion_minor():
    # det = -1 but B(1|1) = [[0]]
    with pytest.raises(SingularSubmatrix):
        certify_general(mat([[0, 1], [1, 0]]))


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "rows, message, eliminations",
    [
        ([[1, 2], [2, 4]], "det(B) is zero", 0),
        # det(B) = 1, B(1|1) nonsingular, B(2|2) and B(3|3) singular: the
        # adjugate route stops at B(2|2)
        ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], "det(B(2|2)) is zero", 2),
    ],
)
def test_certify_names_the_first_vanishing_minor(monkeypatch, backend, rows, message, eliminations):
    counts = _count_calls(monkeypatch, [identities], ["adjugate_column"])
    B = mat(rows)
    with pytest.raises(SingularSubmatrix) as info:
        certify_general(B if backend == "exact" else B.to_float())
    assert str(info.value) == message
    assert counts == {"adjugate_column": eliminations}


def test_certify_n1():
    assert certify_general(mat([[5]])).det == 5
    with pytest.raises(SingularSubmatrix):
        certify_general(mat([[0]]))


# -- Schur denominator ------------------------------------------------------------


def test_schur_denominator_hand_case():
    G = certify_general(mat([[1, 2], [3, 4]]))
    assert G.inverse_terms.den(1) == Fraction(-1, 2)
    assert G.inverse_terms.den(1) == G.det / determinant(delete_row_col(G.B, 1, 1))


def test_schur_denominator_identity():
    G = certify_general(DenseMatrix.identity(4))
    for l in range(1, 5):
        assert G.inverse_terms.den(l) == 1


def test_schur_denominator_multiplicative_identity():
    for G in general_instances(8, [5], base_seed=11):
        for l in range(1, 6):
            den = G.inverse_terms.den(l)
            assert den * determinant(delete_row_col(G.B, l, l)) == determinant(G.B)


# -- Lemma 1 -----------------------------------------------------------------------


def test_lemma1_two_by_two():
    r = reports(certify_general(mat([[1, 2], [3, 4]])))[IdentityId.LEMMA1, 1, 2]
    assert r.lhs == 2 and r.rhs == 2 and r.residual == 0 and r.passed


def test_lemma1_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(3)))
    for m in range(1, 4):
        for l in range(1, 4):
            if m != l:
                r = found[IdentityId.LEMMA1, m, l]
                assert r.lhs == 0 and r.rhs == 0


def test_lemma1_all_pairs_with_laplace_rhs():
    for G in general_instances(4, [5], base_seed=21):
        n = 5
        found = reports(G)
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                if m == l:
                    continue
                r = found[IdentityId.LEMMA1, m, l]
                assert r.residual == 0 and r.passed
                d = laplace_det(delete_row_col(G.B, l, m))
                expected = d if (m + l + 1) % 2 == 0 else -d
                assert r.rhs == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 7, 65537])),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_lemma1_rhs_from_inverse_matches_laplace_minor(rows):
    # the right side is -det(B) (B^-1)_ml; the oracle expands the minor
    B = mat(rows)
    try:
        G = certify_general(B)
    except SingularSubmatrix:
        assume(False)
    n = B.n_rows
    found = reports(G)
    for m in range(1, n + 1):
        for l in range(1, n + 1):
            if m != l:
                d = laplace_det(delete_row_col(B, l, m))
                r = found[IdentityId.LEMMA1, m, l]
                assert r.rhs == (d if (m + l + 1) % 2 == 0 else -d) and r.passed


# -- Lemma 2 -----------------------------------------------------------------------


def test_lemma2_hand_case():
    r = reports(certify_general(mat([[1, 2], [3, 4]])))[IdentityId.LEMMA2, None, 1]
    assert r.lhs == -2 and r.rhs == -2 and r.passed


def test_lemma2_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(3)))
    for l in range(1, 4):
        r = found[IdentityId.LEMMA2, None, l]
        assert r.lhs == 1 and r.rhs == 1


def test_lemma2_random_sweep():
    for G in general_instances(4, [6], base_seed=31):
        found = reports(G)
        for l in range(1, 7):
            r = found[IdentityId.LEMMA2, None, l]
            assert r.residual == 0
            assert r.rhs == laplace_det(G.B)


# -- Eq. 13 / Eq. 17 ------------------------------------------------------------------


def test_eq13_tridiagonal_with_oracle():
    G = certify_general(mat(TRIDIAG))
    r = reports(G)[IdentityId.EQ13, 1, None]
    assert r.residual == 0 and r.passed
    assert (r.lhs, r.rhs) == oracle_sides(G.B, "Eq13", 1)


def test_eq13_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(3)))
    for m in range(1, 4):
        r = found[IdentityId.EQ13, m, None]
        assert r.lhs == 0 and r.rhs == 0


def test_eq17_hand_case():
    r = reports(certify_general(mat([[2, 1], [1, 2]])))[IdentityId.EQ17, 1, None]
    assert r.residual == 0 and r.passed


def test_eq17_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(4)))
    for m in range(1, 5):
        r = found[IdentityId.EQ17, m, None]
        assert r.lhs == 0 and r.rhs == 0


def test_eq13_eq17_equivalence():
    for G in general_instances(10, [3, 4, 5], base_seed=41):
        found = reports(G)
        for m in range(1, G.n + 1):
            r13 = found[IdentityId.EQ13, m, None]
            r17 = found[IdentityId.EQ17, m, None]
            assert r13.residual == 0 and r17.residual == 0
            assert r13.lhs == r17.lhs  # same quotient, two routes


# -- Eq. 20 / Eq. 21 ------------------------------------------------------------------


def test_eq20_tridiagonal_with_oracle():
    G = certify_general(mat(TRIDIAG))
    r = reports(G)[IdentityId.EQ20, 2, 1]
    assert r.residual == 0 and r.passed
    assert (r.lhs, r.rhs) == oracle_sides(G.B, "Eq20", 2, 1)  # (m, l)


def test_eq20_two_by_two_empty_sum():
    r = reports(certify_general(mat([[1, 2], [3, 4]])))[IdentityId.EQ20, 2, 1]
    assert r.lhs == 4 and r.rhs == 4 and r.residual == 0


def test_eq20_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(3)))
    for l in range(1, 4):
        for m in range(1, 4):
            if l != m:
                r = found[IdentityId.EQ20, m, l]
                assert r.lhs == 0 and r.rhs == 0


def test_eq21_tridiagonal():
    r = reports(certify_general(mat(TRIDIAG)))[IdentityId.EQ21, 1, 3]
    assert r.residual == 0 and r.passed


def test_eq21_identity_matrix():
    found = reports(certify_general(DenseMatrix.identity(3)))
    for l in range(1, 4):
        for m in range(1, 4):
            if l != m:
                r = found[IdentityId.EQ21, m, l]
                assert r.lhs == 0 and r.rhs == 0


def test_eq20_eq21_equivalence():
    for G in general_instances(8, [4, 5], base_seed=51):
        n = G.n
        found = reports(G)
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                if l == m:
                    continue
                assert found[IdentityId.EQ20, m, l].residual == 0
                assert found[IdentityId.EQ21, m, l].residual == 0


def test_column_replacement_annihilation_feeding_eq21():
    rng = SplitMix64(61)
    from .oracles import random_int_matrix

    for _ in range(4):
        B = random_int_matrix(rng, 5)
        for l in range(1, 6):
            for m in range(1, 6):
                if l == m:
                    continue
                total = Fraction(0)
                for k in range(1, 6):
                    term = B.at(k, m) * laplace_det(delete_row_col(B, k, l))
                    total += term if (k + l) % 2 == 0 else -term
                assert total == 0


# -- substochastic specializations (Thm2First / Thm2Second) ------------------------


def test_thm2_first_zero_matrix():
    found = reports(validate_substochastic(DenseMatrix.zeros(3, 3)))
    for m in range(1, 4):
        r = found[IdentityId.THM2_FIRST, m, None]
        assert r.lhs == 0 and r.rhs == 0


def test_thm2_first_hand_case():
    P = validate_substochastic(mat(P_EXAMPLE))
    r = reports(P)[IdentityId.THM2_FIRST, 1, None]
    assert r.lhs == Fraction(1, 3)  # (1/8) / (3/8)
    assert r.residual == 0 and r.passed


def test_thm2_second_zero_matrix():
    found = reports(validate_substochastic(DenseMatrix.zeros(3, 3)))
    for m in range(1, 4):
        for l in range(1, 4):
            if l != m:
                r = found[IdentityId.THM2_SECOND, m, l]
                assert r.lhs == 0 and r.rhs == 0


def test_thm2_second_hand_case():
    P = validate_substochastic(mat(P_EXAMPLE))
    r = reports(P)[IdentityId.THM2_SECOND, 2, 1]
    assert r.residual == 0 and r.passed


def test_thm2_matches_general_specialization():
    # on B = I - P certified on its own, not as the P it came from
    for sub in substochastic_instances(12, [2, 3, 4, 5, 6], base_seed=71):
        found = reports(sub)
        refs = reports(certify_general(identity_minus(sub.P)))
        n = sub.n
        for m in range(1, n + 1):
            r = found[IdentityId.THM2_FIRST, m, None]
            ref = refs[IdentityId.EQ13, m, None]
            assert r.residual == 0
            assert (r.lhs, r.rhs) == (ref.lhs, ref.rhs)
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                if l == m:
                    continue
                r = found[IdentityId.THM2_SECOND, m, l]
                ref = refs[IdentityId.EQ20, m, l]
                assert r.residual == 0
                assert (r.lhs, r.rhs) == (ref.lhs, ref.rhs)


def test_thm2_passes_on_the_error_of_its_reference(monkeypatch):
    real = identities._Terms.off_diagonal

    def failing(self, l, m, cleared=False):
        if (l, m) == (1, 2) and not cleared:
            raise SingularSubmatrix("reference failed")
        return real(self, l, m, cleared)

    monkeypatch.setattr(identities._Terms, "off_diagonal", failing)
    found = reports(validate_substochastic(mat(P_EXAMPLE)))
    assert [(key, r.error) for key, r in found.items() if r.error] == [
        ((IdentityId.EQ20, 2, 1), "SingularSubmatrix: reference failed"),
        ((IdentityId.THM2_SECOND, 2, 1), "SingularSubmatrix: reference failed"),
    ]


# -- verify_all -------------------------------------------------------------------


def test_verify_all_identity_matrix():
    reports = verify_all(certify_general(DenseMatrix.identity(3)))
    assert reports and all(r.passed and r.residual == 0 for r in reports)


def test_verify_all_tridiagonal():
    reports = verify_all(certify_general(mat(TRIDIAG)))
    assert all(r.passed for r in reports)
    # 6 lemma1 + 3 lemma2 + 3 eq13 + 3 eq17 + 6 eq20 + 6 eq21
    assert len(reports) == 27


def test_verify_all_substochastic_includes_thm2():
    P = validate_substochastic(mat(P_EXAMPLE))
    reports = verify_all(P)
    ids = {r.identity for r in reports}
    assert IdentityId.THM2_FIRST in ids and IdentityId.THM2_SECOND in ids
    assert all(r.passed for r in reports)


def test_verify_all_ordering_deterministic():
    G = certify_general(mat(TRIDIAG))
    keys = [r.sort_key() for r in verify_all(G)]
    assert keys == sorted(keys)
    assert [r.sort_key() for r in verify_all(G)] == keys


def test_verify_all_float_backend_well_conditioned():
    for G in general_instances(5, [6], base_seed=81):
        Bf = G.B.to_float()
        minors_ok = all(
            abs(determinant(delete_row_col(Bf, l, l))) >= 1e-3 for l in range(1, 7)
        )
        if not minors_ok:
            continue
        reports = verify_all(certify_general(Bf), tol=1e-9)
        assert reports and all(r.passed for r in reports)


def test_verify_all_computes_each_quotient_term_once(monkeypatch):
    # one kernel solve per index and route, inverse and adjugate on B; Thm2
    # is read off the fundamental matrix and makes none
    n = 5
    names = ["solve_column", "adjugate_column"]
    counts = _count_calls(monkeypatch, [identities], names)
    verify_all(gen_substochastic(GenSpec(n=n, seed=derive_seed(91, 0))))
    assert counts == dict.fromkeys(names, n)
    counts.update(dict.fromkeys(names, 0))
    verify_all(gen_general(GenSpec(n=n, seed=derive_seed(91, 1))))
    assert counts == dict.fromkeys(names, n)


def _count_calls(monkeypatch, modules, names):
    counts = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
    return counts


def test_certify_and_verify_all_take_one_determinant_and_one_inverse(monkeypatch):
    # the certificate's det(B); each det(B(l|l)) is read off the adjugate
    # route's elimination, which the sweep reuses; Lemma1 reads B^-1
    n = 6
    B = gen_general(GenSpec(n=n, seed=derive_seed(93, 0))).B
    names = ["determinant", "inverse", "adjugate_column"]
    counts = _count_calls(monkeypatch, [identities], names)
    reports = verify_all(certify_general(B))
    assert all(r.passed for r in reports)
    assert counts == {"determinant": 1, "inverse": 1, "adjugate_column": n}


def test_thm1_and_verify_all_share_one_fundamental_matrix(monkeypatch):
    n = 6
    P = gen_substochastic(GenSpec(n=n, seed=derive_seed(93, 1)))
    counts = _count_calls(
        monkeypatch, [identities, substochastic], ["determinant", "inverse"]
    )
    routes = _count_calls(monkeypatch, [identities], ["adjugate_column"])
    assert check_diagonal_maximality(P).holds
    assert all(r.passed for r in verify_all(P))
    assert {**counts, **routes} == {"determinant": 1, "inverse": 1, "adjugate_column": n}


@pytest.mark.parametrize("kind, lifts", [("general", 4), ("substochastic", 6)])
def test_each_route_lifts_its_matrix_once(monkeypatch, kind, lifts):
    # det(B), B^-1 (shared with Thm1 on I - P) and one lift per route, the
    # inverse and adjugate routes on B; on I - P, Thm2 lifts P and N = B^-1
    # once each
    if kind == "general":
        B = gen_general(GenSpec(n=6, seed=derive_seed(93, 3))).B
        run = lambda: verify_all(certify_general(B))
    else:
        P = gen_substochastic(GenSpec(n=6, seed=derive_seed(93, 4)))

        def run():
            assert check_diagonal_maximality(P).holds
            return verify_all(P)

    real = ExactScalars.lift_rows
    calls = []
    counted = staticmethod(lambda rows: calls.append(1) or real(rows))
    monkeypatch.setattr(ExactScalars, "lift_rows", counted)
    assert all(r.passed for r in run())
    assert len(calls) == lifts


def test_verify_all_n1_empty():
    assert verify_all(certify_general(mat([[3]]))) == []


def test_verify_all_aggregates_errors_without_aborting():
    # bypass certification with a float matrix whose B and B(3|3) are
    # exactly singular: those reports carry errors, the rest still evaluate
    B = DenseMatrix.from_rows(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]], FLOAT
    )
    G = GeneralMatrix(B, determinant(B))
    reports = verify_all(G)
    assert any(r.error for r in reports)
    assert len(reports) == 27


def test_float_reports_respect_tolerance_formula():
    G = certify_general(mat(TRIDIAG).to_float())
    r = reports(G, tol=1e-9)[IdentityId.EQ13, 2, None]
    assert abs(r.residual) <= 1e-9 * (1 + max(abs(r.lhs), abs(r.rhs)))
    assert r.passed


# every report's (identity, m, l, error) on GeneralMatrix(B, det) for an
# uncertified B whose B and B(3|3) are singular, pinned per backend: which
# index an error names, and its message, must not depend on how the route
# tables are evaluated
_ZERO_PIVOT = {"exact": "pivot 0 below singularity floor 0", "float": "pivot 0.0 below singularity floor {}"}
_FF_SINGULAR = "SingularSubmatrix: B(3|3) is singular: fraction-free elimination found a zero pivot column"


def _uncertified_golden(backend):
    whole = "SingularMatrix: " + _ZERO_PIVOT[backend].format("2e-13")
    gj_sub = "SingularSubmatrix: B(3|3) is singular: " + _ZERO_PIVOT[backend].format("1e-13")
    schur = "SingularSubmatrix: Schur denominator vanished at index {}"
    cleared = "SingularSubmatrix: cleared denominator vanished at index {}"
    return [
        ("Lemma1", 1, 2, whole), ("Lemma1", 1, 3, _FF_SINGULAR),
        ("Lemma1", 2, 1, whole), ("Lemma1", 2, 3, _FF_SINGULAR),
        ("Lemma1", 3, 1, whole), ("Lemma1", 3, 2, whole),
        ("Lemma2", None, 1, None), ("Lemma2", None, 2, None),
        ("Lemma2", None, 3, _FF_SINGULAR),
        ("Eq13", 1, None, schur.format(1)), ("Eq13", 2, None, schur.format(2)),
        ("Eq13", 3, None, gj_sub),
        ("Eq17", 1, None, cleared.format(1)), ("Eq17", 2, None, cleared.format(2)),
        ("Eq17", 3, None, _FF_SINGULAR),
        ("Eq20", 1, 2, schur.format(1)), ("Eq20", 1, 3, schur.format(1)),
        ("Eq20", 2, 1, schur.format(2)), ("Eq20", 2, 3, schur.format(2)),
        ("Eq20", 3, 1, gj_sub), ("Eq20", 3, 2, gj_sub),
        ("Eq21", 1, 2, _FF_SINGULAR), ("Eq21", 1, 3, None),
        ("Eq21", 2, 1, _FF_SINGULAR), ("Eq21", 2, 3, None),
        ("Eq21", 3, 1, _FF_SINGULAR), ("Eq21", 3, 2, _FF_SINGULAR),
    ]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_uncertified_input_errors_match_golden(backend):
    B = mat([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    if backend == "float":
        B = B.to_float()
    reports = verify_all(GeneralMatrix(B, determinant(B)))
    assert [(r.identity.label, r.m, r.l, r.error) for r in reports] == _uncertified_golden(backend)
    assert all(r.passed == (r.error is None) for r in reports)


# -- the integer sums against Fraction-only oracles ---------------------------

# rationals with mixed denominators, zero about a third of the time
_MIXED = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 10, 64])),
)
_POSITIVE = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3, 7, 10, 64]))
_NONNEG = st.one_of(st.just(Fraction(0)), _POSITIVE)


@st.composite
def _substochastic_rows(draw):
    """Rows of nonnegative rationals, each scaled to sum below 1."""
    n = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for _ in range(n):
        row = draw(st.lists(_NONNEG, min_size=n, max_size=n))
        slack = draw(st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 3, 10])))
        total = sum(row) + slack
        rows.append([e / total for e in row])
    return rows


_SIDED = ("Eq13", "Eq17", "Eq20", "Eq21")


@st.composite
def _dominant_rows(draw):
    """Off-diagonal entries from _MIXED, each diagonal entry of either sign
    and larger in size than the rest of its row, so that B and every B(l|l)
    are nonsingular."""
    n = draw(st.integers(min_value=2, max_value=6))
    rows = [draw(st.lists(_MIXED, min_size=n, max_size=n)) for _ in range(n)]
    for i, row in enumerate(rows):
        size = sum(abs(e) for j, e in enumerate(row) if j != i) + draw(_POSITIVE)
        row[i] = size if draw(st.booleans()) else -size
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.lists(_MIXED, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_route_minor_equals_determinant_of_deletion(rows):
    # exactly on rationals, bit for bit on doubles, zero on a singular B(l|l)
    for B in (mat(rows), mat(rows).to_float()):
        G = GeneralMatrix(B, determinant(B))
        for l in range(1, B.n_rows + 1):
            route = G.adjugate_terms.minor(l)
            direct = determinant(delete_row_col(B, l, l))
            assert route == direct and type(route) is type(direct), (l, route, direct)
            if B.backend is FLOAT:
                assert route.hex() == direct.hex()


@settings(max_examples=30, deadline=None)
@given(_dominant_rows())
def test_general_sides_equal_fraction_oracle(rows):
    B = mat(rows)
    for r in verify_all(certify_general(B)):
        if r.identity.label in _SIDED:
            assert r.passed and r.residual == 0, r
            assert (r.lhs, r.rhs) == oracle_sides(B, r.identity.label, r.m, r.l), r


@settings(max_examples=25, deadline=None)
@given(_substochastic_rows())
def test_substochastic_sides_equal_fraction_oracle(rows):
    P = validate_substochastic(mat(rows))
    n = P.n
    B = mat([[(1 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)])
    for r in verify_all(P):
        label = r.identity.label
        if label in _SIDED or label.startswith("Thm2"):
            assert r.passed and r.residual == 0, r
            M = B if label in _SIDED else P.P
            assert (r.lhs, r.rhs) == oracle_sides(M, label, r.m, r.l), r


@settings(max_examples=25, deadline=None)
@given(_substochastic_rows())
def test_deletion_quotients_are_first_passage_probabilities(rows):
    # the lemma Thm2 is read off the fundamental matrix N = (I-P)^-1 with:
    # w_k = ((I-P)(k|k))^-1 p_{.k} is column k of the hitting probabilities
    # without k, h_ik = N_ik / N_kk, and 1 - p_kk - p_{k.} w_k = 1 / N_kk
    P = mat(rows)
    n = P.n_rows
    N = laplace_inverse(mat([[(i == j) - rows[i][j] for j in range(n)] for i in range(n)]))
    h = hitting_probabilities(P)
    for k in range(1, n + 1):
        keep = [i for i in range(1, n + 1) if i != k]
        W = laplace_inverse(mat([[(i == j) - P.at(i, j) for j in keep] for i in keep]))
        w = [sum(a * P.at(j, k) for a, j in zip(row, keep)) for row in W.rows_as_lists()]
        assert w == [h[i, k] for i in keep] == [N.at(i, k) / N.at(k, k) for i in keep]
        x = sum(P.at(k, j) * wj for j, wj in zip(keep, w))
        assert 1 - P.at(k, k) - x == 1 / N.at(k, k)


@pytest.mark.parametrize("n", [8, 24])
def test_float_substochastic_sweep_passes(n):
    # Thm2's sides come from N, its reference Eq13/Eq20 from n deletion
    # solves: two independent float computations that must agree
    P = gen_substochastic(GenSpec(n=n, seed=7)).P.to_float()
    reports = verify_all(validate_substochastic(P))
    assert len(reports) == 4 * n * n
    assert [r for r in reports if not r.passed] == []


# -- float tolerance: scaled by the terms a side sums -------------------------


def test_float_cleared_sides_pass_at_n48():
    # Eq21's sides cancel terms of size |b| det(B(k|k)); a bound relative to
    # max(|lhs|, |rhs|) failed 141 of these reports
    B = gen_general(GenSpec(n=48, seed=7)).B.to_float()
    reports = verify_all(certify_general(B))
    assert len(reports) == 3 * 48 * 48
    assert [r for r in reports if not r.passed] == []


@pytest.mark.parametrize(
    "rows", [[[4, 1, 2], [1, 3, 1], [2, 1, 5]], [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]]
)
def test_float_side_off_by_a_millionth_fails(rows):
    G = certify_general(mat(rows).to_float())
    n = G.n
    sides = [G.inverse_terms.diagonal(m) for m in range(1, n + 1)]  # Eq13
    sides += [G.adjugate_terms.diagonal(m) for m in range(1, n + 1)]  # Eq17
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            if l != m:
                sides.append(G.inverse_terms.off_diagonal(l, m))  # Eq20
                sides.append(G.adjugate_terms.off_diagonal(l, m, cleared=True))  # Eq21
    for lhs, rhs, magnitude in sides:
        assert identities._report(IdentityId.EQ13, 1, None, (lhs, rhs, magnitude), FLOAT, None).passed
        off = (lhs * (1 + 1e-6), rhs, magnitude)
        assert not identities._report(IdentityId.EQ13, 1, None, off, FLOAT, None).passed


def test_cleared_denominators_checked_against_det():
    # the adjugate route's cleared den_k must equal det(B): a wrong det fails
    # every Eq17 report, and nothing else that reads the route's table
    B = mat([[2, 1, 0], [1, 2, 1], [0, 1, 3]])
    reports = verify_all(GeneralMatrix(B, determinant(B) + 1))
    errors = [(r.identity.label, r.m, r.error) for r in reports if r.error]
    assert errors == [
        ("Eq17", m, f"InvariantViolation: cleared denominator at index {m} does not equal det(B)")
        for m in (1, 2, 3)
    ]
