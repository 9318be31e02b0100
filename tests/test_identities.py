import itertools
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoch import (
    FLOAT,
    DenseMatrix,
    GeneralMatrix,
    IdentityId,
    IdentityReport,
    adjugate,
    certify_general,
    check_diagonal_maximality,
    delete_row_col,
    determinant,
    identity_minus,
    inverse,
    validate_substochastic,
    verify_all,
)
from substoch import identities, substochastic
from substoch.cli import main
from substoch.errors import SingularMatrix, SingularSubmatrix, ValidationError
from substoch.generators import GenSpec, SplitMix64, derive_seed, gen_general, gen_substochastic
from substoch.report import _identity_record
from substoch.scalars import EXACT, ExactScalars

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
    "rows, message, reads",
    [
        ([[1, 2], [2, 4]], "det(B) is zero", 0),
        # det(B) = 1, B(1|1) nonsingular, B(2|2) and B(3|3) singular: the
        # certificate stops at (B^-1)_22
        ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], "det(B(2|2)) is zero", 2),
    ],
)
def test_certify_names_the_first_vanishing_minor(monkeypatch, backend, rows, message, reads):
    # each det(B(l|l)) is read off the diagonal of B^-1, one entry per l up
    # to the first zero, with no deletion solve; a zero det(B) inverts nothing
    B = mat(rows) if backend == "exact" else mat(rows).to_float()
    names = ["inverse", "adjugate_column", "solve_column"]
    counts = _count_calls(monkeypatch, [identities], names)
    counts["at"], real_at = 0, DenseMatrix.at

    def at(M, i, j):
        counts["at"] += 1
        return real_at(M, i, j)

    monkeypatch.setattr(DenseMatrix, "at", at)
    with pytest.raises(SingularSubmatrix) as info:
        certify_general(B)
    assert str(info.value) == message
    assert counts == {"inverse": min(reads, 1), "adjugate_column": 0, "solve_column": 0, "at": reads}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_certify_fails_exactly_at_the_first_zero_minor(rows):
    # entries in {-1, 0, 1}, so B and its deletions are often singular; the
    # expected message comes from direct determinants, in the order checked.
    # Certifying makes no deletion solve.
    B = mat(rows)
    minors = [("det(B)", determinant(B))]
    minors += [(f"det(B({l}|{l}))", determinant(delete_row_col(B, l, l)))
               for l in range(1, len(rows) + 1)]
    zero = next((f"{name} is zero" for name, value in minors if value == 0), None)
    no_solve = mock.Mock(side_effect=AssertionError("deletion solve"))
    with mock.patch.object(identities, "adjugate_column", no_solve), \
            mock.patch.object(identities, "solve_column", no_solve):
        if zero is None:
            assert certify_general(B).det == minors[0][1]
        else:
            with pytest.raises(SingularSubmatrix, match=re.escape(zero) + "$"):
                certify_general(B)


def test_certify_fails_on_a_float_inverse_below_the_singularity_floor(tmp_path, capsys):
    # the 12x12 Hilbert matrix is nonsingular, with every B(l|l), but its
    # float Gauss-Jordan inverse meets a pivot below the floor
    path = tmp_path / "hilbert.csv"
    path.write_text("".join(",".join(repr(1 / (i + j + 1)) for j in range(12)) + "\n" for i in range(12)))
    assert main(["verify", str(path), "--identity", "all", "--backend", "float"]) == 2
    assert capsys.readouterr().err == (
        "error: matrix fails the nonzero-minor certificate: B is singular: "
        "pivot -5.305394396774128e-15 below singularity floor 1e-13\n"
    )


@pytest.mark.parametrize(
    "csv, l",
    [
        # B(2|2) has a zero row; (B^-1)_22 rounds to -3.17e-16 against max |B^-1| = 1.67
        ("0.6666666666666666,0.7,0.7\n0.0,0.7,0.7\n0.0,0.6,0.0\n", 2),
        # B(1|1) = [[0.5, 1.0], [0.3, 0.6]], whose float rows are proportional
        ("0.7,1.0,0.3\n0.1,0.5,1.0\n0.2,0.3,0.6\n", 1),
    ],
    ids=["B(2|2)", "B(1|1)"],
)
def test_float_certificate_counts_a_rounded_zero_minor_as_zero(tmp_path, capsys, csv, l):
    path = tmp_path / "b.csv"
    path.write_text(csv)
    assert main(["verify", str(path), "--identity", "all"]) == 2
    assert capsys.readouterr().err == (
        f"error: matrix fails the nonzero-minor certificate: det(B({l}|{l})) is zero\n"
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-10, 10), min_size=n, max_size=n), min_size=n, max_size=n),
    st.permutations(range(n)),
)))
def test_float_certificate_rejects_a_planted_zero_row(case):
    # row i of B(l|l) zeroed, so det(B(l|l)) = 0 exactly; on entries k / 10,
    # which are not dyadic, (B^-1)_ll comes out as rounding noise, not 0
    rows, (l, i, *_) = case
    rows = [[k / 10 if r != i or j == l else 0.0 for j, k in enumerate(row)]
            for r, row in enumerate(rows)]
    with pytest.raises(SingularSubmatrix):
        certify_general(DenseMatrix.from_rows(rows, FLOAT))


def test_substochastic_certificate_reads_no_inverse():
    # I - P is a nonsingular M-matrix, so its certificate is det(I - P)
    # alone, with N taken as given; a float fundamental matrix below the
    # singularity floor ends the sweep with its one named error
    P = validate_substochastic(DenseMatrix.from_rows([[0.5, 0.499999999999999], [0.5, 0.5]], FLOAT))
    with pytest.raises(SingularMatrix, match=r"below singularity floor .* in the float \(I-P\)\^-1$"):
        verify_all(P)
    B, N = identity_minus(P.P), DenseMatrix.zeros(2, 2, FLOAT)
    with mock.patch.object(identities, "determinant", wraps=determinant) as det, \
            mock.patch.object(identities, "inverse", side_effect=AssertionError("inverse")):
        G = certify_general(B, N)
    assert det.call_args_list == [mock.call(B)]
    assert G == (B, determinant(B), N) and G.inverse is N


def test_certify_n1():
    assert certify_general(mat([[5]])).det == 5
    with pytest.raises(SingularSubmatrix):
        certify_general(mat([[0]]))


# -- Schur denominator ------------------------------------------------------------


def test_schur_denominator_hand_case():
    G = certify_general(mat([[1, 2], [3, 4]]))
    den = Fraction(*identities._Terms(G.B).den(1))
    assert den == Fraction(-1, 2)
    assert den == G.det / determinant(delete_row_col(G.B, 1, 1))


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_both_routes_of_a_1x1_matrix_solve_its_0x0_deletion(backend):
    # B(1|1) is 0x0: no pivot and det 1, so den_1 = b_11 on both routes
    G = certify_general(DenseMatrix.from_rows([[2]], backend))
    inv, adj = identities._Terms(G.B), identities._Terms(G.B, cleared_det=G.det)
    for terms in (inv, adj):
        assert backend.ratio(*terms.den(1)) == 2
    # row 1 of each table: -1/den_1 in the quotients, -det(B(1|1)) cleared
    (col,), D = inv.quotients
    assert backend.ratio(col[0], D) == backend.ratio(-1, 2)
    (col,), D = adj.cleared
    assert backend.ratio(col[0], D) == -1


def test_schur_denominator_identity():
    inv = identities._Terms(certify_general(DenseMatrix.identity(4)).B)
    for l in range(1, 5):
        assert Fraction(*inv.den(l)) == 1


def test_schur_denominator_multiplicative_identity():
    for G in general_instances(8, [5], base_seed=11):
        inv = identities._Terms(G.B)
        for l in range(1, 6):
            den = Fraction(*inv.den(l))
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


def test_thm2_builds_its_tables_once_per_sweep_and_passes_on_their_error(monkeypatch):
    P = validate_substochastic(mat(P_EXAMPLE))
    built = []
    real_tables = identities._thm2_tables
    monkeypatch.setattr(identities, "_thm2_tables", lambda *a: built.append(a) or real_tables(*a))
    assert verify_all(P) == verify_all(P) and len(built) == 2
    # an N that fails ends the sweep before it starts: no table, route or
    # report is made
    def no_inverse(P):
        raise SingularMatrix("N failed")

    monkeypatch.setattr(identities, "fundamental_matrix", no_inverse)
    monkeypatch.setattr(identities, "_Terms", mock.Mock(side_effect=AssertionError("route")))
    monkeypatch.setattr(identities, "IdentityReport", mock.Mock(side_effect=AssertionError("report")))
    with pytest.raises(SingularMatrix, match="^N failed$"):
        verify_all(validate_substochastic(mat(P_EXAMPLE)))
    assert len(built) == 2


@pytest.mark.parametrize("side", [0, 1])
def test_thm2_fails_when_one_side_disagrees_with_its_reference(monkeypatch, side):
    # a planted wrong Eq20 side at (m, l) = (2, 1): that check fails, and
    # Thm2Second there, whose other side still agrees, raises
    real = identities._Terms.off_diagonal

    def planted(self, l, m, cleared=False):
        sides = list(real(self, l, m, cleared))
        if (l, m) == (1, 2) and not cleared:
            sides[side] = (sides[side][0] + 1, sides[side][1])
        return tuple(sides)

    monkeypatch.setattr(identities._Terms, "off_diagonal", planted)
    found = reports(validate_substochastic(mat(P_EXAMPLE)))
    assert [key for key, r in found.items() if not r.passed] == [
        (IdentityId.EQ20, 2, 1), (IdentityId.THM2_SECOND, 2, 1)
    ]
    ref = ["Fraction(1, 1), Fraction(2, 3)", "Fraction(2, 3), Fraction(1, 1)"][side]
    assert found[IdentityId.THM2_SECOND, 2, 1].error == (
        "InvariantViolation: Thm2Second disagrees with its I-P specialization: "
        f"(Fraction(2, 3), Fraction(2, 3)) vs ({ref})"
    )


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
    # reports come out in (identity, m, l) order as the sweep makes them: on
    # a general instance, a substochastic one (its Thm2 rows last) and an
    # input given a wrong det(B), whose Eq17 reports are errors
    B = mat(TRIDIAG)
    for obj, last in (
        (certify_general(B), IdentityId.EQ21),
        (gen_substochastic(GenSpec(n=4, seed=7)), IdentityId.THM2_SECOND),
        (GeneralMatrix(B, determinant(B) + 1, inverse(B)), IdentityId.EQ21),
    ):
        reports = verify_all(obj)
        keys = [(int(r.identity), r.m or 0, r.l or 0) for r in reports]
        assert keys == sorted(keys) and reports[-1].identity is last
        assert [(int(r.identity), r.m or 0, r.l or 0) for r in verify_all(obj)] == keys


def test_reports_of_two_sweeps_of_one_matrix_are_equal():
    # a passing report builds lhs, rhs and residual on first read; equality
    # and hash read them like the other fields.  The input given a wrong
    # det(B) has Eq17 reports that are errors, which hold no values
    B = mat(TRIDIAG)
    for make in (
        lambda: gen_substochastic(GenSpec(n=4, seed=derive_seed(95, 0))),
        lambda: GeneralMatrix(B, determinant(B) + 1, inverse(B)),
    ):
        first, second = (verify_all(make()) for _ in range(2))
        assert first == second
        assert [hash(r) for r in first] == [hash(r) for r in second]
        assert len(set(first) | set(second)) == len(first)
        for r in first:
            if r.error is not None:
                assert (r.lhs, r.rhs, r.residual, r.passed) == (None, None, None, False)
    assert any(r.error for r in first)


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
    # the certificate's det(B) and B^-1, whose diagonal gives each
    # det(B(l|l)) and which Lemma1 reads again; n solves on the adjugate route
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


M_MATRIX_JSON = '{"n": 3, "entries": [[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]]}'


@pytest.mark.parametrize("kind", ["general", "substochastic", "check"])
def test_each_route_lifts_its_matrix_once(monkeypatch, tmp_path, kind):
    # a matrix is lifted on first use and keeps its lift, and I - P is
    # lifted from P's: a fresh B is lifted by det(B), and B^-1 and both
    # routes read that lift; a generated P was lifted when it was
    # validated, so Thm1 and the sweep on I - P lift only N = (I - P)^-1,
    # for Thm2; check lifts P once, in validate, whose reachability test
    # and det(I - P^T) read that lift
    if kind == "general":
        B = gen_general(GenSpec(n=6, seed=derive_seed(93, 3))).B
        B = DenseMatrix(B.n_rows, B.n_cols, B.entries)  # a copy not yet lifted
        run = lambda: all(r.passed for r in verify_all(certify_general(B)))
    elif kind == "substochastic":
        P = gen_substochastic(GenSpec(n=6, seed=derive_seed(93, 4)))
        run = lambda: check_diagonal_maximality(P).holds and all(r.passed for r in verify_all(P))
    else:
        path = tmp_path / "p.json"
        path.write_text(M_MATRIX_JSON)
        run = lambda: main(["check", str(path)]) == 0

    real = ExactScalars.lift_rows
    calls = []
    counted = staticmethod(lambda rows: calls.append(1) or real(rows))
    monkeypatch.setattr(ExactScalars, "lift_rows", counted)
    assert run()
    assert len(calls) == 1


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_kernels_leave_the_shared_lift_intact(backend):
    # the kernels write into and exchange the rows they eliminate; a matrix
    # hands out copies of its lift, so a second call on it, which reads the
    # kept lift, agrees with a call on a fresh copy, which lifts anew
    B = gen_general(GenSpec(n=5, seed=derive_seed(93, 5))).B
    if backend == "float":
        B = B.to_float()
    fresh = lambda: DenseMatrix(B.n_rows, B.n_cols, B.entries, B.backend)
    sweep = lambda M: verify_all(certify_general(M))
    for f in (determinant, adjugate, inverse, sweep):
        expected = f(fresh())
        assert f(B) == expected
        assert f(B) == expected


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: verify_all(object()), TypeError("verify_all expects a GeneralMatrix or SubstochasticMatrix")),
        (lambda: repr(IdentityReport(IdentityId.EQ20, 1, 2, ((1, 2), (2, 4), None), EXACT)),
         "IdentityReport(identity=<IdentityId.EQ20: 5>, m=1, l=2, lhs=Fraction(1, 2), "
         "rhs=Fraction(1, 2), residual=Fraction(0, 1), passed=True, backend='exact', error=None)"),
    ],
    ids=["verify_all of an object", "report repr"],
)
def test_identities_guards_and_repr(call, expected):
    if isinstance(expected, str):
        assert call() == expected
        return
    with pytest.raises(type(expected)) as info:
        call()
    assert str(info.value) == str(expected)


def test_verify_all_n1_empty():
    assert verify_all(certify_general(mat([[3]]))) == []


def test_verify_all_raises_the_error_of_a_route_that_fails(monkeypatch):
    # bypass certification with a float matrix whose B and B(3|3) are
    # exactly singular: the inverse route fails at index 1, so the sweep
    # raises before any report is made
    B = DenseMatrix.from_rows(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]], FLOAT
    )
    G = GeneralMatrix(B, determinant(B), DenseMatrix.zeros(3, 3, FLOAT))
    monkeypatch.setattr(identities, "IdentityReport", mock.Mock(side_effect=AssertionError("report")))
    with pytest.raises(SingularSubmatrix, match=r"^Schur denominator vanished at index 1$"):
        verify_all(G)


def test_float_reports_respect_tolerance_formula():
    G = certify_general(mat(TRIDIAG).to_float())
    r = reports(G, tol=1e-9)[IdentityId.EQ13, 2, None]
    assert abs(r.residual) <= 1e-9 * (1 + max(abs(r.lhs), abs(r.rhs)))
    assert r.passed


# the one error that verify_all raises on GeneralMatrix(B, det, 0), a zero
# stand-in for B^-1, for an uncertified B whose B and B(3|3) are singular,
# and the error of each route on B and on B with rows and columns reversed,
# whose B(1|1) is singular, pinned per backend: a route raises the error of
# the least index whose solve or denominator fails
_ZERO_PIVOT = {"exact": "pivot 0 below singularity floor 0", "float": "pivot 0.0 below singularity floor 1e-13"}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_uncertified_input_errors_match_golden(backend):
    rows = [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    B, reversed_B = mat(rows), mat([row[::-1] for row in rows[::-1]])
    if backend == "float":
        B, reversed_B = B.to_float(), reversed_B.to_float()
    with pytest.raises(SingularSubmatrix) as info:
        verify_all(GeneralMatrix(B, determinant(B), DenseMatrix.zeros(3, 3, B.backend)))
    assert str(info.value) == "Schur denominator vanished at index 1"
    errors = []
    for M in (B, reversed_B):
        for cleared_det in (None, determinant(M)):
            with pytest.raises(SingularSubmatrix) as info:
                identities._Terms(M, cleared_det)
            errors.append(str(info.value))
    assert errors == [
        "Schur denominator vanished at index 1",
        "cleared denominator vanished at index 1",
        "B(1|1) is singular: " + _ZERO_PIVOT[backend],
        "B(1|1) is singular: fraction-free elimination found a zero pivot column",
    ]


# -- route dependencies: one source perturbed at a time -----------------------

_ROUTE_N = 4


def _solves(route, skip=()):
    return {(route, k) for k in range(1, _ROUTE_N + 1) if k not in skip}


# The sources a check reads at key (m, l): "det" is G.det, "N" is G.inverse
# (the fundamental matrix on substochastic input), (route, k) is deletion k's
# solve on the inverse ("inv") or adjugate ("adj") route.  Each row gives
# what the lhs reads, what the rhs reads, and what is checked before either.
# Within a route the lhs reads deletion m and the rhs the other deletions;
# Lemma1 (adjugate route vs N), Lemma2 (adjugate route vs det) and Thm2 (N
# vs the inverse route's Eq13/Eq20 sides at the same key) cross routes.
_READS = {
    "Lemma1": lambda m, l: ({("adj", l)}, {"det", "N"}, set()),
    "Lemma2": lambda m, l: ({("adj", l)}, {"det"}, set()),
    "Eq13": lambda m, l: ({("inv", m)}, _solves("inv", skip=[m]), set()),
    # every cleared denominator is checked against det(B) before division
    "Eq17": lambda m, l: ({("adj", m)}, _solves("adj", skip=[m]), {"det", *_solves("adj")}),
    "Eq20": lambda m, l: ({("inv", m)}, _solves("inv", skip=[m]), set()),
    "Eq21": lambda m, l: ({("adj", m)}, _solves("adj", skip=[m]), set()),
    "Thm2First": lambda m, l: ({"N"}, _solves("inv"), set()),
    "Thm2Second": lambda m, l: ({"N"}, _solves("inv"), set()),
}
_SOURCES = ["det", "N", *sorted(_solves("inv") | _solves("adj"))]


def _perturb(monkeypatch, source):
    """Add 1 to the numerator of each value `source` returns, at the call
    sites the sweep reads it from; the k-th call of a route's kernel is its
    deletion k.  Returns the kernel calls by route."""
    bump = lambda v: Fraction(v.numerator + 1, v.denominator)
    calls = {"inv": 0, "adj": 0}
    real = {name: getattr(identities, name) for name in
            ("determinant", "inverse", "fundamental_matrix", "solve_column", "adjugate_column")}

    def determinant(B):
        det = real["determinant"](B)
        return bump(det) if source == "det" else det

    def inverted(name):
        def inverse(M):
            N = real[name](M)
            return mat([[bump(v) for v in row] for row in N.rows_as_lists()]) if source == "N" else N
        return inverse

    def solve_column(rows, backend):
        calls["inv"] += 1
        V, D = real["solve_column"](rows, backend)
        return ([v + 1 for v in V], D) if source == ("inv", calls["inv"]) else (V, D)

    def adjugate_column(rows, scales, backend):
        calls["adj"] += 1
        V, D, t = real["adjugate_column"](rows, scales, backend)
        return ([v + 1 for v in V], D, t + 1) if source == ("adj", calls["adj"]) else (V, D, t)

    monkeypatch.setattr(identities, "determinant", determinant)
    monkeypatch.setattr(identities, "inverse", inverted("inverse"))
    monkeypatch.setattr(identities, "fundamental_matrix", inverted("fundamental_matrix"))
    monkeypatch.setattr(identities, "solve_column", solve_column)
    monkeypatch.setattr(identities, "adjugate_column", adjugate_column)
    return calls


def test_route_table_compares_disjoint_sources():
    for identity, reads in _READS.items():
        for m, l in itertools.product(range(1, _ROUTE_N + 1), repeat=2):
            lhs, rhs, _ = reads(m, l)
            assert lhs and rhs and not lhs & rhs, (identity, m, l)


@pytest.mark.parametrize("kind", ["general", "substochastic"])
@pytest.mark.parametrize("source", _SOURCES, ids=str)
def test_each_source_fails_exactly_the_checks_that_read_it(monkeypatch, kind, source):
    spec = GenSpec(n=_ROUTE_N, seed=7)
    obj = gen_general(spec).B if kind == "general" else gen_substochastic(spec)
    with monkeypatch.context() as patch:
        calls = _perturb(patch, source)
        # certified under the perturbation, so every source is computed afresh
        swept = verify_all(certify_general(obj) if kind == "general" else obj)
    assert calls == {"inv": _ROUTE_N, "adj": _ROUTE_N}
    failed = {(r.identity.label, r.m, r.l) for r in swept if not r.passed}
    predicted = {
        (r.identity.label, r.m, r.l) for r in swept
        if source in set().union(*_READS[r.identity.label](r.m, r.l))
    }
    assert failed == predicted
    assert failed


# -- the integer sums against Fraction-only oracles ---------------------------

# rationals with mixed denominators, zero about a third of the time
_MIXED = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 10, 64])),
)
_POSITIVE = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3, 7, 10, 64]))
_NONNEG = st.one_of(st.just(Fraction(0)), _POSITIVE)


@st.composite
def _substochastic_rows(draw, max_n=6):
    """Rows of nonnegative rationals, each scaled to sum below 1."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rows = []
    for _ in range(n):
        row = draw(st.lists(_NONNEG, min_size=n, max_size=n))
        slack = draw(st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 3, 10])))
        total = sum(row) + slack
        rows.append([e / total for e in row])
    return rows


_SIDED = ("Eq13", "Eq17", "Eq20", "Eq21")


@st.composite
def _dominant_rows(draw, max_n=6):
    """Off-diagonal entries from _MIXED, each diagonal entry of either sign
    and larger in size than the rest of its row, so that B and every B(l|l)
    are nonsingular."""
    n = draw(st.integers(min_value=2, max_value=max_n))
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
    # exactly on rationals, bit for bit on doubles, for every index the
    # cleared route solves before it builds or raises; the index that it
    # names has a singular B(l|l) or a zero denominator
    real = identities.adjugate_column
    for B in (mat(rows), mat(rows).to_float()):
        minors = []  # t / D of each deletion solved, in index order

        def recorded(rows, scales, backend):
            V, D, t = real(rows, scales, backend)
            minors.append(backend.ratio(t, D))
            return V, D, t

        with mock.patch.object(identities, "adjugate_column", recorded):
            try:
                identities._Terms(B, cleared_det=determinant(B))
                error = None
            except SingularSubmatrix as exc:
                error = str(exc)
        for l, route in enumerate(minors, 1):
            direct = determinant(delete_row_col(B, l, l))
            assert route == direct and type(route) is type(direct), (l, route, direct)
            if B.backend is FLOAT:
                assert route.hex() == direct.hex()
        k = len(minors)
        if error is None:
            assert k == B.n_rows
        elif error == f"cleared denominator vanished at index {k}":
            assert B.backend is FLOAT or determinant(B) == 0
        else:
            assert error.startswith(f"B({k + 1}|{k + 1}) is singular: ")
            assert determinant(delete_row_col(B, k + 1, k + 1)) == 0


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


def _fraction_verdict(sides, backend, tol):
    """The verdict on sides (lhs, rhs, magnitude) from their values: on the
    exact backend a Fraction residual of zero, on the float backend the
    residual within tol of the terms' sum."""
    (a, b), (c, d), magnitude = sides
    if backend.name == "exact":
        return Fraction(a, b) - Fraction(c, d) == 0
    scale = lambda: magnitude() if magnitude else abs(a / b) + abs(c / d)
    return FLOAT.sides_pass((a / b - c / d, 1.0), (0.0, 1.0), scale, tol)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(_dominant_rows(max_n=5), _substochastic_rows(max_n=5)),
    st.booleans(),
    st.integers(-1, 1),
)
def test_verdicts_equal_fraction_residual_verdicts(rows, on_float, bump):
    # every deletion solve of the inverse route has bump added to its first
    # numerator, so with bump != 0 some checks fail; each verdict, decided on
    # the sides' integers, equals the one their values give
    M = mat(rows).to_float() if on_float else mat(rows)
    try:
        obj = validate_substochastic(M)
    except ValidationError:
        obj = certify_general(M)
    real_solve, real_init = identities.solve_column, IdentityReport.__init__
    expected = {}

    def planted(rows, backend):
        V, D = real_solve(rows, backend)
        return [V[0] + bump, *V[1:]], D

    def init(self, identity, m, l, outcome, backend, tol):
        if isinstance(outcome, tuple):  # sides; an error fails the check
            expected[identity, m, l] = _fraction_verdict(outcome, backend, tol)
        real_init(self, identity, m, l, outcome, backend, tol)

    with mock.patch.object(identities, "solve_column", planted), \
            mock.patch.object(IdentityReport, "__init__", init):
        found = verify_all(obj)
    assert found
    for r in found:
        key = (r.identity, r.m, r.l)
        assert r.passed == (r.error is None and expected[key]), r
        if r.error is None and not on_float:
            assert (type(r.lhs), type(r.rhs)) == (Fraction, Fraction)
            assert r.residual == r.lhs - r.rhs
    if bump == 0 and not on_float:
        assert all(r.passed for r in found)


def test_sides_render_in_lowest_terms():
    # a side's denominator may be negative (a Schur denominator is); its
    # value keeps the sign on the numerator
    report = IdentityReport(IdentityId.EQ13, 1, None, ((6, -4), (1, 2), None), EXACT)
    assert not report.passed
    assert (report.lhs, report.rhs, report.residual) == (Fraction(-3, 2), Fraction(1, 2), -2)
    assert _identity_record(report, EXACT) == {
        "type": "identity", "id": "Eq13", "m": 1, "l": None,
        "lhs": "-3/2", "rhs": "1/2", "residual": -2, "passed": False, "error": None,
    }
    report = IdentityReport(IdentityId.EQ20, 1, 2, ((3, -6), (-2, 4), None), EXACT)
    assert report.passed
    assert _identity_record(report, EXACT)["residual"] == 0


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
    inv, adj = identities._Terms(G.B), identities._Terms(G.B, cleared_det=G.det)
    sides = [inv.diagonal(m) for m in range(1, n + 1)]  # Eq13
    sides += [adj.diagonal(m) for m in range(1, n + 1)]  # Eq17
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            if l != m:
                sides.append(inv.off_diagonal(l, m))  # Eq20
                sides.append(adj.off_diagonal(l, m, cleared=True))  # Eq21
    for lhs, rhs, magnitude in sides:
        assert IdentityReport(IdentityId.EQ13, 1, None, (lhs, rhs, magnitude), FLOAT).passed
        off = ((lhs[0] * (1 + 1e-6), lhs[1]), rhs, magnitude)
        assert not IdentityReport(IdentityId.EQ13, 1, None, off, FLOAT).passed


def test_cleared_denominators_checked_against_det():
    # the adjugate route's cleared den_k must equal det(B): a wrong det fails
    # every Eq17 report, and nothing else that reads the route's table
    B = mat([[2, 1, 0], [1, 2, 1], [0, 1, 3]])
    reports = verify_all(GeneralMatrix(B, determinant(B) + 1, inverse(B)))
    errors = [(r.identity.label, r.m, r.error) for r in reports if r.error]
    assert errors == [
        ("Eq17", m, f"InvariantViolation: cleared denominator at index {m} does not equal det(B)")
        for m in (1, 2, 3)
    ]


def _verdicts(G):
    return [(r.identity, r.m, r.l, r.passed) for r in verify_all(G)]


def test_exhaustive_3x3_grids_exact_and_float():
    # every 3x3 matrix with entries in {-1, 0, 1}: the ones that certify pass
    # every exact check, and each float verdict matches its exact one
    certified = 0
    for cells in itertools.product((-1, 0, 1), repeat=9):
        B = mat([cells[0:3], cells[3:6], cells[6:9]])
        try:
            G = certify_general(B)
        except SingularSubmatrix:
            continue
        certified += 1
        exact = _verdicts(G)
        assert all(passed for *_key, passed in exact), B
        assert _verdicts(certify_general(B.to_float())) == exact, B
    assert certified == 4344
    # every 3x3 matrix whose rows have entries in {0, 1/2, 1} and sum to at
    # most 1: the substochastic ones pass Thm1 and every check, on both backends
    half = Fraction(1, 2)
    rows = [r for r in itertools.product((0, half, 1), repeat=3) if sum(r) <= 1]
    certified = 0
    for grid in itertools.product(rows, repeat=3):
        M = mat(grid)
        try:
            P = validate_substochastic(M)
        except ValidationError:
            continue
        certified += 1
        exact = _verdicts(P)
        assert check_diagonal_maximality(P).holds and all(passed for *_key, passed in exact), M
        Pf = validate_substochastic(M.to_float())
        assert check_diagonal_maximality(Pf).holds and _verdicts(Pf) == exact, M
    assert (len(rows), certified) == (10, 556)
