"""Both-sides evaluation of the minor/adjugate/Schur-quotient identities.

Every identity is evaluated by two independent code paths (the left side is
never derived from the right side): quotient forms go through Gauss-Jordan
solves, cleared forms through fraction-free adjugate products and
determinants, and the substochastic forms through solves built by deleting
from P.  Each of these three routes fills its own per-index table once, with
one solve per index, and every identity side is an O(n) sum over one table.
Lemma1 checks the fraction-free kernel (left) against one Gauss-Jordan
inverse per sweep (right, -det(B) (B^-1)_ml), so a sweep takes n+1
determinants; on substochastic input B^-1 is the fundamental matrix (I-P)^-1,
inverted once and shared with Thm1.
On the exact backend a report passes iff its residual is literally zero; on
the float backend iff |residual| <= tol*(1+max(|lhs|,|rhs|)).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass
from typing import Optional

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MatrixTooSmall,
    SelectorUndefined,
    SingularMatrix,
    SingularSubmatrix,
    SubstochError,
)
from .matrix import (
    DenseMatrix,
    adjugate_times,
    col_without,
    delete_row_col,
    determinant,
    inverse,
    row_without,
    solve,
)
from .substochastic import SubstochasticMatrix, fundamental_matrix, identity_minus


class IdentityId(enum.IntEnum):
    LEMMA1 = 1
    LEMMA2 = 2
    EQ13 = 3
    EQ17 = 4
    EQ20 = 5
    EQ21 = 6
    THM2_FIRST = 7
    THM2_SECOND = 8

    @property
    def label(self) -> str:
        """Lemma1, Eq13, Thm2First, ...: the name in CamelCase."""
        return "".join(part.capitalize() for part in self.name.split("_"))


@dataclass(frozen=True)
class IdentityReport:
    """One identity instance: both sides, their difference, pass/fail."""

    identity: IdentityId
    m: Optional[int]
    l: Optional[int]
    lhs: object
    rhs: object
    residual: object
    passed: bool
    backend: str
    error: Optional[str] = None

    def sort_key(self):
        return (int(self.identity), self.m or 0, self.l or 0)


def _report(identity, m, l, lhs, rhs, backend, tol) -> IdentityReport:
    residual = lhs - rhs
    return IdentityReport(
        identity, m, l, lhs, rhs, residual,
        backend.residual_ok(lhs, rhs, residual, tol), backend.name,
    )


def _error_report(identity, m, l, backend, exc) -> IdentityReport:
    return IdentityReport(
        identity, m, l, None, None, None, False, backend.name,
        error=f"{type(exc).__name__}: {exc}",
    )


class _Terms:
    """One evaluation route's per-index quotient terms, filled on first use.

    Entry k is (w_k, x_k, den_k): w_k = solver(M(k|k), c_k), x_k = r_k . w_k
    and den_k = d_k - x_k, where r_k and c_k are row and column k of M
    without their k-th entry, the solver applies the route's inverse or
    adjugate of the k-deleted matrix to c_k without forming it, and d_k =
    lead(k).  M also supplies the expansion coefficients.  `den` checks a
    denominator before anything divides by it; `cleared_det`, when given, is
    the value every exact den_k must equal.  The quotients w_k / den_k are
    divided out once per index, however many sums read them.
    """

    def __init__(self, M: DenseMatrix, solver, lead, what: str, cleared_det=None):
        self.M = M
        self.n = M.n_rows
        self.backend = M.backend
        self._solver = solver
        self._lead = lead
        self._what = what
        self._cleared_det = cleared_det
        self._entries: dict[int, tuple] = {}
        self._quotients: dict[int, tuple] = {}

    def __getitem__(self, k: int) -> tuple:
        if k not in self._entries:
            try:
                w = self._solver(
                    delete_row_col(self.M, k, k), col_without(self.M, k).entries
                )
            except SingularMatrix as exc:
                raise SingularSubmatrix(f"B({k}|{k}) is singular: {exc}") from exc
            x = row_without(self.M, k).dot(w)
            self._entries[k] = (w, x, self._lead(k) - x)
        return self._entries[k]

    def pick(self, k: int, i: int):
        """The entry of w_k at original index i (what selector f_ik picks)."""
        return self[k][0][i - 1 if i < k else i - 2]

    def den(self, k: int):
        den = self[k][2]
        if (
            self._cleared_det is not None
            and self.backend.name == "exact"
            and den != self._cleared_det
        ):
            raise InvariantViolation(
                f"cleared denominator at index {k} does not equal det(B)"
            )
        if den == 0:
            raise SingularSubmatrix(f"{self._what} denominator vanished at index {k}")
        return den

    def term(self, coef, k: int, i: int, cleared: bool = False):
        """coef * w_k[i] / den_k; cleared forms are multiplied through by
        det(B) and divide by nothing."""
        if cleared:
            return coef * self.pick(k, i)
        if k not in self._quotients:
            den = self.den(k)
            self._quotients[k] = tuple(w / den for w in self[k][0])
        return coef * self._quotients[k][i - 1 if i < k else i - 2]


class GeneralMatrix:
    """A square matrix certified to have the nonzero minors that the
    quotient identities divide by: det(B) and every det(B(l|l)).

    Caches B^-1, the per-index determinants and the quotient-term tables of
    the inverse and adjugate routes that the identity sweeps reuse;
    construct via certify_general.  `of` is a certified P with B = I - P,
    whose fundamental matrix is then B^-1.
    """

    def __init__(self, B: DenseMatrix, det, of: Optional[SubstochasticMatrix] = None):
        self.B = B
        self.det = det
        self._of = of
        self._det_sub: dict[int, object] = {}

    @property
    def n(self) -> int:
        return self.B.n_rows

    @property
    def backend(self):
        return self.B.backend

    def det_sub(self, l: int):
        if l not in self._det_sub:
            self._det_sub[l] = determinant(delete_row_col(self.B, l, l))
        return self._det_sub[l]

    @functools.cached_property
    def inverse(self) -> DenseMatrix:
        """B^-1 by one Gauss-Jordan, shared with Thm1 when B = I - P."""
        return inverse(self.B) if self._of is None else fundamental_matrix(self._of)

    @functools.cached_property
    def inverse_terms(self) -> _Terms:
        """Inverse route: w_k = B(k|k)^-1 b_{.k}, den_k the Schur denominator."""
        return _Terms(self.B, solve, lambda k: self.B.at(k, k), "Schur")

    @functools.cached_property
    def adjugate_terms(self) -> _Terms:
        """Adjugate route: w_k = adj(B(k|k)) b_{.k}, den_k the cleared
        denominator b_kk det(B(k|k)) - x_k, which must equal det(B)."""
        return _Terms(
            self.B, adjugate_times, lambda k: self.B.at(k, k) * self.det_sub(k),
            "cleared", self.det,
        )


def _deletion_terms(P: SubstochasticMatrix) -> _Terms:
    """p-notation route: w_k = ((I-P)(k|k))^-1 p_{.k}, with I - P(k|k) built
    by deleting from P directly, so it never touches the B = I-P path."""
    p = P.P
    one = p.backend.one
    return _Terms(
        p, lambda sub, c: solve(identity_minus(sub), c), lambda k: one - p.at(k, k),
        "substochastic quotient",
    )


def certify_general(B: DenseMatrix, of: Optional[SubstochasticMatrix] = None) -> GeneralMatrix:
    """Check the nonzero-minor hypotheses the identities divide by, det(B)
    and det(B(l|l)) for every l, and wrap B (which is I - P when `of` is P)."""
    n = B.require_square()
    det = determinant(B)
    if det == 0:
        raise SingularSubmatrix("det(B) is zero")
    G = GeneralMatrix(B, det, of)
    for l in range(1, n + 1) if n >= 2 else ():
        if G.det_sub(l) == 0:
            raise SingularSubmatrix(f"det(B({l}|{l})) is zero")
    return G


def _check_indices(n: int, m: int, l: Optional[int] = None) -> None:
    """n >= 2, every index in 1..n, and m != l when a selector f_ml is used."""
    if n < 2:
        raise MatrixTooSmall("need n >= 2")
    for i in (m, l):
        if i is not None and not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    if m == l:
        raise SelectorUndefined(f"selector undefined for m == l == {m}")


def _diagonal(t: _Terms, m: int):
    """lhs x_m / den_m; rhs sum over l != m of M_lm w_l[m] / den_l."""
    lhs = t[m][1] / t.den(m)
    rhs = t.backend.zero
    for l in range(1, t.n + 1):
        if l != m:
            rhs = rhs + t.term(t.M.at(l, m), l, m)
    return lhs, rhs


def _off_diagonal(t: _Terms, l: int, m: int, coef_m, coef_l, det_l=None):
    """lhs coef_m w_m[l] / den_m; rhs coef_l / den_l plus the sum over
    k != l, m of M_km w_k[l] / den_k.  Given det_l = det(B(l|l)), the form
    cleared by det(B): no division, and the lead term is coef_l det_l."""
    cleared = det_l is not None
    lhs = t.term(coef_m, m, l, cleared)
    rhs = coef_l * det_l if cleared else coef_l / t.den(l)
    for k in range(1, t.n + 1):
        if k != l and k != m:
            rhs = rhs + t.term(t.M.at(k, m), k, l, cleared)
    return lhs, rhs


def schur_denominator(B: GeneralMatrix, l: int):
    """b_ll - b_{l.} (B(l|l))^-1 b_{.l}; equals det(B)/det(B(l|l))."""
    _check_indices(B.n, l)
    den = B.inverse_terms[l][2]
    if B.backend.name == "exact" and den * B.det_sub(l) != B.det:
        raise InvariantViolation(
            f"Schur denominator at l={l} does not satisfy den*det(B(l|l)) == det(B)"
        )
    return den


def lemma1_sides(B: GeneralMatrix, m: int, l: int, tol=None) -> IdentityReport:
    """f_ml adj(B(l|l)) b_{.l}  vs  (-1)^(m+l+1) det(B(l|m)), which is
    -det(B) (B^-1)_ml because adj(B) = det(B) B^-1."""
    _check_indices(B.n, m, l)
    lhs = B.adjugate_terms.pick(l, m)
    rhs = -B.det * B.inverse.at(m, l)
    return _report(IdentityId.LEMMA1, m, l, lhs, rhs, B.backend, tol)


def lemma2_sides(B: GeneralMatrix, l: int, tol=None) -> IdentityReport:
    """b_ll det(B(l|l)) - b_{l.} adj(B(l|l)) b_{.l}  vs  det(B)."""
    _check_indices(B.n, l)
    lhs = B.adjugate_terms[l][2]
    return _report(IdentityId.LEMMA2, None, l, lhs, B.det, B.backend, tol)


def eq13_sides(B: GeneralMatrix, m: int, tol=None) -> IdentityReport:
    """Diagonal Schur-quotient expansion, inverse route.

    lhs: b_{m.}(B(m|m))^-1 b_{.m} / (b_mm - b_{m.}(B(m|m))^-1 b_{.m})
    rhs: sum over l != m of b_lm f_ml (B(l|l))^-1 b_{.l} / (b_ll - ...).
    """
    _check_indices(B.n, m)
    lhs, rhs = _diagonal(B.inverse_terms, m)
    return _report(IdentityId.EQ13, m, None, lhs, rhs, B.backend, tol)


def eq17_residual(B: GeneralMatrix, m: int, tol=None) -> IdentityReport:
    """Adjugate-cleared form of the diagonal expansion (no inverses)."""
    _check_indices(B.n, m)
    lhs, rhs = _diagonal(B.adjugate_terms, m)
    return _report(IdentityId.EQ17, m, None, lhs, rhs, B.backend, tol)


def eq20_sides(B: GeneralMatrix, l: int, m: int, tol=None) -> IdentityReport:
    """Off-diagonal Schur-quotient expansion, inverse route.

    lhs: -b_mm f_lm (B(m|m))^-1 b_{.m} / (b_mm - b_{m.}(B(m|m))^-1 b_{.m})
    rhs: -b_lm / (b_ll - ...) + sum over k != l,m of the k-th quotient.
    """
    _check_indices(B.n, l, m)
    M = B.B
    lhs, rhs = _off_diagonal(B.inverse_terms, l, m, -M.at(m, m), -M.at(l, m))
    return _report(IdentityId.EQ20, m, l, lhs, rhs, B.backend, tol)


def eq21_residual(B: GeneralMatrix, l: int, m: int, tol=None) -> IdentityReport:
    """Adjugate-cleared form of the off-diagonal expansion.

    lhs: -b_mm f_lm adj(B(m|m)) b_{.m}
    rhs: -b_lm det(B(l|l)) + sum over k != l,m of b_km f_lk adj(B(k|k)) b_{.k}.
    """
    _check_indices(B.n, l, m)
    M = B.B
    lhs, rhs = _off_diagonal(
        B.adjugate_terms, l, m, -M.at(m, m), -M.at(l, m), B.det_sub(l)
    )
    return _report(IdentityId.EQ21, m, l, lhs, rhs, B.backend, tol)


def _thm2_second_sides(t: _Terms, l: int, m: int):
    p = t.M
    return _off_diagonal(t, l, m, p.backend.one - p.at(m, m), p.at(l, m))


def _specialized(identity, m, l, sides, ref: IdentityReport, backend, tol) -> IdentityReport:
    """The Thm2 report, after checking its sides against ref, the Eq13/Eq20
    report at B = I - P (the substitution b_mm = 1 - p_mm, b_km = -p_km is
    exact, so both sides must agree).  A reference error is passed on."""
    if ref.error:
        return dataclasses.replace(ref, identity=identity)
    lhs, rhs = sides
    if not (backend.eq(lhs, ref.lhs, tol) and backend.eq(rhs, ref.rhs, tol)):
        raise InvariantViolation(
            f"{identity.label} disagrees with its I-P specialization: "
            f"({lhs!r}, {rhs!r}) vs ({ref.lhs!r}, {ref.rhs!r})"
        )
    return _report(identity, m, l, lhs, rhs, backend, tol)


def thm2_first(P: SubstochasticMatrix, m: int, tol=None) -> IdentityReport:
    """First substochastic identity, written directly in p-notation.

    lhs: p_{m.}((I-P)(m|m))^-1 p_{.m} / (1 - p_mm - ...)
    rhs: sum over k != m of p_km f_mk ((I-P)(k|k))^-1 p_{.k} / (1 - p_kk - ...).

    Also cross-checked against eq13_sides at B = I - P.
    """
    _check_indices(P.n, m)
    sides = _diagonal(_deletion_terms(P), m)
    ref = eq13_sides(certify_general(identity_minus(P.P)), m, tol)
    return _specialized(IdentityId.THM2_FIRST, m, None, sides, ref, P.P.backend, tol)


def thm2_second(P: SubstochasticMatrix, l: int, m: int, tol=None) -> IdentityReport:
    """Second substochastic identity, written directly in p-notation.

    lhs: (1-p_mm) f_lm ((I-P)(m|m))^-1 p_{.m} / (1 - p_mm - ...)
    rhs: p_lm / (1 - p_ll - ...) + sum over k != l,m of the k-th quotient.

    Cross-checked against eq20_sides at B = I - P.
    """
    _check_indices(P.n, l, m)
    sides = _thm2_second_sides(_deletion_terms(P), l, m)
    ref = eq20_sides(certify_general(identity_minus(P.P)), l, m, tol)
    return _specialized(IdentityId.THM2_SECOND, m, l, sides, ref, P.P.backend, tol)


def verify_all(obj, tol=None) -> list[IdentityReport]:
    """Every applicable identity over every valid index combination.

    GeneralMatrix input runs the six general identities.  Substochastic
    input additionally runs both Thm2 identities and evaluates the general
    identities on B = I - P.  Errors are folded into failed reports rather
    than aborting the sweep; ordering is (identity, m, l).
    """
    if isinstance(obj, GeneralMatrix):
        G, P = obj, None
    elif isinstance(obj, SubstochasticMatrix):
        G, P = certify_general(identity_minus(obj.P), obj), obj
    else:
        raise TypeError("verify_all expects a GeneralMatrix or SubstochasticMatrix")
    n, backend = G.n, G.backend
    if n < 2:
        return []
    pairs = [(m, l) for m in range(1, n + 1) for l in range(1, n + 1) if l != m]
    diagonal = [(m, None) for m in range(1, n + 1)]
    # (identity, report keys (m, l), evaluator); Thm2 reads the Eq13/Eq20
    # reports of the same key, so those rows come first.
    sweep = [
        (IdentityId.LEMMA1, pairs, lambda m, l: lemma1_sides(G, m, l, tol)),
        (
            IdentityId.LEMMA2,
            [(None, l) for l in range(1, n + 1)],
            lambda m, l: lemma2_sides(G, l, tol),
        ),
        (IdentityId.EQ13, diagonal, lambda m, l: eq13_sides(G, m, tol)),
        (IdentityId.EQ17, diagonal, lambda m, l: eq17_residual(G, m, tol)),
        (IdentityId.EQ20, pairs, lambda m, l: eq20_sides(G, l, m, tol)),
        (IdentityId.EQ21, pairs, lambda m, l: eq21_residual(G, l, m, tol)),
    ]
    reports: dict[tuple, IdentityReport] = {}
    if P is not None:
        t = _deletion_terms(P)
        sweep += [
            (IdentityId.THM2_FIRST, diagonal, lambda m, l: _specialized(
                IdentityId.THM2_FIRST, m, l, _diagonal(t, m),
                reports[IdentityId.EQ13, m, l], backend, tol,
            )),
            (IdentityId.THM2_SECOND, pairs, lambda m, l: _specialized(
                IdentityId.THM2_SECOND, m, l, _thm2_second_sides(t, l, m),
                reports[IdentityId.EQ20, m, l], backend, tol,
            )),
        ]
    for identity, keys, evaluate in sweep:
        for m, l in keys:
            try:
                report = evaluate(m, l)
            except SubstochError as exc:
                report = _error_report(identity, m, l, backend, exc)
            reports[identity, m, l] = report
    return sorted(reports.values(), key=IdentityReport.sort_key)
