"""Both-sides evaluation of the minor/adjugate/Schur-quotient identities.

Every identity is evaluated by two independent code paths (the left side is
never derived from the right side): quotient forms go through Gauss-Jordan
solves, cleared forms through fraction-free adjugate products and
determinants.  Each route lifts its matrix to integers once, makes one
kernel solve per index on rows built from it, and lifts its per-index table
over one denominator; every identity side is then one integer dot product,
turned into a value once.  Thm2 is read off N = (I-P)^-1, as
((I-P)(k|k))^-1 p_{.k} holds the first-passage probabilities N_ik / N_kk and
1 - p_kk - x_k = 1 / N_kk (Kemeny & Snell 1960), and is checked against the
inverse route's Eq13/Eq20 at B = I - P.
Lemma1 checks the fraction-free kernel (left) against one Gauss-Jordan
inverse per sweep (right, -det(B) (B^-1)_ml); on substochastic input B^-1 is
the fundamental matrix (I-P)^-1, inverted once and shared with Thm1.
The certificate reads each det(B(l|l)) off the adjugate route's own
elimination, so certifying and sweeping B takes one determinant, det(B).
On the exact backend a report passes iff its residual is literally zero; on
the float backend iff |residual| <= tol*(1 + sum of |term| over both sides),
because a side that cancels large terms is only as accurate as the terms.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InvariantViolation,
    SingularMatrix,
    SingularSubmatrix,
    SubstochError,
)
from .matrix import (
    DenseMatrix,
    adjugate_column,
    determinant,
    inverse,
    solve_column,
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


def _report(identity, m, l, sides, backend, tol) -> IdentityReport:
    """sides is (lhs, rhs, magnitude): magnitude() gives the sum of |term|
    over both sides (|lhs| + |rhs| when None, for single-term sides) and is
    only evaluated for a nonzero residual."""
    lhs, rhs, magnitude = sides
    residual = lhs - rhs
    scale = 0 if not residual else magnitude() if magnitude else abs(lhs) + abs(rhs)
    return IdentityReport(
        identity, m, l, lhs, rhs, residual,
        backend.residual_ok(residual, scale, tol), backend.name,
    )


def _error_report(identity, m, l, backend, exc) -> IdentityReport:
    return IdentityReport(
        identity, m, l, None, None, None, False, backend.name,
        error=f"{type(exc).__name__}: {exc}",
    )


class _Terms:
    """One evaluation route on integers: the quotient (inverse) route, by
    Gauss-Jordan, or, given `cleared_det`, the cleared (adjugate) route,
    fraction-free; every exact cleared den_k must equal `cleared_det`.

    M is lifted once, by rows: row i is L_i / s_i, so M_km = L_km / s_k
    (on floats every scale is 1).  Index k's system [M(k|k) | c_k], c_k
    column k of M, is built from those rows; one kernel solve gives
    w_k = V / D and lead_k = m_kk t / (s_k D), with t = D, or
    t = det(M(k|k)) D when cleared.  With x_k = r_k . w_k = X / (s_k D),
    r_k row k of M without its k-th entry, den_k = lead_k - x_k = dn / (s_k D).

    Both tables hold in row k the values divided by s_k, V with a lead
    term at slot k, lifted over one denominator: w_k[i] / den_k and
    -1 / den_k in the quotient table (-D over dn), w_k[i] and
    -det(M(k|k)) in the cleared one (-t over s_k D).  Every identity side
    is then one integer dot product of a column of L with a column of a
    table, turned into a value once by the backend's ratio.  An index whose
    solve or denominator failed has a zero row; every side that reads it
    raises its error, in the order the side reads its indices.
    """

    def __init__(self, M: DenseMatrix, cleared_det=None):
        self.n = M.n_rows
        self.backend = M.backend
        self._L, self._s = M.backend.lift_rows(M.rows_as_lists())
        # column m of L without its diagonal entry: the coefficients of every sum
        self._off = [[*col[:m], 0, *col[m + 1 :]] for m, col in enumerate(zip(*self._L))]
        self._det = cleared_det
        self._solved = [None] * self.n

    def _solve(self, k: int):
        """Index k+1's (V, D, t, X, dn) as above, or the error its solve
        raised; solved on first use, so a failed certificate stops early."""
        if self._solved[k] is None:
            L, s, backend = self._L, self._s, self.backend
            others = [i for i in range(self.n) if i != k]
            rows = [L[i][:k] + L[i][k + 1 :] + [L[i][k]] for i in others]
            try:
                if self._det is None:
                    V, D = solve_column(rows, backend)
                    t = D
                else:
                    V, D, t = adjugate_column(rows, [s[i] for i in others], backend)
            except SingularMatrix as exc:
                self._solved[k] = SingularSubmatrix(f"B({k + 1}|{k + 1}) is singular: {exc}")
            else:
                X = sum(L[k][j] * v for j, v in zip(others, V))
                self._solved[k] = (V, D, t, X, L[k][k] * t - X)
        return self._solved[k]

    def _error(self, k: int, entry, quotients: bool):
        """The error of index k+1: its solve's, then, for the quotients,
        its denominator's; None when there is none."""
        if isinstance(entry, SubstochError):
            return entry
        if not quotients:
            return None
        if (
            self._det is not None
            and self.backend.name == "exact"
            and self.den(k + 1) != self._det
        ):
            return InvariantViolation(
                f"cleared denominator at index {k + 1} does not equal det(B)"
            )
        if entry[4] == 0:
            what = "Schur" if self._det is None else "cleared"
            return SingularSubmatrix(f"{what} denominator vanished at index {k + 1}")
        return None

    def _table(self, quotients: bool):
        """(columns of the quotient or cleared table, its denominator, errors
        by index)."""
        rows, dens, errors = [], [], {}
        for k in range(self.n):
            entry = self._solve(k)
            error = self._error(k, entry, quotients)
            if error:
                errors[k + 1] = error
                rows.append([0] * self.n)
                dens.append(1)
                continue
            V, D, t, _, dn = entry
            rows.append(V[:k] + [-(D if quotients else t)] + V[k:])
            dens.append(dn if quotients else self._s[k] * D)
        table, D = self.backend.common(rows, dens)
        return list(zip(*table)), D, errors

    @functools.cached_property
    def quotients(self):
        return self._table(quotients=True)

    @functools.cached_property
    def cleared(self):
        return self._table(quotients=False)

    def _entry(self, k: int) -> tuple:
        entry = self._solve(k - 1)
        if isinstance(entry, SubstochError):
            raise entry.with_traceback(None)
        return entry

    def den(self, k: int):
        """den_k as a value; raises the solve error of index k."""
        V, D, t, X, dn = self._entry(k)
        return self.backend.ratio(dn, self._s[k - 1] * D)

    def minor(self, k: int):
        """det(M(k|k)) = t / D on the cleared route; zero when the solve of
        index k found a zero pivot column, exactly when M(k|k) is singular."""
        entry = self._solve(k - 1)
        if isinstance(entry, SubstochError):
            return self.backend.zero
        return self.backend.ratio(entry[2], entry[1])

    def _expansion(self, table, m: int, l: int):
        """The sum over k != m of M_km v_kl, v_kl the value that row k of
        the table holds at column l divided by s_k: one dot product of
        column m of L, its diagonal entry zeroed, with column l of the
        table.  Returns the value and a function giving the sum of |term|."""
        cols, D, _ = table
        terms = list(map(operator.mul, self._off[m - 1], cols[l - 1]))
        ratio = self.backend.ratio
        return ratio(sum(terms), D), lambda: ratio(sum(map(abs, terms)), D)

    def diagonal(self, m: int):
        """lhs x_m / den_m; rhs sum over l != m of M_lm w_l[m] / den_l."""
        table = self.quotients
        errors = table[2]
        if errors:
            _raise_first(errors, [m, *(l for l in range(1, self.n + 1) if l != m)])
        X, dn = self._entry(m)[3:]
        lhs = self.backend.ratio(X, dn)
        rhs, magnitude = self._expansion(table, m, m)
        return lhs, rhs, lambda: abs(lhs) + magnitude()

    def off_diagonal(self, l: int, m: int, cleared: bool = False):
        """lhs -m_mm w_m[l] / den_m; rhs -M_lm / den_l plus the sum over
        k != l, m of M_km w_k[l] / den_k.  Cleared by det(B): nothing is
        divided by den, and the lead term is -M_lm det(B(l|l))."""
        table = self.cleared if cleared else self.quotients
        cols, D, errors = table
        if errors:
            rest = (k for k in range(1, self.n + 1) if k != l and k != m)
            _raise_first(errors, [m, *rest] if cleared else [m, l, *rest])
        i = m - 1
        lhs = self.backend.ratio(-self._L[i][i] * cols[l - 1][i], D)
        rhs, magnitude = self._expansion(table, m, l)
        return lhs, rhs, lambda: abs(lhs) + magnitude()

    def pick(self, k: int, i: int):
        """w_k at original index i, from the cleared table."""
        cols, D, errors = self.cleared
        _raise_first(errors, [k])
        return self.backend.ratio(cols[i - 1][k - 1] * self._s[k - 1], D)


def _raise_first(errors: dict, order) -> None:
    for k in order:
        if k in errors:
            raise errors[k].with_traceback(None)


class GeneralMatrix:
    """A square matrix certified to have the nonzero minors that the
    quotient identities divide by: det(B) and every det(B(l|l)).

    Caches B^-1 and the routes the identity sweeps reuse; the adjugate
    route is the one the certificate read every det(B(l|l)) off, so
    nothing is eliminated twice.  Construct via certify_general.  `of` is
    a certified P with B = I - P, whose fundamental matrix is then B^-1 and
    whose Thm2 tables are cached here too.
    """

    def __init__(self, B: DenseMatrix, det, of: Optional[SubstochasticMatrix] = None):
        self.B = B
        self.det = det
        self._of = of

    @property
    def n(self) -> int:
        return self.B.n_rows

    @property
    def backend(self):
        return self.B.backend

    @functools.cached_property
    def inverse(self) -> DenseMatrix:
        """B^-1 by one Gauss-Jordan, shared with Thm1 when B = I - P."""
        return inverse(self.B) if self._of is None else fundamental_matrix(self._of)

    @functools.cached_property
    def inverse_terms(self) -> _Terms:
        """Inverse route: w_k = B(k|k)^-1 b_{.k}, den_k the Schur denominator."""
        return _Terms(self.B)

    @functools.cached_property
    def adjugate_terms(self) -> _Terms:
        """Adjugate route: w_k = adj(B(k|k)) b_{.k}, den_k the cleared
        denominator b_kk det(B(k|k)) - x_k, which must equal det(B)."""
        return _Terms(self.B, cleared_det=self.det)

    @functools.cached_property
    def thm2_tables(self) -> tuple:
        """(Q, d, A, d a) with P = Q / d and N = A / a, N = B^-1 the
        fundamental matrix, when B = I - P; each is lifted over one
        denominator (on floats Q = P, A = N, every scale 1)."""
        backend = self.backend
        (Q, d), (A, a) = (
            backend.common(*backend.lift_rows(M.rows_as_lists()))
            for M in (self._of.P, self.inverse)
        )
        return Q, d, A, d * a


def certify_general(B: DenseMatrix, of: Optional[SubstochasticMatrix] = None) -> GeneralMatrix:
    """Check the nonzero-minor hypotheses the identities divide by, det(B)
    and det(B(l|l)) for every l, and wrap B (which is I - P when `of` is P).
    det(B), which Lemma2 compares the adjugate route against, is computed
    on its own; each det(B(l|l)) is read off that route."""
    n = B.require_square()
    det = determinant(B)
    if det == 0:
        raise SingularSubmatrix("det(B) is zero")
    G = GeneralMatrix(B, det, of)
    for l in range(1, n + 1) if n >= 2 else ():
        if G.adjugate_terms.minor(l) == 0:
            raise SingularSubmatrix(f"det(B({l}|{l})) is zero")
    return G


def _thm2(G: GeneralMatrix, m: int, l: Optional[int], ref, tol) -> tuple:
    """Thm2First's (l None) or Thm2Second's sides at (l, m).  The k-th
    p-notation quotient ((I-P)(k|k))^-1 p_{.k} / (1 - p_kk - x_k) is N_{.k}
    without N_kk, so the sides are sum_{j != m} p_mj N_jm, or
    (1 - p_mm) N_lm, vs sum_{k != m} p_km N_rk, r = m or l: one integer dot
    product each, over d a.  They are checked against ref, the Eq13/Eq20
    report at B = I - P, or the error it raised, which is passed on.  No
    term is negative, so |lhs| + |rhs| is the float magnitude."""
    if isinstance(ref, SubstochError):
        raise ref.with_traceback(None)
    Q, d, A, D = G.thm2_tables
    i, r = m - 1, (l or m) - 1
    rhs = sum(Q[k][i] * A[r][k] for k in range(G.n) if k != i)
    if l is None:
        lhs = sum(Q[i][j] * A[j][i] for j in range(G.n) if j != i)
    else:
        lhs = (d - Q[i][i]) * A[r][i]
    backend = G.backend
    lhs, rhs = backend.ratio(lhs, D), backend.ratio(rhs, D)
    if not (backend.eq(lhs, ref.lhs, tol) and backend.eq(rhs, ref.rhs, tol)):
        identity = IdentityId.THM2_FIRST if l is None else IdentityId.THM2_SECOND
        raise InvariantViolation(
            f"{identity.label} disagrees with its I-P specialization: "
            f"({lhs!r}, {rhs!r}) vs ({ref.lhs!r}, {ref.rhs!r})"
        )
    return lhs, rhs, None


def verify_all(obj, tol=None) -> list[IdentityReport]:
    """Every applicable identity over every valid index combination.

    GeneralMatrix input runs the six general identities.  Substochastic
    input P additionally runs both Thm2 identities and evaluates the
    general identities on B = I - P, which it certifies first.  Errors are
    folded into failed reports rather than aborting the sweep; ordering is
    (identity, m, l).

    The sweep table states each identity on one line, with f_ml picking
    index m of a vector whose index l is deleted, and
      w_k = B(k|k)^-1 b_{.k},  den_k = b_kk - b_{k.} w_k  (= det(B) / det(B(k|k))),
      a_k = adj(B(k|k)) b_{.k},  c_k = b_kk det(B(k|k)) - b_{k.} a_k  (= det(B)),
      v_k = ((I-P)(k|k))^-1 p_{.k},  e_k = 1 - p_kk - p_{k.} v_k.
    """
    substochastic = isinstance(obj, SubstochasticMatrix)
    if not (substochastic or isinstance(obj, GeneralMatrix)):
        raise TypeError("verify_all expects a GeneralMatrix or SubstochasticMatrix")
    if obj.n < 2:  # no identity has a check; I - P is left uncertified
        return []
    G = certify_general(identity_minus(obj.P), obj) if substochastic else obj
    n, backend = G.n, G.backend
    inv, adj = G.inverse_terms, G.adjugate_terms
    pairs = [(m, l) for m in range(1, n + 1) for l in range(1, n + 1) if l != m]
    diagonal = [(m, None) for m in range(1, n + 1)]
    # (identity, report keys (m, l), sides(m, l) -> (lhs, rhs, magnitude)),
    # lhs evaluated before rhs; the Thm2 rows read the Eq13/Eq20 outcomes
    # of the same key, so those rows come first.
    sweep = [
        # f_ml a_l = (-1)^(m+l+1) det(B(l|m)) = -det(B) (B^-1)_ml
        (IdentityId.LEMMA1, pairs,
         lambda m, l: (adj.pick(l, m), -G.det * G.inverse.at(m, l), None)),
        # c_l = det(B)
        (IdentityId.LEMMA2, [(None, l) for l in range(1, n + 1)],
         lambda m, l: (adj.den(l), G.det, None)),
        # b_{m.} w_m / den_m = sum_{l != m} b_lm f_ml w_l / den_l
        (IdentityId.EQ13, diagonal, lambda m, l: inv.diagonal(m)),
        # b_{m.} a_m / c_m = sum_{l != m} b_lm f_ml a_l / c_l
        (IdentityId.EQ17, diagonal, lambda m, l: adj.diagonal(m)),
        # -b_mm f_lm w_m / den_m = -b_lm / den_l + sum_{k != l,m} b_km f_lk w_k / den_k
        (IdentityId.EQ20, pairs, lambda m, l: inv.off_diagonal(l, m)),
        # -b_mm f_lm a_m = -b_lm det(B(l|l)) + sum_{k != l,m} b_km f_lk a_k
        (IdentityId.EQ21, pairs, lambda m, l: adj.off_diagonal(l, m, cleared=True)),
    ]
    outcomes: dict[tuple, object] = {}  # a report, or the error its sides raised
    if substochastic:
        sweep += [
            # p_{m.} v_m / e_m = sum_{k != m} p_km f_mk v_k / e_k
            (IdentityId.THM2_FIRST, diagonal,
             lambda m, l: _thm2(G, m, l, outcomes[IdentityId.EQ13, m, l], tol)),
            # (1 - p_mm) f_lm v_m / e_m = p_lm / e_l + sum_{k != l,m} p_km f_lk v_k / e_k
            (IdentityId.THM2_SECOND, pairs,
             lambda m, l: _thm2(G, m, l, outcomes[IdentityId.EQ20, m, l], tol)),
        ]
    for identity, keys, sides in sweep:
        for m, l in keys:
            try:
                outcomes[identity, m, l] = _report(identity, m, l, sides(m, l), backend, tol)
            except SubstochError as exc:
                outcomes[identity, m, l] = exc
    reports = [
        outcome if isinstance(outcome, IdentityReport) else _error_report(*key, backend, outcome)
        for key, outcome in outcomes.items()
    ]
    return sorted(reports, key=IdentityReport.sort_key)
