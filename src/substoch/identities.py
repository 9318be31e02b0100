"""Both-sides evaluation of the minor/adjugate/Schur-quotient identities.

Every identity is evaluated by two independent code paths (the left side is
never derived from the right side): quotient forms go through Gauss-Jordan
solves, cleared forms through fraction-free adjugate products and
determinants.  Each route reads its matrix's integer lift (made once per
matrix), makes one kernel solve per index on rows built from it, and lifts
its per-index table over one denominator; every identity side is then one
integer dot product, left as a numerator over a denominator.  Thm2 is read off
N = (I-P)^-1, as ((I-P)(k|k))^-1 p_{.k} holds the first-passage
probabilities N_ik / N_kk and 1 - p_kk - x_k = 1 / N_kk (Kemeny & Snell
1960), and is checked against the inverse route's Eq13/Eq20 at B = I - P.
Lemma1 checks the fraction-free kernel (left) against B^-1 (right,
-det(B) (B^-1)_ml), the inverse whose diagonal certified B's minors; on
substochastic input it is N, read before the sweep, as Thm1 reads it.
verify_all builds both routes for its one sweep, each making its n deletion
solves in one pass.
An exact report passes iff its sides a/b and c/d have a*d == c*b, integer
equality over the routes' denominators; a float one iff |residual| <=
tol*(1 + sum of |term| over both sides), because a side that cancels large
terms is only as accurate as the terms.  A side becomes a value (a Fraction
when exact) only when its report is read, for a printed record.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections import namedtuple

from .errors import InvariantViolation, SingularMatrix, SingularSubmatrix, SubstochError
from .matrix import DenseMatrix, adjugate_column, determinant, identity_minus, inverse, solve_column
from .scalars import EXACT
from .substochastic import SubstochasticMatrix, fundamental_matrix


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


class IdentityReport:
    """One identity check: both sides, their difference, pass/fail.

    `outcome` is the check's sides (lhs, rhs, magnitude), lhs and rhs pairs
    as _Terms gives them, which the backend decides on; or the SubstochError
    the sides raised, which fails the check with lhs, rhs and residual None.
    lhs, rhs and residual become values on first read.  Immutable; equal to
    a report with equal fields."""

    _fields = ("identity", "m", "l", "lhs", "rhs", "residual", "passed", "backend", "error")

    def __init__(self, identity, m, l, outcome, backend, tol=None):
        if isinstance(outcome, SubstochError):
            sides, passed, error = None, False, f"{type(outcome).__name__}: {outcome}"
        else:
            sides, passed, error = outcome[:2], backend.sides_pass(*outcome, tol), None
        vars(self).update(identity=identity, m=m, l=l, passed=passed, backend=backend.name,
                          error=error, _sides=sides, _ratio=backend.ratio)

    lhs = functools.cached_property(lambda self: self._sides and self._ratio(*self._sides[0]))
    rhs = functools.cached_property(lambda self: self._sides and self._ratio(*self._sides[1]))
    residual = functools.cached_property(lambda self: self._sides and self.lhs - self.rhs)

    def __setattr__(self, name, value=None):
        raise AttributeError("IdentityReport is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Terms:
    """One evaluation route on integers: the quotient (inverse) route, by
    Gauss-Jordan, or, given `cleared_det`, the cleared (adjugate) route,
    fraction-free.  A route is built whole or not at all: deletion_solves
    raises the error of the least index whose solve or denominator fails.

    M's lift is by rows: row i is L_i / s_i, so M_km = L_km / s_k
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
    table, returned as a pair (numerator, denominator).

    `solves` holds index k+1's (V, D, t, X, dn) at position k, all from one
    call of deletion_solves.  Every exact cleared den_k must equal
    `cleared_det`; an index where one does not fails only the Eq17 checks.
    """

    def __init__(self, M: DenseMatrix, cleared_det=None):
        self.n = M.n_rows
        self.backend = M.backend
        self._L, self._s = M.lifted()
        # column m of L without its diagonal entry: the coefficients of every sum
        self._off = [[*col[:m], 0, *col[m + 1 :]] for m, col in enumerate(zip(*self._L))]
        self.solves = deletion_solves(self._L, self._s, self.backend, cleared_det is not None)
        self._unequal = []  # the indices whose exact cleared den_k is not det(B), which Eq17 reads
        if cleared_det is not None and self.backend is EXACT:
            det = EXACT.as_ratio(cleared_det)
            self._unequal = [k for k in range(1, self.n + 1) if not EXACT.sides_pass(self.den(k), det)]

    def _table(self, quotients: bool):
        """(columns of the quotient or cleared table, its denominator)."""
        rows, dens = [], []
        for k, (V, D, t, _, dn) in enumerate(self.solves):
            rows.append(V[:k] + [-(D if quotients else t)] + V[k:])
            dens.append(dn if quotients else self._s[k] * D)
        table, D = self.backend.common(rows, dens)
        return list(zip(*table)), D

    @functools.cached_property
    def quotients(self):
        return self._table(quotients=True)

    @functools.cached_property
    def cleared(self):
        return self._table(quotients=False)

    def den(self, k: int) -> tuple:
        """den_k as a pair."""
        V, D, t, X, dn = self.solves[k - 1]
        return dn, self._s[k - 1] * D

    def _sides(self, lhs: tuple, table, m: int, l: int) -> tuple:
        """(lhs, rhs, magnitude) with rhs the sum over k != m of M_km v_kl,
        v_kl the value that row k of the table holds at column l divided
        by s_k: one dot product of column m of L, its diagonal entry
        zeroed, with column l of the table."""
        cols, D = table
        terms = list(map(operator.mul, self._off[m - 1], cols[l - 1]))
        ratio = self.backend.ratio
        return lhs, (sum(terms), D), lambda: abs(ratio(*lhs)) + ratio(sum(map(abs, terms)), D)

    def diagonal(self, m: int):
        """lhs x_m / den_m; rhs sum over l != m of M_lm w_l[m] / den_l.
        Raises when an exact cleared den_k is not det(B): index m's error
        when m is one such index, else the least one's."""
        if self._unequal:
            k = m if m in self._unequal else self._unequal[0]
            raise InvariantViolation(f"cleared denominator at index {k} does not equal det(B)")
        return self._sides(self.solves[m - 1][3:], self.quotients, m, m)

    def off_diagonal(self, l: int, m: int, cleared: bool = False):
        """lhs -m_mm w_m[l] / den_m; rhs -M_lm / den_l plus the sum over
        k != l, m of M_km w_k[l] / den_k.  Cleared by det(B): nothing is
        divided by den, and the lead term is -M_lm det(B(l|l))."""
        cols, D = table = self.cleared if cleared else self.quotients
        i = m - 1
        return self._sides((-self._L[i][i] * cols[l - 1][i], D), table, m, l)

    def pick(self, k: int, i: int) -> tuple:
        """w_k at original index i, from the cleared table, as a pair."""
        cols, D = self.cleared
        return cols[i - 1][k - 1] * self._s[k - 1], D


def deletion_solves(L: list[list], s: list, backend, cleared: bool) -> list:
    """_Terms.solves for the matrix lifted to rows L over scales s: one
    kernel solve per index k, of the system [M(k|k) | c_k] built from
    those rows, by the fraction-free kernel when cleared, else by
    Gauss-Jordan.  The least index k whose M(k|k) is singular, or whose
    den_k is zero, raises its SingularSubmatrix, so every entry is a tuple."""
    solves = []
    for k in range(len(L)):
        others = [i for i in range(len(L)) if i != k]
        rows = [L[i][:k] + L[i][k + 1 :] + [L[i][k]] for i in others]
        try:
            if cleared:
                V, D, t = adjugate_column(rows, [s[i] for i in others], backend)
            else:
                V, D = solve_column(rows, backend)
                t = D
        except SingularMatrix as exc:
            raise SingularSubmatrix(f"B({k + 1}|{k + 1}) is singular: {exc}") from None
        X = sum(L[k][j] * v for j, v in zip(others, V))
        dn = L[k][k] * t - X
        if dn == 0:
            what = "cleared" if cleared else "Schur"
            raise SingularSubmatrix(f"{what} denominator vanished at index {k + 1}")
        solves.append((V, D, t, X, dn))
    return solves


class GeneralMatrix(namedtuple("GeneralMatrix", "B det inverse")):
    """The values B, det(B) and B^-1 of a square B certified to have the
    nonzero minors that the quotient identities divide by, det(B) and every
    det(B(l|l)).  Construct via certify_general."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.B.n_rows

    @property
    def backend(self):
        return self.B.backend


def certify_general(B: DenseMatrix, N: DenseMatrix | None = None) -> GeneralMatrix:
    """Check det(B) and every det(B(l|l)), the minors the identities divide
    by, and record B, det(B) and B^-1.  det(B), which Lemma2 compares the
    adjugate route against, is computed on its own; as (B^-1)_ll =
    det(B(l|l)) / det(B), a det(B(l|l)) is zero when that entry of B^-1 is
    at most the backend's floor of B^-1's entries, and B fails too when
    B^-1's elimination meets a pivot below its floor.  A given N is B^-1 of
    B = I - P for a certified P: I - P is a nonsingular M-matrix, whose
    principal minors are all positive, so N is taken as it is."""
    n = B.require_square()
    det = determinant(B)
    if det == 0:
        raise SingularSubmatrix("det(B) is zero")
    if N is None:
        try:
            N = inverse(B)
        except SingularMatrix as exc:
            raise SingularSubmatrix(f"B is singular: {exc}") from None
        floor = B.backend.floor(N.entries)
        for l in range(1, n + 1):
            if n >= 2 and abs(N.at(l, l)) <= floor:
                raise SingularSubmatrix(f"det(B({l}|{l})) is zero")
    return GeneralMatrix(B, det, N)


def _thm2_tables(P: DenseMatrix, N: DenseMatrix) -> tuple:
    """(Q, d, A, d a), P = Q / d and its fundamental matrix N = A / a each
    lifted over one denominator (on floats Q = P, A = N, every scale 1)."""
    (Q, d), (A, a) = (N.backend.common(*M.lifted()) for M in (P, N))
    return Q, d, A, d * a


def _thm2(G: GeneralMatrix, m: int, l: int | None, ref, tables: tuple) -> tuple:
    """Thm2First's (l None) or Thm2Second's sides at (l, m), G = I - P and
    tables the _thm2_tables of P and N = G.inverse.  The k-th p-notation
    quotient ((I-P)(k|k))^-1 p_{.k} / (1 - p_kk - x_k) is N_{.k} without
    N_kk, so the lhs, sum_{j != m} p_mj N_jm or (1 - p_mm) N_lm, is one
    integer dot product over d a.  Its rhs and magnitude are ref's, the
    Eq13/Eq20 sides at B = I - P, so it is checked against the inverse route.
    On exact values the sides must also equal ref's, with the rhs
    sum_{k != m} p_km N_rk, r = m or l."""
    Q, d, A, D = tables
    i, r = m - 1, (l or m) - 1
    if l is None:
        lhs = (sum(Q[i][j] * A[j][i] for j in range(G.n) if j != i), D)
    else:
        lhs = ((d - Q[i][i]) * A[r][i], D)
    if G.backend is EXACT:
        rhs = (sum(Q[k][i] * A[r][k] for k in range(G.n) if k != i), D)
        if not (EXACT.sides_pass(lhs, ref[0]) and EXACT.sides_pass(rhs, ref[1])):
            identity = IdentityId.THM2_FIRST if l is None else IdentityId.THM2_SECOND
            raise InvariantViolation(
                f"{identity.label} disagrees with its I-P specialization: "
                f"{tuple(EXACT.ratio(*s) for s in (lhs, rhs))!r} vs "
                f"{tuple(EXACT.ratio(*s) for s in ref[:2])!r}"
            )
    return lhs, ref[1], ref[2]


def verify_all(obj, tol=None) -> list[IdentityReport]:
    """Every applicable identity over every valid index combination.

    GeneralMatrix input runs the six general identities.  Substochastic
    input P additionally runs both Thm2 identities and evaluates the
    general identities on B = I - P, certified with N = (I-P)^-1, read
    first: a float N that fails raises before the sweep, as does a route
    that fails (_Terms).  Two errors in the sweep are folded into failed
    reports, both InvariantViolation: Thm2's exact cross-check against
    Eq13/Eq20 and Eq17's exact cleared den_k that is not det(B).  Ordering
    is (identity, m, l).

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
    G = certify_general(identity_minus(obj.P), fundamental_matrix(obj)) if substochastic else obj
    n, backend = G.n, G.backend
    # the two routes, the w_k above and the a_k; each is read by this sweep only
    inv, adj = _Terms(G.B), _Terms(G.B, cleared_det=G.det)
    det = backend.as_ratio(G.det)
    minus_det_times = lambda a: (-det[0] * a[0], det[1] * a[1])  # -det(B) a, a a pair
    pairs = [(m, l) for m in range(1, n + 1) for l in range(1, n + 1) if l != m]
    diagonal = [(m, None) for m in range(1, n + 1)]
    # (identity, report keys (m, l), sides(m, l) -> (lhs, rhs, magnitude)),
    # lhs evaluated before rhs, each a pair (numerator, denominator); the
    # Thm2 rows read the Eq13/Eq20 outcomes of the same key, so those rows
    # come first.  Rows in IdentityId order, keys in (m, l) order: the
    # reports come out in (identity, m, l) order as they are made.
    sweep = [
        # f_ml a_l = (-1)^(m+l+1) det(B(l|m)) = -det(B) (B^-1)_ml
        (IdentityId.LEMMA1, pairs,
         lambda m, l: (adj.pick(l, m), minus_det_times(backend.as_ratio(G.inverse.at(m, l))), None)),
        # c_l = det(B)
        (IdentityId.LEMMA2, [(None, l) for l in range(1, n + 1)],
         lambda m, l: (adj.den(l), det, None)),
        # b_{m.} w_m / den_m = sum_{l != m} b_lm f_ml w_l / den_l
        (IdentityId.EQ13, diagonal, lambda m, l: inv.diagonal(m)),
        # b_{m.} a_m / c_m = sum_{l != m} b_lm f_ml a_l / c_l
        (IdentityId.EQ17, diagonal, lambda m, l: adj.diagonal(m)),
        # -b_mm f_lm w_m / den_m = -b_lm / den_l + sum_{k != l,m} b_km f_lk w_k / den_k
        (IdentityId.EQ20, pairs, lambda m, l: inv.off_diagonal(l, m)),
        # -b_mm f_lm a_m = -b_lm det(B(l|l)) + sum_{k != l,m} b_km f_lk a_k
        (IdentityId.EQ21, pairs, lambda m, l: adj.off_diagonal(l, m, cleared=True)),
    ]
    outcomes: dict[tuple, object] = {}  # the sides of a check, or its InvariantViolation
    if substochastic:
        tables = _thm2_tables(obj.P, G.inverse)  # once, before the sweep
        sweep += [
            # p_{m.} v_m / e_m = sum_{k != m} p_km f_mk v_k / e_k
            (IdentityId.THM2_FIRST, diagonal,
             lambda m, l: _thm2(G, m, l, outcomes[IdentityId.EQ13, m, l], tables)),
            # (1 - p_mm) f_lm v_m / e_m = p_lm / e_l + sum_{k != l,m} p_km f_lk v_k / e_k
            (IdentityId.THM2_SECOND, pairs,
             lambda m, l: _thm2(G, m, l, outcomes[IdentityId.EQ20, m, l], tables)),
        ]
    for identity, keys, sides in sweep:
        for m, l in keys:
            try:
                outcomes[identity, m, l] = sides(m, l)
            except InvariantViolation as exc:
                outcomes[identity, m, l] = exc
    return [IdentityReport(*key, outcome, backend, tol) for key, outcome in outcomes.items()]
