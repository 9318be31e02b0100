"""Independent test oracles.

Everything here deliberately avoids the package's production code paths:
determinants come from first-row cofactor expansion, inverses from the
cofactor adjugate divided by the cofactor determinant, and submatrices from
brute-force index bookkeeping.  Exact arithmetic only; keep n small.
"""

import functools
from fractions import Fraction

from substoch import DenseMatrix
from substoch.generators import SplitMix64


def laplace_det(M: DenseMatrix):
    rows = M.rows_as_lists()

    def det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = sub[0][0] - sub[0][0]  # typed zero
        sign = 1
        for j in range(k):
            if sub[0][j]:
                minor_rows = [r[:j] + r[j + 1 :] for r in sub[1:]]
                total += sign * sub[0][j] * det(minor_rows)
            sign = -sign
        return total

    return det(rows)


def laplace_adjugate(M: DenseMatrix) -> DenseMatrix:
    n = M.n_rows
    if n == 1:
        return DenseMatrix(1, 1, [M.backend.one], M.backend)
    rows = M.rows_as_lists()
    flat = []
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = laplace_det(DenseMatrix.from_rows(sub, M.backend))
            flat.append(cof if (i + j) % 2 == 0 else -cof)
    return DenseMatrix(n, n, flat, M.backend)


def laplace_inverse(M: DenseMatrix) -> DenseMatrix:
    d = laplace_det(M)
    assert d != 0
    return laplace_adjugate(M).scale(1 / Fraction(d) if M.backend.name == "exact" else 1.0 / d)


def keep_submatrix(M: DenseMatrix, keep_rows, keep_cols) -> DenseMatrix:
    """Brute-force submatrix from explicit 1-based index sets."""
    rows = [[M.at(i, j) for j in keep_cols] for i in keep_rows]
    return DenseMatrix.from_rows(rows, M.backend)


def random_int_matrix(rng: SplitMix64, n: int, lo: int = -9, hi: int = 9) -> DenseMatrix:
    span = hi - lo + 1
    rows = [
        [Fraction(rng.next_below(span) + lo) for _ in range(n)] for _ in range(n)
    ]
    return DenseMatrix.from_rows(rows)


def random_rational_matrix(rng: SplitMix64, n: int, den: int = 12, lo: int = -12, hi: int = 12) -> DenseMatrix:
    span = hi - lo + 1
    rows = [
        [Fraction(rng.next_below(span) + lo, den) for _ in range(n)]
        for _ in range(n)
    ]
    return DenseMatrix.from_rows(rows)


# -- identity sides and hitting probabilities ---------------------------------


@functools.lru_cache(maxsize=256)
def _route_terms(M: DenseMatrix, k: int, route: str):
    """(w_k by original index, x_k, den_k) of deletion k from cofactor
    oracles: route "inverse" (M = B, W = B(k|k)^-1), "adjugate" (M = B,
    W = adj(B(k|k)), cleared lead b_kk det(B(k|k))) or "p" (M = P,
    W = ((I-P)(k|k))^-1, lead 1 - p_kk)."""
    keep = [i for i in range(1, M.n_rows + 1) if i != k]
    sub = keep_submatrix(M, keep, keep)
    lead = M.at(k, k)
    if route == "p":
        sub = DenseMatrix.from_rows(
            [[(1 if i == j else 0) - sub.at(i, j) for j in range(1, len(keep) + 1)]
             for i in range(1, len(keep) + 1)]
        )
        lead = 1 - lead
    W = laplace_adjugate(sub) if route == "adjugate" else laplace_inverse(sub)
    if route == "adjugate":
        lead = lead * laplace_det(sub)
    c = [M.at(i, k) for i in keep]
    w = {i: sum(a * b for a, b in zip(row, c)) for i, row in zip(keep, W.rows_as_lists())}
    x = sum(M.at(k, j) * w[j] for j in keep)
    return w, x, lead - x


def oracle_sides(M: DenseMatrix, identity: str, m: int, l=None):
    """Fraction-only (lhs, rhs) of one identity, written as in the paper:
    Eq13, Eq17, Eq20, Eq21 on B = M, Thm2First, Thm2Second on P = M."""
    route = {"Eq13": "inverse", "Eq20": "inverse", "Eq17": "adjugate", "Eq21": "adjugate"}.get(identity, "p")
    n = M.n_rows
    terms = {k: _route_terms(M, k, route) for k in range(1, n + 1)}
    if identity in ("Eq13", "Eq17", "Thm2First"):
        w, x, den = terms[m]
        rhs = sum(M.at(k, m) * terms[k][0][m] / terms[k][2] for k in range(1, n + 1) if k != m)
        return x / den, rhs
    rest = [k for k in range(1, n + 1) if k not in (l, m)]
    if identity == "Thm2Second":
        lhs = (1 - M.at(m, m)) * terms[m][0][l] / terms[m][2]
        rhs = M.at(l, m) / terms[l][2]
    elif identity == "Eq20":
        lhs = -M.at(m, m) * terms[m][0][l] / terms[m][2]
        rhs = -M.at(l, m) / terms[l][2]
    else:  # Eq21, cleared by det(B): no division
        keep = [i for i in range(1, n + 1) if i != l]
        lhs = -M.at(m, m) * terms[m][0][l]
        rhs = -M.at(l, m) * laplace_det(keep_submatrix(M, keep, keep))
        return lhs, rhs + sum(M.at(k, m) * terms[k][0][l] for k in rest)
    return lhs, rhs + sum(M.at(k, m) * terms[k][0][l] / terms[k][2] for k in rest)


def hitting_probabilities(P: DenseMatrix) -> dict:
    """h[i, j], the probability that the chain started at i ever visits j
    (h[j, j] = 1): make j absorbing, then for i != j solve
    h_i = p_ij + sum over k != j of p_ik h_k with cofactor inverses."""
    n = P.n_rows
    h = {}
    for j in range(1, n + 1):
        h[j, j] = Fraction(1)
        if n == 1:
            continue
        keep = [i for i in range(1, n + 1) if i != j]
        absorbing = DenseMatrix.from_rows(
            [[(1 if a == b else 0) - P.at(a, b) for b in keep] for a in keep]
        )
        W = laplace_inverse(absorbing)
        p_j = [P.at(i, j) for i in keep]
        for i, row in zip(keep, W.rows_as_lists()):
            h[i, j] = sum(a * b for a, b in zip(row, p_j))
    return h
