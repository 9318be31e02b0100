"""Seeded, reproducible instance generation.

All randomness in this package flows from SplitMix64, a named 64-bit
counter-based generator: the state advances by the additive constant
0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the state (all arithmetic mod 2^64).  Rational generation uses
only integer draws, so identical GenSpecs reproduce byte-identical matrices
on any platform.  Bounded integer draws use `next_u64() % (hi+1)` (the
modulo bias is irrelevant at these ranges and keeps the stream trivially
portable).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import SingularSubmatrix, ValidationError
from .matrix import DenseMatrix
from .scalars import EXACT
from .substochastic import SubstochasticMatrix, validate_substochastic

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Stable sub-seed for stream `index` of a master seed (used for
    per-instance, per-trial and per-start-state streams)."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


class GenSpec(namedtuple("GenSpec", "n seed density max_row_sum denominator_bound")):
    """Parameters of one deterministic random instance.

    density is the keep-probability per entry; max_row_sum bounds (and sets
    the scale of) each row's sum; entries are drawn on the grid
    k / denominator_bound before exact row scaling.  GenSpec(...) coerces
    both to Fraction and validates every field; namedtuple's _make and
    _replace do neither.
    """

    __slots__ = ()

    def __new__(cls, n, seed, density=1, max_row_sum=1, denominator_bound=16):
        self = super().__new__(cls, n, seed, Fraction(density), Fraction(max_row_sum),
                               denominator_bound)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0, 1]")
        if not 0 < self.max_row_sum <= 1:
            raise ValueError("max_row_sum must lie in (0, 1]")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be >= 1")
        return self


MAX_ATTEMPTS = 100


def _sample(spec: GenSpec, low: int, row, certify, reject, fallback):
    """The first candidate that `certify` returns rather than raising
    `reject`, within MAX_ATTEMPTS candidates drawn on one SplitMix64 stream
    seeded with spec.seed.  Each row is drawn as integers, entry by entry:
    one keep draw, kept with probability spec.density, then, if kept, one
    magnitude draw k_j in [low, denominator_bound] (else k_j = 0); then
    row(k, rng) makes the row's entries, drawing on from the stream.  When
    every candidate is rejected, `certify` gets fallback(last candidate's
    rows), which each family makes certifiable.
    """
    rng = SplitMix64(spec.seed)
    keep = (spec.density.numerator << 64) // spec.density.denominator
    span = spec.denominator_bound - low + 1
    for _ in range(MAX_ATTEMPTS):
        rows = [
            row([rng.next_below(span) + low if rng.next_u64() < keep else 0
                 for _j in range(spec.n)], rng)
            for _i in range(spec.n)
        ]
        try:
            return certify(DenseMatrix.from_rows(rows, EXACT))
        except reject:
            continue
    return certify(DenseMatrix.from_rows(fallback(rows), EXACT))


def gen_substochastic(spec: GenSpec) -> SubstochasticMatrix:
    """Deterministic certified substochastic instance for a GenSpec.

    Each row's draws k_j in [0, b], b = denominator_bound, are followed by
    one row-sum draw r in [0, b], and the row is scaled exactly to sum
    max_row_sum * r / b: entry j is k_j r max_row_sum / (b sum(k)), and the
    row is zero when sum(k) is.  When certification fails (possible only
    via the spectral-radius test when max_row_sum is 1) the same stream
    keeps drawing, up to 100 attempts.  If all 100 are rejected, the last
    one gets every entry halved: each row then sums to at most
    max_row_sum / 2 < 1, so it certifies as RowSumStrict.
    """
    b, p, q = spec.denominator_bound, spec.max_row_sum.numerator, spec.max_row_sum.denominator

    def row(k, rng):
        scale, total = rng.next_below(b + 1) * p, b * sum(k) * q
        return [Fraction(kj * scale, total) for kj in k] if total else [Fraction(0)] * len(k)

    return _sample(spec, 0, row, validate_substochastic, ValidationError,
                   lambda rows: [[x / 2 for x in r] for r in rows])


def gen_general(spec: GenSpec):
    """Deterministic rational matrix certified to have the nonzero minors
    the quotient identities need (det(B) and every det(B(l|l))).

    Entries are signed draws k / b with k in [-b, b], b =
    denominator_bound, zeroed per density; rejection sampling continues the
    stream, up to 100 attempts.  If all 100 are rejected, the last one gets
    each diagonal entry set to (sum over j != i of |k_ij| + 1) / b, which
    may exceed 1.  That candidate is strictly diagonally dominant, so every
    principal submatrix is nonsingular (Levy-Desplanques) and it certifies.
    """
    from .identities import certify_general  # here, so that gen_substochastic loads no identities

    b = spec.denominator_bound

    def dominant(rows):
        return [[sum(map(abs, r)) - abs(r[i]) + Fraction(1, b) if j == i else x
                 for j, x in enumerate(r)] for i, r in enumerate(rows)]

    return _sample(spec, -b, lambda k, rng: [Fraction(kj, b) for kj in k],
                   certify_general, SingularSubmatrix, dominant)
