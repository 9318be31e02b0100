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

from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationExhausted, SingularSubmatrix, ValidationError
from .identities import certify_general
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


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one deterministic random instance.

    density is the keep-probability per entry; max_row_sum bounds (and sets
    the scale of) each row's sum; entries are drawn on the grid
    k / denominator_bound before exact row scaling.
    """

    n: int
    seed: int
    density: Fraction = Fraction(1)
    max_row_sum: Fraction = Fraction(1)
    denominator_bound: int = 16

    def __post_init__(self):
        object.__setattr__(self, "density", Fraction(self.density))
        object.__setattr__(self, "max_row_sum", Fraction(self.max_row_sum))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0, 1]")
        if not 0 < self.max_row_sum <= 1:
            raise ValueError("max_row_sum must lie in (0, 1]")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be >= 1")


MAX_ATTEMPTS = 100


def _keep_threshold(density: Fraction) -> int:
    return (density.numerator << 64) // density.denominator


def gen_substochastic(spec: GenSpec) -> SubstochasticMatrix:
    """Deterministic certified substochastic instance for a GenSpec.

    Draw order (one SplitMix64 stream seeded with spec.seed), row-major:
    per entry one keep/zero draw, then one magnitude draw if kept; per row
    one row-sum draw.  Rows are scaled exactly so row i sums to
    max_row_sum * r_i / denominator_bound.  When certification fails
    (possible only via the spectral-radius test when max_row_sum is 1) the
    same stream keeps drawing, up to 100 attempts.
    """
    rng = SplitMix64(spec.seed)
    bound = spec.denominator_bound
    threshold = _keep_threshold(spec.density)
    for _ in range(MAX_ATTEMPTS):
        rows = []
        for _i in range(spec.n):
            raw = []
            for _j in range(spec.n):
                if rng.next_u64() < threshold:
                    raw.append(Fraction(rng.next_below(bound + 1), bound))
                else:
                    raw.append(Fraction(0))
            target = spec.max_row_sum * Fraction(rng.next_below(bound + 1), bound)
            total = sum(raw)
            if total:
                factor = target / total
                raw = [a * factor for a in raw]
            rows.append(raw)
        try:
            return validate_substochastic(DenseMatrix.from_rows(rows, EXACT))
        except ValidationError:
            continue
    raise GenerationExhausted(
        f"no certifiable substochastic matrix within {MAX_ATTEMPTS} attempts for {spec}"
    )


def gen_general(spec: GenSpec):
    """Deterministic rational matrix certified to have the nonzero minors
    the quotient identities need (det(B) and every det(B(l|l))).

    Entries are signed draws k / denominator_bound with k in
    [-denominator_bound, denominator_bound], zeroed per density; rejection
    sampling continues the stream, up to 100 attempts.
    """
    rng = SplitMix64(spec.seed)
    bound = spec.denominator_bound
    threshold = _keep_threshold(spec.density)
    for _ in range(MAX_ATTEMPTS):
        rows = []
        for _i in range(spec.n):
            row = []
            for _j in range(spec.n):
                if rng.next_u64() < threshold:
                    k = rng.next_below(2 * bound + 1) - bound
                    row.append(Fraction(k, bound))
                else:
                    row.append(Fraction(0))
            rows.append(row)
        try:
            return certify_general(DenseMatrix.from_rows(rows, EXACT))
        except SingularSubmatrix:
            continue
    raise GenerationExhausted(
        f"no certifiable general matrix within {MAX_ATTEMPTS} attempts for {spec}"
    )
