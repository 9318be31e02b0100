from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoch import DenseMatrix, generators, validate_substochastic
from substoch.errors import SingularSubmatrix, ValidationError
from substoch.generators import (
    MAX_ATTEMPTS,
    GenSpec,
    SplitMix64,
    derive_seed,
    gen_general,
    gen_substochastic,
    mix64,
)
from substoch.identities import certify_general
from substoch.substochastic import Certification


def test_splitmix64_reference_vector():
    # canonical outputs of the published splitmix64 for state 1234567;
    # pins the generator so other implementations can reproduce instances
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_wraps_seed():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


@pytest.mark.parametrize("bound", [0, -1])
def test_next_below_needs_a_positive_bound(bound):
    with pytest.raises(ValueError, match="^bound must be positive$"):
        SplitMix64(1).next_below(bound)


def test_next_unit_in_range():
    rng = SplitMix64(9)
    for _ in range(100):
        u = rng.next_unit()
        assert 0.0 <= u < 1.0


def test_derive_seed_deterministic_and_spread():
    seeds = [derive_seed(42, i) for i in range(100)]
    assert seeds == [derive_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert mix64(0) != mix64(1)


def test_genspec_validation():
    for fields, message in [
        (dict(n=0), "n must be >= 1"),
        (dict(density=Fraction(3, 2)), r"density must lie in \[0, 1\]"),
        (dict(density="-1/2"), r"density must lie in \[0, 1\]"),
        (dict(max_row_sum=0), r"max_row_sum must lie in \(0, 1\]"),
        (dict(max_row_sum="11/10"), r"max_row_sum must lie in \(0, 1\]"),
        (dict(denominator_bound=0), "denominator_bound must be >= 1"),
        (dict(density="abc"), "Invalid literal for Fraction: 'abc'"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            GenSpec(**{"n": 2, "seed": 1, **fields})


def test_genspec_coerces_density_exactly():
    spec = GenSpec(n=2, seed=1, density=0.5, max_row_sum="3/4")
    assert spec.density == Fraction(1, 2)
    assert spec.max_row_sum == Fraction(3, 4)
    spec = GenSpec(3, 1, 1, "9/10")
    assert type(spec.density) is type(spec.max_row_sum) is Fraction
    assert spec == GenSpec(n=3, seed=1, max_row_sum=Fraction(9, 10))
    assert repr(spec) == (
        "GenSpec(n=3, seed=1, density=Fraction(1, 1), max_row_sum=Fraction(9, 10), "
        "denominator_bound=16)"
    )


def test_gen_substochastic_deterministic():
    spec = GenSpec(n=4, seed=42)
    assert gen_substochastic(spec).P == gen_substochastic(spec).P


def test_gen_substochastic_frozen_instance():
    # pins the whole generation algorithm, not just the RNG
    P = gen_substochastic(GenSpec(n=3, seed=9)).P
    expected = DenseMatrix.from_rows(
        [
            ["3/32", "3/32", "1/4"],
            ["7/32", "1/16", "3/32"],
            ["7/124", "3/31", "3/31"],
        ]
    )
    assert P == expected


def test_gen_general_frozen_instance():
    G = gen_general(GenSpec(n=3, seed=9))
    expected = DenseMatrix.from_rows(
        [
            ["-3/4", "-1/16", "-1"],
            ["-9/16", "-1/16", "-1"],
            ["7/16", "-7/8", "1/8"],
        ]
    )
    assert G.B == expected
    assert G.det == Fraction(339, 2048)


def test_gen_substochastic_density_zero_gives_zero_matrix():
    P = gen_substochastic(GenSpec(n=3, seed=5, density=0)).P
    assert P == DenseMatrix.zeros(3, 3)


def test_gen_substochastic_n1_contract():
    P = gen_substochastic(GenSpec(n=1, seed=3, max_row_sum="1/2")).P
    assert 0 <= P.at(1, 1) <= Fraction(1, 2)


def test_gen_substochastic_row_sums_bounded():
    for i in range(20):
        spec = GenSpec(n=4, seed=derive_seed(500, i), max_row_sum="2/3")
        P = gen_substochastic(spec).P
        for r in range(1, 5):
            assert sum(P.row(r)) <= Fraction(2, 3)


def test_gen_substochastic_revalidates():
    for i in range(30):
        sub = gen_substochastic(GenSpec(n=5, seed=derive_seed(600, i)))
        revalidated = validate_substochastic(sub.P)
        assert revalidated.certification == sub.certification


def test_gen_substochastic_hits_m_matrix_path():
    # with max_row_sum = 1 some instances certify via the M-matrix test
    from substoch import Certification

    certs = {
        gen_substochastic(GenSpec(n=3, seed=derive_seed(700, i))).certification
        for i in range(60)
    }
    assert Certification.M_MATRIX in certs
    assert Certification.ROW_SUM_STRICT in certs


def test_gen_general_deterministic_and_certified():
    spec = GenSpec(n=4, seed=7)
    G1 = gen_general(spec)
    G2 = gen_general(spec)
    assert G1.B == G2.B
    recheck = certify_general(DenseMatrix.from_rows(G1.B.rows_as_lists()))
    assert recheck.det == G1.det


def test_gen_general_n1_nonzero():
    for i in range(10):
        G = gen_general(GenSpec(n=1, seed=derive_seed(800, i)))
        assert G.B.at(1, 1) != 0


def test_gen_general_batch_recertifies():
    for i in range(40):
        n = 2 + i % 5
        G = gen_general(GenSpec(n=n, seed=derive_seed(900, i)))
        certify_general(G.B)  # must not raise


# -- the draw order against a reference -------------------------------------


def _reference_candidates(spec, kind):
    """The candidates of the one-Fraction-per-draw algorithm the generators
    must reproduce: per entry a keep draw, then a magnitude draw k / b if
    kept; substochastic rows then take one row-sum draw r and are scaled
    by max_row_sum (r / b) over their sum."""
    rng = SplitMix64(spec.seed)
    bound = spec.denominator_bound
    threshold = (spec.density.numerator << 64) // spec.density.denominator
    while True:
        rows = []
        for _i in range(spec.n):
            row = []
            for _j in range(spec.n):
                if rng.next_u64() < threshold:
                    if kind == "substochastic":
                        row.append(Fraction(rng.next_below(bound + 1), bound))
                    else:
                        row.append(Fraction(rng.next_below(2 * bound + 1) - bound, bound))
                else:
                    row.append(Fraction(0))
            if kind == "substochastic":
                target = spec.max_row_sum * Fraction(rng.next_below(bound + 1), bound)
                total = sum(row)
                if total:
                    factor = target / total
                    row = [a * factor for a in row]
            rows.append(row)
        yield DenseMatrix.from_rows(rows)


def _fallback(M, kind, bound):
    """M with every entry halved (substochastic), or with each diagonal
    entry set to its row's other |entries| plus 1 / bound (general)."""
    rows = M.rows_as_lists()
    for i, row in enumerate(rows):
        if kind == "substochastic":
            row[:] = [x / 2 for x in row]
        else:
            row[i] = sum(abs(x) for j, x in enumerate(row) if j != i) + Fraction(1, bound)
    return DenseMatrix.from_rows(rows)


def _reference(spec, kind):
    """(attempt that certified, its matrix) or, after MAX_ATTEMPTS
    rejections, (None, the last candidate's fallback)."""
    if kind == "substochastic":
        certify, reject = validate_substochastic, ValidationError
    else:
        certify, reject = certify_general, SingularSubmatrix
    for attempt, M in zip(range(MAX_ATTEMPTS), _reference_candidates(spec, kind)):
        try:
            certify(M)
        except reject:
            continue
        return attempt, M
    return None, _fallback(M, kind, spec.denominator_bound)


def _generated(spec, kind):
    return gen_substochastic(spec).P if kind == "substochastic" else gen_general(spec).B


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["substochastic", "general"]),
    st.builds(
        GenSpec,
        n=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        density=st.sampled_from(["0", "1/4", "1/2", "1"]),
        max_row_sum=st.sampled_from(["1", "9/10", "1/3"]),
        denominator_bound=st.sampled_from([1, 7, 16, 10**6]),
    ),
)
def test_generators_follow_reference_draw_order(kind, spec):
    assert _generated(spec, kind) == _reference(spec, kind)[1]


@pytest.mark.parametrize(
    "kind, spec, attempt",
    [
        # max_row_sum 1: a candidate can fail the spectral-radius test
        ("substochastic", GenSpec(n=2, seed=4, denominator_bound=1), 2),
        # density 1/2: a candidate can have det(B) or some det(B(l|l)) zero
        ("general", GenSpec(n=3, seed=1, density="1/2", denominator_bound=1), 22),
    ],
)
def test_generators_retry_on_the_same_stream(kind, spec, attempt):
    found, M = _reference(spec, kind)
    assert found == attempt
    assert _generated(spec, kind) == M


def test_gen_substochastic_falls_back_to_the_last_candidate_halved(monkeypatch):
    # a substochastic candidate is rejected only when its spectral radius
    # is 1, which 100 draws in a row practically never give: reject the
    # first MAX_ATTEMPTS, then certify for real
    calls = []

    def reject_then_certify(M):
        calls.append(M)
        if len(calls) <= MAX_ATTEMPTS:
            raise ValidationError("rejected")
        return validate_substochastic(M)

    monkeypatch.setattr(generators, "validate_substochastic", reject_then_certify)
    S = gen_substochastic(GenSpec(n=4, seed=1))
    last = calls[MAX_ATTEMPTS - 1]
    assert len(calls) == MAX_ATTEMPTS + 1 and calls[-1] == S.P
    assert S.P == last.scale(Fraction(1, 2)) == _fallback(last, "substochastic", 16) != last
    assert S.certification is Certification.ROW_SUM_STRICT


@pytest.mark.parametrize(
    "spec",
    [
        # no all-zero candidate has det(B) != 0: the fallback is I / 16
        GenSpec(n=2, seed=1, density=0),
        # sparse: 100 rejections at n = 5, density 1/4 (an instance of
        # `falsify --identity all --n 2..5 --count 6 --seed 17 --density 1/4`)
        GenSpec(n=5, seed=12055495660123309877, density="1/4"),
    ],
)
def test_gen_general_falls_back_to_a_dominant_candidate(spec):
    G = gen_general(spec)
    assert _reference(spec, "general") == (None, G.B)
    for i, row in enumerate(G.B.rows_as_lists()):
        assert abs(row[i]) > sum(abs(x) for j, x in enumerate(row) if j != i)
    if spec.density == 0:
        assert G.B == DenseMatrix.identity(2).scale(Fraction(1, 16))
