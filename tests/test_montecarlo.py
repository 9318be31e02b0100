import numpy as np
import pytest

from substoch import DenseMatrix, fundamental_matrix, validate_substochastic
from substoch.errors import IndexOutOfRange
from substoch.generators import GenSpec, SplitMix64, derive_seed, gen_substochastic
from substoch.kernels import walk_visits
from substoch.montecarlo import (
    WalkStatistics,
    crosscheck_fundamental,
    simulate_visits,
)


def sub(rows):
    return validate_substochastic(DenseMatrix.from_rows(rows))


P_EXAMPLE = [["1/2", "1/4"], ["1/3", "1/3"]]


def reference_walks(cum, start, trials, seed, cap):
    """Pure-Python re-implementation of the walk semantics, driven by the
    package SplitMix64; the kernel must reproduce it exactly."""
    n = cum.shape[0]
    visits = np.zeros((trials, n), dtype=np.int64)
    survivors = 0
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, t))
        pos = start
        visits[t, pos] += 1
        steps = 0
        absorbed = False
        while steps < cap:
            u = rng.next_unit()
            nxt = n
            for j in range(n):
                if u < cum[pos, j]:
                    nxt = j
                    break
            if nxt == n:
                absorbed = True
                break
            pos = nxt
            visits[t, pos] += 1
            steps += 1
        if not absorbed:
            survivors += 1
    return visits, survivors


def cum_rows(P):
    p = np.array(P.P.to_float().rows_as_lists(), dtype=np.float64)
    return np.cumsum(p, axis=1)


def test_numpy_kernel_matches_python_reference():
    P = sub(P_EXAMPLE)
    cum = cum_rows(P)
    ref_v, ref_s = reference_walks(cum, 0, 200, 9001, 10**6)
    v, s = walk_visits(cum, 0, 200, 9001, 10**6)
    assert np.array_equal(ref_v, v) and ref_s == s


def test_zero_matrix_immediate_absorption():
    P = sub([[0, 0], [0, 0]])
    stats = simulate_visits(P, 2, 1000, seed=5)
    assert stats.mean_visits == (0.0, 1.0)
    assert stats.ci_halfwidth == (0.0, 0.0)
    assert stats.cap_exceeded == 0


def test_simulate_deterministic_for_fixed_seed():
    P = sub(P_EXAMPLE)
    a = simulate_visits(P, 1, 5000, seed=123)
    b = simulate_visits(P, 1, 5000, seed=123)
    assert a == b
    c = simulate_visits(P, 1, 5000, seed=124)
    assert a.mean_visits != c.mean_visits


def test_simulate_validates_arguments():
    P = sub(P_EXAMPLE)
    with pytest.raises(IndexOutOfRange):
        simulate_visits(P, 0, 10, seed=1)
    with pytest.raises(IndexOutOfRange):
        simulate_visits(P, 3, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_visits(P, 1, 0, seed=1)


def test_start_state_visited_at_least_once():
    P = sub(P_EXAMPLE)
    stats = simulate_visits(P, 2, 2000, seed=55)
    assert stats.mean_visits[1] >= 1.0


def test_fundamental_row_recovered_within_three_halfwidths():
    P = sub(P_EXAMPLE)
    stats = simulate_visits(P, 1, 10**5, seed=2024)
    exact = (8 / 3, 1.0)
    for est, hw, target in zip(stats.mean_visits, stats.ci_halfwidth, exact):
        assert abs(est - target) <= 3 * hw


def test_cap_counts_instead_of_raising():
    P = sub(P_EXAMPLE)
    stats = simulate_visits(P, 1, 2000, seed=3, cap=1)
    assert stats.cap_exceeded > 0
    full = simulate_visits(P, 1, 2000, seed=3)
    assert full.cap_exceeded == 0


def test_crosscheck_zero_matrix_exact_match():
    P = sub([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    rep = crosscheck_fundamental(P, 500, seed=17)
    assert rep.passed and not rep.flags
    for c in rep.cells:
        assert c.estimate == c.exact


def test_crosscheck_symmetric_example():
    P = sub([[0, "1/2"], ["1/2", 0]])
    exact = fundamental_matrix(P)
    assert exact == DenseMatrix.from_rows([["4/3", "2/3"], ["2/3", "4/3"]])
    rep = crosscheck_fundamental(P, 10**5, seed=31, sigma=4.0)
    assert rep.passed


def test_crosscheck_flags_on_wrong_exact_values():
    # sanity: the flagging logic actually fires when estimates and exact
    # values disagree far beyond the half-widths
    P = sub(P_EXAMPLE)
    rep = crosscheck_fundamental(P, 4000, seed=77, sigma=1e-9)
    assert rep.flags  # essentially any statistical noise trips sigma ~ 0


def test_empirical_diagonal_dominance():
    # probabilistic shadow of diagonal maximality: visits to m from m exceed
    # visits to m from l != m, up to sigma-scaled noise
    for i in range(4):
        spec = GenSpec(n=4, seed=derive_seed(1700, i), max_row_sum="9/10")
        P = gen_substochastic(spec)
        stats = [simulate_visits(P, s, 20000, seed=derive_seed(55, s)) for s in range(1, 5)]
        for m in range(4):
            mean_mm = stats[m].mean_visits[m]
            hw_mm = stats[m].ci_halfwidth[m]
            for l in range(4):
                if l == m:
                    continue
                mean_lm = stats[l].mean_visits[m]
                hw_lm = stats[l].ci_halfwidth[m]
                assert mean_mm >= mean_lm - 4 * (hw_mm + hw_lm)


def test_single_state_chain():
    # geometric absorption: expected visits = 1/(1 - 1/2) = 2
    P = sub([["1/2"]])
    stats = simulate_visits(P, 1, 40000, seed=21)
    assert abs(stats.mean_visits[0] - 2.0) <= 4 * stats.ci_halfwidth[0]
    rep = crosscheck_fundamental(P, 40000, seed=21)
    assert rep.passed


def test_walk_statistics_fields():
    P = sub(P_EXAMPLE)
    stats = simulate_visits(P, 1, 100, seed=8)
    assert isinstance(stats, WalkStatistics)
    assert stats.start_state == 1 and stats.trials == 100 and stats.seed == 8
    assert len(stats.mean_visits) == 2 and len(stats.ci_halfwidth) == 2
    assert all(v >= 0 for v in stats.mean_visits)
