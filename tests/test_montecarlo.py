import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from substoch import DenseMatrix, fundamental_matrix, validate_substochastic, montecarlo
from substoch.errors import IndexOutOfRange
from substoch.generators import GenSpec, SplitMix64, derive_seed, gen_substochastic
from substoch.kernels import GUIDE_BITS, KEY_BITS, WalkTable, walk_visits
from substoch.montecarlo import (
    CHUNK_TRIALS,
    WalkStatistics,
    crosscheck_fundamental,
    simulate_visits,
)

from .forking import fake_cpus, fork_counter


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
    with pytest.raises(ValueError):
        simulate_visits(P, 1, 10, seed=1, cap=0)
    for sigma in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError):
            crosscheck_fundamental(P, 10, seed=1, sigma=sigma)


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


def sample_statistics(visits):
    """Mean and 95% half-width of each column of a whole visit matrix, by
    the float formulas simulate_visits has always used."""
    trials = visits.shape[0]
    sums = visits.sum(axis=0).astype(np.float64)
    sumsq = (visits.astype(np.float64) ** 2).sum(axis=0)
    var = np.maximum(sumsq - sums * sums / trials, 0.0) / max(trials - 1, 1)
    halfwidth = montecarlo.CONFIDENCE_Z * np.sqrt(var / trials)
    return tuple((sums / trials).tolist()), tuple(halfwidth.tolist())


@pytest.mark.parametrize("cap", [10**6, 1, 3])
def test_chunks_joined_by_trial_offset_equal_one_call(cap):
    cum = cum_rows(sub(P_EXAMPLE))
    whole, whole_survivors = walk_visits(cum, 1, 1000, 77, cap)
    parts = [walk_visits(cum, 1, size, 77, cap, first) for first, size in ((0, 300), (300, 1), (301, 699))]
    assert np.array_equal(np.vstack([v for v, _ in parts]), whole)
    assert sum(s for _, s in parts) == whole_survivors


def test_streamed_statistics_over_several_chunks_equal_one_call():
    P = sub(P_EXAMPLE)
    trials = 2 * CHUNK_TRIALS + 5
    visits, survivors = walk_visits(cum_rows(P), 0, trials, 4242, 10**6)
    stats = simulate_visits(P, 1, trials, seed=4242)
    assert (stats.mean_visits, stats.ci_halfwidth) == sample_statistics(visits)
    assert stats.cap_exceeded == survivors == 0
    assert stats.moves == int(visits.sum()) - trials


@pytest.mark.parametrize("cap", [10**6, 1, 3])
def test_simulate_visits_matches_python_reference_across_chunks(monkeypatch, cap):
    # 300 trials in chunks of 64: four full chunks and one of 44
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 64)
    P = sub(P_EXAMPLE)
    ref, ref_survivors = reference_walks(cum_rows(P), 0, 300, 9001, cap)
    stats = simulate_visits(P, 1, 300, seed=9001, cap=cap)
    assert (stats.mean_visits, stats.ci_halfwidth) == sample_statistics(ref)
    assert stats.cap_exceeded == ref_survivors
    assert stats.moves == int(ref.sum()) - 300
    assert stats.longest_walk == int(ref.sum(axis=1).max()) - 1
    if cap < 10**6:
        assert ref_survivors > 0 and stats.longest_walk == cap


def test_lookup_exact_on_and_beside_every_threshold():
    rows = [
        [0.0, 0.5, 0.0, 0.25],  # zero entries: repeated thresholds
        [float(Fraction(9, 28)), float(Fraction(18, 28)), float(Fraction(1, 28)), 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [2.0**-60, 2.0**-53, 3 * 2.0**-44, 0.1],  # several thresholds in bucket 0
    ]
    cum = np.cumsum(np.array(rows), axis=1)
    assert cum[1, 2] > 1.0  # the float cumsum of a row summing to 1 rounds above 1
    table = WalkTable(cum)
    top = 1 << KEY_BITS
    spread = np.random.default_rng(5)
    for i in range(4):
        thresholds = np.ceil(cum[i] * 2.0**KEY_BITS).astype(np.int64).tolist()
        edges = [b << (KEY_BITS - GUIDE_BITS) for b in range(1 << GUIDE_BITS)]
        keys = {k + d for k in thresholds + edges for d in (-1, 0, 1)}
        keys.update(int(k) for k in spread.integers(0, top, 2000))
        keys = np.array(sorted(k for k in keys if 0 <= k < top), dtype=np.uint64)
        low = spread.integers(0, 1 << 11, keys.size).astype(np.uint64)
        z = (keys << np.uint64(11)) | low
        state = np.full(keys.size, i, dtype=np.intp)
        u = keys.astype(np.float64) * 2.0**-53
        expected = (cum[i][None, :] <= u[:, None]).sum(axis=1)
        assert np.array_equal(table.next_states(state, z), expected)


def test_memory_flat_in_trials():
    P = gen_substochastic(GenSpec(n=16, seed=derive_seed(31, 0), max_row_sum="1/2"))

    def peak(trials):
        tracemalloc.start()
        try:
            simulate_visits(P, 1, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(400_000)
    assert large < 1.25 * small  # one chunk's arrays, whatever the trial count


@pytest.mark.parametrize("cap", [1, 3, 10**6])
@pytest.mark.parametrize("trials", [1, 7, 3 * 4 + 5])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_results_do_not_depend_on_worker_count(monkeypatch, n, trials, cap):
    # chunks of 4 trials: 17 trials make 5 chunk jobs per start
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 4)
    P = gen_substochastic(GenSpec(n=n, seed=derive_seed(12, n), max_row_sum="9/10"))
    forks = fork_counter(monkeypatch)

    def run(cpus):
        pins = fake_cpus(monkeypatch, cpus)
        single = tuple(simulate_visits(P, s, trials, derive_seed(99, s - 1), cap) for s in range(1, n + 1))
        forks.clear()
        rep = crosscheck_fundamental(P, trials, seed=99, cap=cap)
        workers = min(cpus, n * -(-trials // 4)) - 1
        assert len(forks) == workers
        assert pins[-2:] == ([{0}, {0, 1}] if workers else [])
        return single, rep

    sequential, rep1 = run(1)
    single2, rep2 = run(2)
    assert rep1.stats == rep2.stats == single2 == sequential
    assert rep1.cells == rep2.cells
    assert rep1.cap_exceeded == rep2.cap_exceeded == sum(st.cap_exceeded for st in sequential)
