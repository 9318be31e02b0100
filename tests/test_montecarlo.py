import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoch import DenseMatrix, fundamental_matrix, kernels, validate_substochastic, montecarlo, verify_all
from substoch.cli import MAX_COUNT
from substoch.errors import IndexOutOfRange
from substoch.generators import MASK64, GenSpec, SplitMix64, derive_seed, gen_substochastic, mix64
from substoch.kernels import GUIDE_BITS, KEY_BITS, WalkTable, WalkTally, walk_visits
from substoch.montecarlo import (
    CHUNK_CELLS,
    WalkStatistics,
    crosscheck_fundamental,
    simulate_visits,
)
from substoch.substochastic import MaximalityWitness, check_diagonal_maximality

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


def test_frozen_records_refuse_assignment():
    P = sub(P_EXAMPLE)
    rep = crosscheck_fundamental(P, 100, seed=8)
    N = P.fundamental
    records = [
        (GenSpec(n=2, seed=1), "n"),
        (P, "P"),
        (P, "fundamental"),
        (check_diagonal_maximality(P), "holds"),
        (MaximalityWitness(2, 1, Fraction(1, 3), Fraction(1, 2)), "row"),
        (verify_all(P)[0], "lhs"),
        (rep, "seed"),
        (rep.stats[0], "trials"),
        (rep.cells[0], "flagged"),
    ]
    for record, field in records:
        for name in (field, "note"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert P.fundamental is N


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
    trials = 2 * (CHUNK_CELLS // 16) + 5  # chunks of CHUNK_CELLS // 16 trials below 16 states
    visits, survivors = walk_visits(cum_rows(P), 0, trials, 4242, 10**6)
    stats = simulate_visits(P, 1, trials, seed=4242)
    assert (stats.mean_visits, stats.ci_halfwidth) == sample_statistics(visits)
    assert stats.cap_exceeded == survivors == 0
    assert stats.moves == int(visits.sum()) - trials


@pytest.mark.parametrize("cap", [10**6, 1, 3])
def test_simulate_visits_matches_python_reference_across_chunks(monkeypatch, cap):
    # 300 trials in chunks of 64: four full chunks and one of 44
    monkeypatch.setattr(montecarlo, "CHUNK_CELLS", 64 * 16)
    P = sub(P_EXAMPLE)
    ref, ref_survivors = reference_walks(cum_rows(P), 0, 300, 9001, cap)
    stats = simulate_visits(P, 1, 300, seed=9001, cap=cap)
    assert (stats.mean_visits, stats.ci_halfwidth) == sample_statistics(ref)
    assert stats.cap_exceeded == ref_survivors
    assert stats.moves == int(ref.sum()) - 300
    assert stats.longest_walk == int(ref.sum(axis=1).max()) - 1
    if cap < 10**6:
        assert ref_survivors > 0 and stats.longest_walk == cap


def revisiting_cum(weights, leaks):
    """Cumulative float rows of the weights, row i over sum + leaks[i]: a
    leak of 0 makes the row sum to 1, and the last row always leaks."""
    p = np.array(weights, dtype=np.float64)
    return np.cumsum(p / (p.sum(axis=1) + np.array(leaks, dtype=np.float64))[:, None], axis=1)


def reference_tally(cum, start, first, trials, seed, cap):
    """Visits, tally fields and survivors of trials first .. first+trials-1
    by reference_walks."""
    ref, survivors = reference_walks(cum, start, first + trials, seed, cap)
    survivors -= reference_walks(cum, start, first, seed, cap)[1]
    ref = ref[first:]
    walks = ref.sum(axis=1) - 1
    return ref, (ref.sum(axis=0).tolist(), (ref * ref).sum(axis=0).tolist(),
                 int(walks.sum()), int(walks.max()), survivors)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tally_matches_python_reference(data):
    n = data.draw(st.integers(1, 6), label="n")
    weights = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    leaks = data.draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n, max_size=n))
    leaks[-1] = max(leaks[-1], 1)
    for i in range(n):  # every row reaches the last, leaking state: walks end
        weights[i][-1] = max(weights[i][-1], 1)
    cum = revisiting_cum(weights, leaks)
    start = data.draw(st.integers(0, n - 1), label="start")
    first, trials = data.draw(st.integers(0, 20), label="first"), data.draw(st.integers(1, 30), label="trials")
    split = data.draw(st.integers(0, trials), label="split")
    seed = data.draw(st.integers(0, MASK64), label="seed")
    cap = data.draw(st.sampled_from([1, 3, 10**6]), label="cap")
    ref, expected = reference_tally(cum, start, first, trials, seed, cap)
    tally = WalkTally(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    parts = [walk_visits(cum, start, size, seed, cap, at, tally=tally)
             for at, size in ((first, split), (first + split, trials - split)) if size]
    assert np.array_equal(np.vstack([v for v, _ in parts]), ref)
    got = (tally.sums.tolist(), tally.squares.tolist(), tally.moves, tally.longest, sum(s for _, s in parts))
    assert got == expected


@pytest.mark.parametrize("cap", [20, 10**6])
def test_events_counted_several_times_a_chunk_equal_the_reference(cap):
    # long walks: the events outnumber the 6 * 5 cells several times over
    cum = revisiting_cum([[1, 2, 0, 1, 1], [3, 1, 1, 0, 1], [0, 1, 1, 1, 1], [1, 0, 2, 3, 1], [1, 1, 1, 1, 1]],
                         [0, 0, 0, 0, 1])
    ref, expected = reference_tally(cum, 2, 5, 6, 2024, cap)
    tally = WalkTally(np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64))
    with mock.patch.object(kernels, "_count", wraps=kernels._count) as count:
        visits, survivors = walk_visits(cum, 2, 6, 2024, cap, 5, tally=tally)
    assert count.call_count >= 3
    assert np.array_equal(visits, ref)
    assert (tally.sums.tolist(), tally.squares.tolist(), tally.moves, tally.longest, survivors) == expected


@pytest.mark.parametrize(
    "cum, message",
    [
        (np.zeros((2, 3)), "cumulative rows must be (n, n) with 1 <= n <= 2047"),
        # a read-only view of one zero: the shape is refused before any row is read
        (np.broadcast_to(np.float64(0), (2048, 2048)), "cumulative rows must be (n, n) with 1 <= n <= 2047"),
        ([[0.5, 0.25], [0.0, 1.0]], "cumulative rows must be non-decreasing and free of NaN"),
        ([[0.5, float("nan")], [0.0, 1.0]], "cumulative rows must be non-decreasing and free of NaN"),
    ],
    ids=["not square", "over MAX_STATES", "decreasing", "NaN"],
)
def test_walk_table_input_guards(cum, message):
    with pytest.raises(ValueError) as info:
        WalkTable(cum)
    assert str(info.value) == message


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
    finished = 0
    for i in range(4):
        thresholds = np.ceil(cum[i] * 2.0**KEY_BITS).astype(np.int64).tolist()
        edges = [b << (KEY_BITS - GUIDE_BITS) for b in range(1 << GUIDE_BITS)]
        keys = {k + d for k in thresholds + edges for d in (-1, 0, 1)}
        keys.update(int(k) for k in spread.integers(0, top, 2000))
        span = 1 << (KEY_BITS - GUIDE_BITS)  # and 20 keys in each threshold's bucket
        keys.update(int(k) // span * span + int(d) for k in thresholds for d in spread.integers(0, span, 20))
        keys = np.array(sorted(k for k in keys if 0 <= k < top), dtype=np.uint64)
        low = spread.integers(0, 1 << 11, keys.size).astype(np.uint64)
        z = (keys << np.uint64(11)) | low
        # the draws enter as the split mix's head: undo its last step z ^= z >> 31
        head = z ^ (z >> np.uint64(31)) ^ (z >> np.uint64(62))
        assert np.array_equal(head ^ (head >> np.uint64(31)), z)
        assert np.array_equal(head >> np.uint64(54), z >> np.uint64(54))
        state = np.full(keys.size, i, dtype=np.intp)
        u = keys.astype(np.float64) * 2.0**-53
        expected = (cum[i][None, :] <= u[:, None]).sum(axis=1)
        assert np.array_equal(table.next_states(state, head), expected)
        misses = table.guide[(i << GUIDE_BITS) + (z >> np.uint64(54)).astype(np.intp)] < 0
        finished += int((head != z)[misses].sum())
    assert finished > 100  # so the misses must finish the mix to be exact


def test_split_mix_head_then_last_step_is_mix64():
    x = np.random.default_rng(7).integers(0, 1 << 63, 1000, dtype=np.uint64) * np.uint64(2)
    x[:3] = (0, 1, MASK64)
    head = kernels._mix64_head(x.copy())
    assert [int(h ^ (h >> np.uint64(31))) for h in head] == [mix64(int(v)) for v in x]


@pytest.mark.parametrize("block_cells", [1, 2 << GUIDE_BITS], ids=["a row a block", "two rows a block"])
def test_walk_table_built_in_blocks_equals_one_block(monkeypatch, block_cells):
    rows = [
        [0.0, 0.5, 0.0, 0.25, 0.0],
        # its float cumsum rounds above 1, so its last threshold, clipped to
        # 2**53, equals the lowest key of the next row, in the next block
        [float(Fraction(9, 28)), float(Fraction(18, 28)), float(Fraction(1, 28)), 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [2.0**-60, 2.0**-53, 3 * 2.0**-44, 0.1, 0.2],
        [0.2, 0.2, 0.2, 0.2, 0.2],
    ]
    cum = np.cumsum(np.array(rows), axis=1)
    whole = WalkTable(cum)
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
    blocks = WalkTable(cum)
    assert np.array_equal(blocks.thresholds, whole.thresholds)
    assert np.array_equal(blocks.guide, whole.guide)
    assert (blocks.guide < 0).any()  # some buckets fall back to the search


def test_walk_table_needs_little_beside_what_it_keeps():
    # at n = 1024 the thresholds and the guide are 8 MiB each
    n = 1024
    p = np.random.default_rng(31).random((n, n))
    cum = np.cumsum(p * (0.5 / p.sum(axis=1, keepdims=True)), axis=1)
    tracemalloc.start()
    try:
        table = WalkTable(cum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = table.thresholds.nbytes + table.guide.nbytes + table.offsets.nbytes
    assert kept >= 16 << 20 and peak <= 1.5 * kept


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


def test_memory_flat_in_n(monkeypatch):
    def peak(n):
        P = gen_substochastic(GenSpec(n=n, seed=derive_seed(31, 0), max_row_sum="1/2"))
        # the table (n**2 thresholds, n * 2**10 guide entries) is input, not a chunk
        table = montecarlo.walk_table(P)
        monkeypatch.setattr(montecarlo, "walk_table", lambda _: table)
        tracemalloc.start()
        try:
            simulate_visits(P, 1, 50_000, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(256) < 1.25 * peak(16)  # one chunk of CHUNK_CELLS cells, whatever n


def test_chunk_jobs_are_numbered_not_listed(monkeypatch):
    P = sub(P_EXAMPLE)
    dealt = []

    def fake_forked_map(fn, jobs):
        dealt.append(jobs)
        return [np.zeros((P.n, 2 * P.n + 3), dtype=np.int64)]

    monkeypatch.setattr(montecarlo, "forked_map", fake_forked_map)
    crosscheck_fundamental(P, MAX_COUNT, seed=5)
    chunk = CHUNK_CELLS // 16
    assert dealt == [range(P.n * -(-MAX_COUNT // chunk))]


@pytest.mark.parametrize("cap", [1, 3, 10**6])
@pytest.mark.parametrize("trials", [1, 7, 3 * 4 + 5])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_results_do_not_depend_on_worker_count(monkeypatch, n, trials, cap):
    # chunks of 4 trials: 17 trials make 5 chunk jobs per start
    monkeypatch.setattr(montecarlo, "CHUNK_CELLS", 4 * 16)
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
