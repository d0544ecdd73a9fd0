"""Core state-machine semantics: phases, serving, the end of a run, replay."""

import random
import tracemalloc

import pytest

from delayedhits import (
    ANTIMONOTONE,
    InfeasibleEvictionError,
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    Simulation,
    make_policy,
    replay,
    simulate,
)
from delayedhits.policies import RandomEvictionPolicy, draw_policy
from delayedhits.traces import draw_instance


@pytest.mark.parametrize("delay", range(1, 11))
def test_cold_burst_costs_triangular_sum(delay):
    params = ModelParams(3, 2, delay)
    result = simulate(params, [3] * delay, LruPolicy())
    assert result.total_latency == delay * (delay + 1) // 2


def test_burst_latencies_count_down():
    result = simulate(ModelParams(3, 2, 3), [3, 3, 3], NeverCachePolicy())
    assert result.per_request_latency == [3, 2, 1]
    assert result.hit_sequence == [0, 0, 0]


def test_hit_is_free_and_leaves_state_alone():
    params = ModelParams(2, 2, 4)
    result = simulate(params, [1], LruPolicy())
    assert result.total_latency == 0
    assert result.hit_sequence == [1]
    assert result.cache_history == [frozenset({1, 2})] * 2


def test_everything_resident_never_misses():
    params = ModelParams(5, 3, 4)
    result = simulate(params, [1, 2, 3, 2, 1], LruPolicy())
    assert result.total_latency == 0


def test_replay_swaps_cache_at_retrieval():
    result = replay(ModelParams(2, 1, 2), [2, 0, 2], [0, 1, 0])
    assert result.per_request_latency == [2, 0, 0]
    assert result.total_latency == 2
    assert result.cache_history == [
        frozenset({1}),
        frozenset({1}),
        frozenset({2}),
        frozenset({2}),
    ]


def test_idle_slots_cost_nothing():
    result = simulate(ModelParams(3, 1, 4), [0, 0, 0], LruPolicy())
    assert result.total_latency == 0
    assert result.hit_sequence == [1, 1, 1]


def test_fetch_returning_past_the_end_costs_full_delay():
    # the only request returns well past the end of the trace
    result = simulate(ModelParams(2, 1, 5), [2], NeverCachePolicy())
    assert result.per_request_latency == [5]
    assert len(result.cache_history) == 2


def test_all_zero_replay_never_changes_cache():
    rng = random.Random(5)
    for _ in range(20):
        k, delay, n, seq = draw_instance(rng)
        result = replay(ModelParams(n, k, delay), seq, [0] * len(seq))
        assert set(result.cache_history) == {frozenset(range(1, k + 1))}


def test_nonresident_eviction_is_rejected():
    with pytest.raises(InfeasibleEvictionError) as err:
        replay(ModelParams(2, 1, 1), [2, 2], [2, 0])
    assert err.value.timestep == 1
    assert err.value.item == 2


def test_eviction_without_insertion_opportunity_is_rejected():
    # t=1 is idle: nothing returns, so a nonzero eviction there is infeasible
    with pytest.raises(InfeasibleEvictionError) as err:
        replay(ModelParams(2, 1, 1), [0, 2], [1, 0])
    assert err.value.timestep == 1


def test_replay_names_the_earliest_infeasible_eviction():
    # t=1 is idle, so evicting 1 there is infeasible; the eviction of the
    # non-resident 2 at t=2 is infeasible too, but it comes later
    with pytest.raises(InfeasibleEvictionError) as err:
        replay(ModelParams(2, 1, 1), [0, 2], [1, 2])
    assert (err.value.timestep, err.value.item) == (1, 1)


def test_replay_length_mismatch():
    with pytest.raises(ValueError):
        replay(ModelParams(2, 1, 1), [1, 2], [0])


def test_sequence_validation():
    with pytest.raises(ValueError):
        simulate(ModelParams(2, 1, 1), [3], LruPolicy())


def test_request_phase_rejects_item_outside_universe():
    with pytest.raises(ValueError, match=r"^item 4 outside 0\.\.3$"):
        Simulation(ModelParams(3, 1, 1)).request_phase(4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_items=0, cache_size=1, delay=1),
        dict(num_items=1, cache_size=0, delay=1),
        dict(num_items=1, cache_size=1, delay=0),
        dict(num_items=1, cache_size=1, delay=1, mode="bogus"),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_identical_runs_are_identical():
    rng = random.Random(11)
    for _ in range(25):
        k, delay, n, seq = draw_instance(rng)
        policy = draw_policy(rng, seq, k, n)
        params = ModelParams(n, k, delay)
        first = simulate(params, seq, policy)
        second = simulate(params, seq, policy)
        assert first == second


def test_delay_one_collapses_to_classical_caching():
    rng = random.Random(23)
    for _ in range(50):
        k, _, n, seq = draw_instance(rng)
        policy = draw_policy(rng, seq, k, n)
        result = simulate(ModelParams(n, k, 1), seq, policy)
        misses = sum(1 for item, bit in zip(seq, result.hit_sequence) if item and not bit)
        assert result.total_latency == misses


def test_latency_range_and_hit_zero_link():
    rng = random.Random(37)
    for _ in range(50):
        k, delay, n, seq = draw_instance(rng)
        policy = draw_policy(rng, seq, k, n)
        result = simulate(ModelParams(n, k, delay), seq, policy)
        for item, bit, lat in zip(seq, result.hit_sequence, result.per_request_latency):
            assert 0 <= lat <= delay
            if item == 0 or bit == 1:
                assert lat == 0
            else:
                assert lat >= 1


def test_cache_stays_exactly_full():
    rng = random.Random(41)
    for _ in range(25):
        k, delay, n, seq = draw_instance(rng)
        result = simulate(ModelParams(n, k, delay), seq, LruPolicy())
        assert all(len(state) == k for state in result.cache_history)


def test_fetch_on_hit_serves_a_later_miss():
    # hit at t=3 dispatches in the antimonotone variant; after the eviction
    # at t=3's retrieval, the re-request at t=4 rides that fetch
    seq, evictions = [1, 2, 1, 1], [0, 0, 1, 0]
    standard = replay(ModelParams(2, 1, 2), seq, evictions)
    fetch_on_hit = replay(ModelParams(2, 1, 2, ANTIMONOTONE), seq, evictions)
    assert standard.per_request_latency == [0, 2, 0, 2]
    assert fetch_on_hit.per_request_latency == [0, 2, 0, 1]
    assert standard.hit_sequence == fetch_on_hit.hit_sequence == [1, 0, 1, 0]


def test_fetch_on_hit_never_slower_under_same_schedule():
    # a schedule feasible for the standard model replays identically in the
    # fetch-on-hit variant (same cache states, same hits), only faster
    rng = random.Random(43)
    for _ in range(60):
        k, delay, n, seq = draw_instance(rng)
        params = ModelParams(n, k, delay)
        schedule = simulate(params, seq, RandomEvictionPolicy(rng.randrange(2**30)))
        standard = replay(params, seq, schedule.eviction_sequence)
        variant = replay(
            ModelParams(n, k, delay, ANTIMONOTONE), seq, schedule.eviction_sequence
        )
        assert variant.hit_sequence == standard.hit_sequence
        assert variant.cache_history == standard.cache_history
        for fast, slow in zip(variant.per_request_latency, standard.per_request_latency):
            assert fast <= slow


def test_empty_trace():
    result = simulate(ModelParams(2, 1, 3), [], LruPolicy())
    assert result.total_latency == 0
    assert result.cache_history == [frozenset({1})]


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_huge_sparse_ids_allocate_nothing_per_id(policy):
    # ids are unbounded: nothing may be sized by an id's value
    huge = 99999999999
    rng = random.Random(8)
    seq = [rng.choice([0, 1, 2, 3, 5, huge - 1, huge]) for _ in range(1000)]
    params = ModelParams(10**11, 3, 4)
    tracemalloc.start()
    try:
        run = simulate(params, seq, make_policy(policy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge in run.cache_history[-1] or huge in run.eviction_sequence
    assert peak < 1_000_000
