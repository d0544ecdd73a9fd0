"""Core state-machine semantics: phases, serving, the end of a run, replay."""

import copy
import pickle
import random

import pytest

from delayedhits import (
    ANTIMONOTONE,
    STANDARD,
    FifoPolicy,
    InfeasibleEvictionError,
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    ReductionPolicy,
    Simulation,
    cache_history,
    make_policy,
    reduction_outer_params,
    replay,
    simulate,
)
from delayedhits.policies import POLICIES, RandomEvictionPolicy, draw_policy
from delayedhits.traces import draw_instance, random_sequence

from conftest import paused_run, traced_peak


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
    assert cache_history(params, [1], result.eviction_sequence) == [frozenset({1, 2})] * 2


def test_everything_resident_never_misses():
    params = ModelParams(5, 3, 4)
    result = simulate(params, [1, 2, 3, 2, 1], LruPolicy())
    assert result.total_latency == 0


def test_replay_swaps_cache_at_retrieval():
    params, seq = ModelParams(2, 1, 2), [2, 0, 2]
    result = replay(params, seq, [0, 1, 0])
    assert result.per_request_latency == [2, 0, 0]
    assert result.total_latency == 2
    assert cache_history(params, seq, result.eviction_sequence) == [
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
    params = ModelParams(2, 1, 5)
    result = simulate(params, [2], NeverCachePolicy())
    assert result.per_request_latency == [5]
    assert len(cache_history(params, [2], result.eviction_sequence)) == 2


def test_all_zero_replay_never_changes_cache():
    rng = random.Random(5)
    for _ in range(20):
        k, delay, n, seq = draw_instance(rng)
        params = ModelParams(n, k, delay)
        result = replay(params, seq, [0] * len(seq))
        history = cache_history(params, seq, result.eviction_sequence)
        assert set(history) == {frozenset(range(1, k + 1))}


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


@pytest.mark.parametrize("run", [replay, cache_history], ids=lambda run: run.__name__)
def test_replay_names_the_earliest_infeasible_eviction(run):
    # t=1 is idle, so evicting 1 there is infeasible; the eviction of the
    # non-resident 2 at t=2 is infeasible too, but it comes later
    with pytest.raises(InfeasibleEvictionError) as err:
        run(ModelParams(2, 1, 1), [0, 2], [1, 2])
    assert (err.value.timestep, err.value.item) == (1, 1)
    assert str(err.value) == (
        "infeasible eviction of item 1 at t=1: no insertion opportunity: nothing returned")


@pytest.mark.parametrize("run", [replay, cache_history], ids=lambda run: run.__name__)
def test_replay_length_mismatch(run):
    with pytest.raises(ValueError, match=r"^eviction sequence length 1 != trace length 2$"):
        run(ModelParams(2, 1, 1), [1, 2], [0])


def test_sequence_validation():
    with pytest.raises(ValueError):
        simulate(ModelParams(2, 1, 1), [3], LruPolicy())


def test_step_rejects_item_outside_universe():
    with pytest.raises(ValueError, match=r"^item 4 outside 0\.\.3$"):
        Simulation(ModelParams(3, 1, 1)).step(4)


def _every_policy(rng, params, sequence):
    """(params, sequence, factory) for each policy: every registry entry,
    static with random targets, a seeded random policy, and the k+Z wrapper
    around lru or fifo on a universe wide enough for it to decide."""
    n, k = params.num_items, params.cache_size
    targets = rng.sample(range(1, n + 1), rng.randint(1, min(k, n)))
    cases = [(params, sequence, lambda name=name: make_policy(name, sequence, targets))
             for name in POLICIES]
    seed = rng.randrange(2**30)
    cases.append((params, sequence, lambda: RandomEvictionPolicy(seed)))
    k, delay = rng.randint(1, 3), rng.randint(1, 4)
    inner = ModelParams(rng.randint(k + delay + 1, 8), k, delay)
    inner_cls = rng.choice((LruPolicy, FifoPolicy))
    cases.append((reduction_outer_params(inner),
                  random_sequence(rng, inner.num_items, len(sequence)),
                  lambda: ReductionPolicy(inner_cls(), inner)))
    return cases


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_policy_inside_step_equals_paused_step_and_outside_decision(mode):
    """``step(item, policy)`` must equal ``step(item)`` followed by the
    caller's ``observe`` and, at ``needs_decision``, ``choose_eviction``
    and ``apply_eviction``: ``replay`` and the searches rely on it."""
    rng = random.Random(53)
    decisions = 0
    for _ in range(300):
        k, delay, n, seq = draw_instance(rng, max_length=40, max_cache=4, max_delay=6)
        for params, sequence, policy in _every_policy(rng, ModelParams(n, k, delay, mode), seq):
            inside = simulate(params, sequence, policy())
            taken = []
            sim = paused_run(params, sequence, policy(), lambda sim, returned: taken.append(sim.t))
            decisions += len(taken)
            assert sim.committed == inside.total_latency
            history = cache_history(params, sequence, inside.eviction_sequence)
            assert set(sim.cache) == history[-1]
            outside = sim.result()
            assert outside.per_request_latency == inside.per_request_latency
            assert outside.eviction_sequence == inside.eviction_sequence
            assert cache_history(params, sequence, outside.eviction_sequence) == history
    assert decisions > 10_000


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


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_params_are_an_immutable_value(mode):
    params = ModelParams(3, 2, 4, mode)
    twin = ModelParams(num_items=3, cache_size=2, delay=4, mode=mode)
    assert params == twin
    assert hash(params) == hash(twin) == hash((3, 2, 4, mode))
    assert params != ModelParams(3, 2, 5, mode)
    assert repr(params) == f"ModelParams(num_items=3, cache_size=2, delay=4, mode={mode!r})"
    copies = [copy.copy(params), copy.deepcopy(params)]
    copies += [pickle.loads(pickle.dumps(params, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is ModelParams
        assert copied == params
    with pytest.raises(AttributeError):
        params.delay = 5
    with pytest.raises(AttributeError):
        params.extra = 1
    assert ModelParams(3, 2, 4) == ModelParams(3, 2, 4, STANDARD)


def test_params_equal_the_plain_tuple_of_their_fields():
    # a named tuple like the result records, so this is tuple equality
    params = ModelParams(3, 2, 4, ANTIMONOTONE)
    assert params == (3, 2, 4, ANTIMONOTONE)
    assert tuple(params) == (params.num_items, params.cache_size, params.delay, params.mode)


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("num_items", 0, "num_items must be >= 1"),
        ("cache_size", 0, "cache_size must be >= 1"),
        ("delay", 0, "delay must be >= 1"),
        ("mode", "bogus", "mode must be one of ('standard', 'antimonotone'), got 'bogus'"),
    ],
)
def test_params_replace_runs_the_constructors_checks(mode, field, value, message):
    params = ModelParams(3, 2, 4, mode)
    with pytest.raises(ValueError) as raised:
        params._replace(**{field: value})
    assert str(raised.value) == message
    assert params._replace(**{field: getattr(params, field)}) == params


def test_identical_runs_are_identical():
    rng = random.Random(11)
    for _ in range(25):
        k, delay, n, seq = draw_instance(rng)
        policy = draw_policy(rng, seq, k, n)
        params = ModelParams(n, k, delay)
        first = simulate(params, seq, policy)
        second = simulate(params, seq, policy)
        assert first == second


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
        params = ModelParams(n, k, delay)
        result = simulate(params, seq, LruPolicy())
        history = cache_history(params, seq, result.eviction_sequence)
        assert all(len(state) == k for state in history)


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
        fetch_on_hit = ModelParams(n, k, delay, ANTIMONOTONE)
        standard = replay(params, seq, schedule.eviction_sequence)
        variant = replay(fetch_on_hit, seq, schedule.eviction_sequence)
        assert variant.hit_sequence == standard.hit_sequence
        assert (cache_history(fetch_on_hit, seq, variant.eviction_sequence)
                == cache_history(params, seq, standard.eviction_sequence))
        for fast, slow in zip(variant.per_request_latency, standard.per_request_latency):
            assert fast <= slow


def test_empty_trace():
    params = ModelParams(2, 1, 3)
    result = simulate(params, [], LruPolicy())
    assert result.total_latency == 0
    assert cache_history(params, [], result.eviction_sequence) == [frozenset({1})]


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_huge_sparse_ids_allocate_nothing_per_id(policy):
    # ids are unbounded: nothing may be sized by an id's value
    huge = 99999999999
    rng = random.Random(8)
    seq = [rng.choice([0, 1, 2, 3, 5, huge - 1, huge]) for _ in range(1000)]
    params = ModelParams(10**11, 3, 4)
    run, peak = traced_peak(lambda: simulate(params, seq, make_policy(policy)))
    final = cache_history(params, seq, run.eviction_sequence)[-1]
    assert huge in final or huge in run.eviction_sequence
    assert peak < 1_000_000


def _step_and_record(rng, sim, sequence, record):
    """Step ``sim`` once, taking a random feasible eviction or a decline at
    a decision, and note in ``record``, this run's (evictions, cache
    history), what was applied."""
    evictions, history = record
    cache = set(history[-1])
    returned = sim.step(sequence[sim.t])
    victim = 0
    if sim.needs_decision(returned):
        victim = rng.choice([0, *sorted(cache)])
        sim.apply_eviction(returned, victim)
    if victim:
        cache.remove(victim)
        cache.add(returned)
    evictions.append(victim)
    history.append(frozenset(cache))


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_clones_share_no_later_eviction(mode):
    """A clone holds the evictions made before it and none made after.
    Paused runs are cloned at random steps, and the original and its twins
    are stepped on, interleaved, with their own random choices; each run's
    result holds exactly the schedule it applied and equals ``replay`` of
    its own eviction sequence."""
    rng = random.Random(59)
    both_evict_after_a_clone = 0
    for _ in range(200):
        k, delay, n, seq = draw_instance(rng, max_length=60, max_cache=4, max_delay=6)
        params = ModelParams(n, k, delay, mode)
        # each run: [simulation, its rng, its record, evictions since its clone]
        runs = [[Simulation(params), random.Random(rng.random()),
                 ([], [params.initial_cache()]), 0]]
        while True:
            live = [run for run in runs if run[0].t < len(seq)]
            if not live:
                break
            run = rng.choice(live)
            sim, own_rng, record, _ = run
            if len(runs) < 4 and rng.random() < 0.05:
                twin_record = tuple(part[:] for part in record)
                runs.append([sim.clone(), random.Random(rng.random()), twin_record, 0])
                run[3] = 0
                continue
            _step_and_record(own_rng, sim, seq, record)
            run[3] += record[0][-1] != 0
        if len(runs) > 1 and runs[0][3] and runs[-1][3]:
            both_evict_after_a_clone += 1
        for sim, _, (evictions, history), _ in runs:
            result = sim.result()
            assert result.eviction_sequence == evictions
            assert cache_history(params, seq, result.eviction_sequence) == history
            assert replay(params, seq, result.eviction_sequence) == result
    assert both_evict_after_a_clone > 50


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_a_clone_serves_its_own_burst(mode):
    """A run cloned with a burst of one item in flight keeps that burst:
    the original run served to the end first, the twin still serves every
    fetch of it, and both end as a fresh run does."""
    params = ModelParams(3, 1, 5, mode)
    sequence = [2, 2, 2, 3, 2, 2, 0, 0, 0, 0, 2]
    sim = Simulation(params)
    for item in sequence[:3]:
        sim.step(item)
    twin = sim.clone()
    for run in (sim, twin):
        for item in sequence[3:]:
            run.step(item)
    assert sim.result() == twin.result() == replay(params, sequence, [0] * len(sequence))


def test_simulate_holds_two_slots_per_eviction():
    """A run keeps its evictions in one flat list, two slots (time,
    victim) each: at this shape about two thirds of the steps evict, and
    a linked record per eviction peaks at about 2.0 MB, three slots per
    eviction at about 1.4 MB, and two at about 1.2 MB."""
    seq = random_sequence(random.Random(1), 1000, 20_000, 0.25)
    params = ModelParams(1000, 100, 20)
    _, peak = traced_peak(lambda: simulate(params, seq, make_policy("lru")))
    assert peak < 1_350_000
