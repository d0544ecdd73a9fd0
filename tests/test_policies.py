"""Shipped policies and the exhaustive offline searches."""

import random

import pytest

import delayedhits
from delayedhits import (
    ANTIMONOTONE,
    STANDARD,
    BeladyPolicy,
    FifoPolicy,
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    SearchBudgetExceeded,
    Simulation,
    StaticPolicy,
    brute_force_opt,
    cache_history,
    counterexample_sequence,
    is_hit_sequence_feasible,
    make_policy,
    optimal_hit_sequences,
    replay,
    simulate,
)
from delayedhits.policies import POLICIES, RandomEvictionPolicy, draw_policy
from delayedhits.traces import draw_instance, random_sequence


def test_lru_evicts_least_recently_requested():
    # 1 was just requested, so 2 goes when 3 arrives
    result = simulate(ModelParams(3, 2, 1), [1, 3], LruPolicy())
    assert result.eviction_sequence == [0, 2]


def test_lru_tie_breaks_to_smaller_id():
    result = simulate(ModelParams(3, 2, 1), [3], LruPolicy())
    assert result.eviction_sequence == [1]


def test_fifo_evicts_in_initial_order():
    result = simulate(ModelParams(4, 2, 1), [3, 4], FifoPolicy())
    assert result.eviction_sequence == [1, 2]


def test_fifo_cycles_through_insertions():
    params, seq = ModelParams(4, 2, 1), [3, 4, 1, 3]
    result = simulate(params, seq, FifoPolicy())
    # queue: (1,2) -> (2,3) -> (3,4) -> (4,1) -> (1,3); 3 misses again at t=4
    assert result.eviction_sequence == [1, 2, 3, 4]
    assert cache_history(params, seq, result.eviction_sequence)[-1] == frozenset({1, 3})


def test_never_cache_keeps_initial_cache():
    params, seq = ModelParams(4, 2, 2), [3, 4, 3]
    result = simulate(params, seq, NeverCachePolicy())
    assert set(cache_history(params, seq, result.eviction_sequence)) == {frozenset({1, 2})}


def test_static_policy_converges_then_freezes():
    params = ModelParams(3, 2, 2)
    seq = [3, 0, 0, 3, 1]
    result = simulate(params, seq, StaticPolicy({1, 3}))
    # 3 returns at t=2's retrieval and replaces the only non-target item 2
    assert result.eviction_sequence[1] == 2
    assert cache_history(params, seq, result.eviction_sequence)[-1] == frozenset({1, 3})
    assert result.per_request_latency == [2, 0, 0, 0, 0]


def test_static_policy_validates_size():
    with pytest.raises(ValueError):
        simulate(ModelParams(3, 1, 1), [2], StaticPolicy({1, 2}))


def test_static_policy_rejects_nonpositive_items():
    policy = StaticPolicy([0, 2])
    with pytest.raises(ValueError, match=r"must name items in 1\.\.3, got \[0, 2\]"):
        simulate(ModelParams(3, 2, 1), [2], policy)


def test_belady_declines_item_never_used_again():
    # future holds 2 then 1; incoming 3 is never reused, so it is not cached
    result = simulate(ModelParams(3, 2, 1), [3, 2, 1], BeladyPolicy([3, 2, 1]))
    assert result.eviction_sequence == [0, 0, 0]
    assert result.total_latency == 1


def test_belady_empty_future_evicts_smallest():
    result = simulate(ModelParams(3, 2, 1), [3], BeladyPolicy([3]))
    assert result.eviction_sequence == [1]


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_belady_is_optimal_at_delay_one_where_the_cuts_fire(mode):
    # 60 requests at n=6, k=3: each search visits about 2000 decision
    # nodes, so the bound and the transposition table cut on the way
    rng = random.Random(73)
    nodes = 0
    for _ in range(40):
        seq = random_sequence(rng, 6, 60, 0.15)
        params = ModelParams(6, 3, 1, mode)
        opt = brute_force_opt(params, seq)
        assert simulate(params, seq, BeladyPolicy(seq)).total_latency == opt.min_latency
        nodes += opt.nodes
    assert nodes > 40 * 1000


def test_make_policy_names():
    # the registry's classes are the package's exported classes, named alike,
    # in the order --policy lists its choices and make_policy's error names them
    assert list(POLICIES) == ["lru", "fifo", "never", "static", "belady"]
    for name, cls in POLICIES.items():
        assert cls is getattr(delayedhits, cls.__name__)
        assert cls.name == name
    for name in ("lru", "fifo", "never"):
        assert make_policy(name).name == name
    assert make_policy("static", static_items=[1]).name == "static"
    assert make_policy("belady", sequence=[1]).name == "belady"
    with pytest.raises(ValueError):
        make_policy("nope")
    with pytest.raises(ValueError):
        make_policy("belady")
    with pytest.raises(ValueError):
        make_policy("static")


def test_opt_on_burst_is_forced():
    for delay in (1, 3, 5):
        params = ModelParams(3, 2, delay)
        opt = brute_force_opt(params, [3] * delay)
        assert opt.min_latency == delay * (delay + 1) // 2


def test_opt_on_all_hits_is_zero():
    opt = brute_force_opt(ModelParams(2, 2, 4), [1, 1, 1])
    assert opt.min_latency == 0
    assert opt.witness_hits == [1, 1, 1]


def test_opt_witness_replays_to_its_value():
    rng = random.Random(83)
    for _ in range(40):
        k, delay, n, seq = draw_instance(rng, max_length=12, max_cache=2, max_delay=4)
        params = ModelParams(n, k, delay)
        opt = brute_force_opt(params, seq)
        rerun = replay(params, seq, opt.witness_evictions)
        assert rerun.total_latency == opt.min_latency
        assert rerun.hit_sequence == opt.witness_hits


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_no_policy_beats_opt(mode):
    """The optimum is at most every policy's total: each registered one,
    static holding the initial cache, and a seeded random one."""
    rng = random.Random(89)
    for _ in range(200):
        k, delay, n, seq = draw_instance(rng, max_length=12, max_cache=2, max_delay=4)
        params = ModelParams(n, k, delay, mode)
        opt = brute_force_opt(params, seq).min_latency
        policies = [make_policy(name, seq, params.initial_cache()) for name in POLICIES]
        policies.append(RandomEvictionPolicy(rng.randrange(2**30)))
        for policy in policies:
            assert simulate(params, seq, policy).total_latency >= opt


def test_a_bigger_cache_never_raises_the_fetch_on_hit_optimum():
    """OPT(k+1) <= OPT(k) in the fetch-on-hit mode.

    Proof: let a (k+1)-run copy every decision of an optimal k-run. It
    starts with the k-run's cache plus item k+1, and it keeps one extra
    item throughout: when the k-run caches an item, the copy evicts the
    same victim for it, unless that item is its extra one, which is
    resident, so the copy has nothing to decide and the k-run's victim
    becomes its extra item. So its cache always contains the k-run's. In
    this mode every request dispatches a fetch whatever its hit bit, so
    both runs have the same fetches in flight and a miss costs the same
    in either; each extra hit only removes that request's miss cost. The
    copy costs at most OPT(k), and OPT(k+1) is at most the copy.

    Not asserted in the standard mode: there an extra hit dispatches no
    fetch, which can make a later request cost more (the source paper's
    second result)."""
    rng = random.Random(101)
    strict = 0
    for _ in range(400):
        k, delay = rng.randint(1, 3), rng.randint(2, 7)
        n = k + rng.randint(2, 4)
        seq = random_sequence(rng, n, rng.randint(5, 22))
        small, big = (brute_force_opt(ModelParams(n, size, delay, ANTIMONOTONE), seq).min_latency
                      for size in (k, k + 1))
        assert big <= small
        strict += big < small
    assert strict > 100


class _DemandBelady(BeladyPolicy):
    """Belady without bypass: always caches, evicting a resident item.

    This is the demand-paging optimum at delay 1, the baseline the
    classical k-competitiveness of LRU is stated against (a bypassing
    optimum can be stronger, making LRU only (k+1)-competitive).
    """

    def choose_eviction(self, t, item, cache):
        best_id, best_next = None, -1
        for j in sorted(cache):
            nxt = self._next_use(j, t)
            if nxt > best_next:
                best_id, best_next = j, nxt
        return best_id


def test_lru_within_k_times_demand_opt_at_delay_one():
    rng = random.Random(97)
    checked = 0
    while checked < 30:
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 2)
        seq = [rng.randint(1, n) for _ in range(rng.randint(1, 14))]
        params = ModelParams(n, k, 1)
        demand = _DemandBelady(seq)
        demand_opt = simulate(params, seq, demand).total_latency
        if demand_opt == 0:
            continue
        # the bypassing optimum can only be cheaper
        assert brute_force_opt(params, seq).min_latency <= demand_opt
        assert simulate(params, seq, LruPolicy()).total_latency <= k * demand_opt
        checked += 1


def test_all_ones_infeasible_when_cache_too_small():
    params = ModelParams(3, 2, 2)
    feasible, witness = is_hit_sequence_feasible(params, [1, 2, 3], [1, 1, 1])
    assert not feasible and witness is None


def test_simulated_hit_sequence_is_self_witnessing():
    rng = random.Random(101)
    for _ in range(30):
        k, delay, n, seq = draw_instance(rng, max_length=14, max_cache=2, max_delay=4)
        params = ModelParams(n, k, delay)
        run = simulate(params, seq, draw_policy(rng, seq, k, n))
        feasible, witness = is_hit_sequence_feasible(params, seq, run.hit_sequence)
        assert feasible
        assert replay(params, seq, witness).hit_sequence == run.hit_sequence


def test_optimal_hit_sequences_exhausts_ties():
    # both cold misses are unavoidable, so every schedule realizes (0, 0)
    params = ModelParams(3, 1, 1)
    total, optima = optimal_hit_sequences(params, [2, 3])
    assert total == 2
    assert optima == {(0, 0)}
    # caching 2 creates a strictly better, unique optimum when 2 returns
    total, optima = optimal_hit_sequences(params, [2, 2])
    assert total == 1
    assert optima == {(0, 1)}


def test_search_budget_is_enforced():
    params = ModelParams(6, 3, 4)
    seq = [4, 5, 6, 4, 5, 6, 4, 5, 6, 4, 5, 6]
    with pytest.raises(SearchBudgetExceeded):
        brute_force_opt(params, seq, node_budget=3)
    with pytest.raises(SearchBudgetExceeded):
        is_hit_sequence_feasible(params, seq, [0] * len(seq), node_budget=1)


def test_search_node_count_on_counterexample():
    # the forced-latency bound and the transposition table take it in 32
    # decision nodes; the committed-latency prune alone needs 38
    spec = counterexample_sequence(26, 7)
    opt = brute_force_opt(spec.params(), list(spec.sequence))
    assert opt.min_latency == 169
    assert 0 < opt.nodes <= 32


def test_search_clones_only_surviving_choices(calls):
    """A choice that the bound or the table settles at its decision node
    is never cloned. Counted in clones, not seconds: 224 when every choice
    was cloned before its cuts were tested, 19 now."""
    clones = calls(Simulation, "clone")
    spec = counterexample_sequence(26, 7)
    opt = brute_force_opt(spec.params(), list(spec.sequence))
    assert (opt.min_latency, opt.nodes) == (169, 32)
    assert len(clones) <= 100


def test_feasibility_search_reads_the_trace_once(calls):
    """One feasibility search builds each item's request times once, for
    its forced-latency bound, and walks the trace for no other table."""
    reads = calls(delayedhits.search, "request_times")
    spec = counterexample_sequence(26, 7)
    targets = (spec.baseline_bits, spec.extra_hit_bits, [0] * len(spec.sequence))
    for searches, bits in enumerate(targets, start=1):
        is_hit_sequence_feasible(spec.params(), list(spec.sequence), list(bits))
        assert len(reads) == searches


def test_last_choice_runs_in_place():
    # every decision's witness choice is the last one (evict the resident),
    # 1200 of them in a row: a recursion per decision would overflow the stack
    params = ModelParams(2, 1, 1)
    seq = [2, 1] * 600
    feasible, witness = is_hit_sequence_feasible(params, seq, [0] * len(seq))
    assert feasible
    assert replay(params, seq, witness).hit_sequence == [0] * len(seq)


def test_search_depth_is_not_bounded_by_the_stack():
    # the first path declines 1000 decisions in a row, each leaving its
    # other choice pending: a recursion per pending choice would overflow
    params = ModelParams(2, 1, 1)
    opt = brute_force_opt(params, [2, 1] * 1000)
    assert opt.min_latency == 1000
    assert opt.nodes == 3992
    assert brute_force_opt(params, [2, 1] * 950).nodes == 3792
