"""Wrapping a fetch-on-hit policy into a larger standard-model cache."""

import random

import pytest

from delayedhits import (
    ANTIMONOTONE,
    FifoPolicy,
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    ReductionPolicy,
    VerificationError,
    brute_force_opt,
    cache_history,
    reduction_outer_params,
    simulate,
    verify_domination,
)
from delayedhits.policies import RandomEvictionPolicy
from delayedhits.traces import random_sequence

from conftest import Checked


def test_single_cold_request_costs_delay_in_both():
    report = verify_domination([9], LruPolicy(), ModelParams(9, 2, 4))
    assert report.inner_per_request == [4]
    assert report.outer_per_request == [4]


def test_all_resident_trace_is_free_for_the_wrapper():
    report = verify_domination([1, 2, 1], LruPolicy(), ModelParams(4, 2, 3))
    assert report.outer_total == 0


def test_no_hits_means_identical_latencies():
    # item 9 is outside even the enlarged cache, so fetch-on-hit never fires
    report = verify_domination([9, 9, 9], LruPolicy(), ModelParams(9, 2, 3))
    assert report.inner_per_request == report.outer_per_request == [3, 2, 1]


def test_interpretation_regression_instance():
    # protecting only *returned* items (instead of recently requested ones)
    # evicts item 2 at t=6 here and loses at t=7; the shipped wrapper must not
    report = verify_domination([0, 1, 3, 5, 2, 0, 2], LruPolicy(), ModelParams(5, 1, 3))
    assert report.outer_per_request[6] <= 1


def test_domination_on_the_extra_hit_trace():
    # the trace built to punish an extra hit is a natural stress case
    from delayedhits import counterexample_sequence

    for delay, k in ((5, 1), (6, 2)):
        cspec = counterexample_sequence(delay, k)
        for make in (LruPolicy, FifoPolicy):
            report = verify_domination(
                list(cspec.sequence), make(), ModelParams(k + 2, k, delay)
            )
            assert report.outer_total <= report.inner_total


def test_outer_cache_is_exactly_k_plus_delay():
    inner_params = ModelParams(6, 2, 4)
    outer = reduction_outer_params(inner_params)
    assert outer.cache_size == 6
    seq = random_sequence(random.Random(3), 6, 40)
    run = simulate(outer, seq, ReductionPolicy(LruPolicy(), inner_params))
    assert all(len(state) == 6 for state in cache_history(outer, seq, run.eviction_sequence))


def test_the_standard_optimum_with_k_plus_delay_slots_is_at_most_the_fetch_on_hit_optimum():
    """OPT_standard(n, k+Z) <= OPT_fetch-on-hit(n, k).

    Proof: let the inner policy replay the schedule of a fetch-on-hit
    optimum. The k+Z wrapper around it is never slower on any request
    (criterion 6), so its standard run costs at most the inner run's
    total, and the standard optimum with k+Z slots is at most the
    wrapper's run."""
    rng = random.Random(103)
    strict = 0
    for _ in range(400):
        k, delay = rng.randint(1, 2), rng.randint(1, 4)
        n = k + delay + rng.randint(1, 3)
        seq = random_sequence(rng, n, rng.randint(5, 24))
        inner = ModelParams(n, k, delay, ANTIMONOTONE)
        outer = brute_force_opt(reduction_outer_params(inner), seq).min_latency
        fetch_on_hit = brute_force_opt(inner, seq).min_latency
        assert outer <= fetch_on_hit
        strict += outer < fetch_on_hit
    assert strict > 300


@pytest.mark.parametrize("make", [LruPolicy, FifoPolicy], ids=["lru", "fifo"])
@pytest.mark.parametrize("wide", [True, False], ids=["n>k+Z", "n<=k+Z"])
def test_shadow_run_equals_an_independent_inner_run(make, wide):
    # verify_domination reports the wrapper's lockstep shadow as A's run;
    # check it against A simulated on its own, fresh policy and all
    rng = random.Random(31 if wide else 37)
    evictions = 0
    for _ in range(60):
        k, delay = rng.randint(1, 4), rng.randint(1, 6)
        n = k + delay + rng.randint(1, 6) if wide else rng.randint(2, k + delay)
        seq = random_sequence(rng, n, rng.randint(1, 80))
        inner_params = ModelParams(n, k, delay)
        wrapped = ReductionPolicy(make(), inner_params)
        simulate(reduction_outer_params(inner_params), seq, wrapped)
        shadow = wrapped.inner.result()
        fetch_on_hit = ModelParams(n, k, delay, ANTIMONOTONE)
        alone = simulate(fetch_on_hit, seq, make())
        assert shadow.per_request_latency == alone.per_request_latency
        assert shadow.eviction_sequence == alone.eviction_sequence
        assert (cache_history(fetch_on_hit, seq, shadow.eviction_sequence)
                == cache_history(fetch_on_hit, seq, alone.eviction_sequence))
        report = verify_domination(seq, make(), inner_params)
        assert report.inner_per_request == alone.per_request_latency
        assert report.inner_total == alone.total_latency
        evictions += sum(1 for victim in alone.eviction_sequence if victim)
    assert evictions > 100


def all_items_rule(wrapper, t, cache, last_request):
    """The smallest cached item outside the inner cache and outside every
    item whose last request falls in t - delay + 1..t.

    Asserts the window invariant on the way: the item being cached was
    requested at t - delay + 1, so no resident was last requested then,
    and the rule would name the same victim over t - delay + 2..t."""
    delay = wrapper.inner_params.delay
    assert all(last_request.get(y) != t - delay + 1 for y in cache)
    recent = {y for y, s in last_request.items() if s >= t - delay + 1}
    return min(set(cache) - set(wrapper.inner.cache) - recent, default=0)


def test_victim_matches_the_all_items_rule():
    rng = random.Random(1212)
    inner_policies = {
        "lru": LruPolicy,
        "fifo": FifoPolicy,
        "never": NeverCachePolicy,
        "random": lambda: RandomEvictionPolicy(rng.randrange(2**30)),
    }
    decisions = dict.fromkeys(inner_policies, 0)
    for _ in range(60):
        # a universe wider than k + delay, so the outer cache has decisions
        k, delay = rng.randint(1, 4), rng.randint(1, 6)
        n = k + delay + rng.randint(1, 6)
        seq = random_sequence(rng, n, rng.randint(1, 80))
        inner_params = ModelParams(n, k, delay)
        for name, make in inner_policies.items():
            policy = Checked(ReductionPolicy(make(), inner_params), all_items_rule)
            simulate(reduction_outer_params(inner_params), seq, policy)
            decisions[name] += policy.decisions
    assert min(decisions.values()) > 300


def test_wrapper_validates_outer_params():
    inner_params = ModelParams(5, 2, 3)
    wrapped = ReductionPolicy(LruPolicy(), inner_params)
    for outer in (
        ModelParams(5, 2, 3),                  # wrong capacity
        ModelParams(5, 5, 4),                  # wrong delay
        ModelParams(6, 5, 3),                  # wrong universe
        ModelParams(5, 5, 3, ANTIMONOTONE),    # wrong model
    ):
        with pytest.raises(ValueError, match=r"^the wrapper runs under ModelParams\(num_items=5, "
                           r"cache_size=5, delay=3, mode='standard'\), got "):
            simulate(outer, [1], wrapped)
    assert simulate(ModelParams(5, 5, 3), [1], wrapped).total_latency == 0


def test_a_wrapper_that_evicts_a_protected_item_is_caught(monkeypatch):
    # evicting item 1, requested at t=2, makes its request at t=3 miss in
    # full, where the inner run's fetch from its hit at t=2 serves it sooner
    rule = ReductionPolicy.choose_eviction

    def evict_recent(self, t, item, cache):
        return min(cache & set(self.recent), default=0) or rule(self, t, item, cache)

    monkeypatch.setattr(ReductionPolicy, "choose_eviction", evict_recent)
    with pytest.raises(VerificationError, match="^domination violated at t=3: "
                       "wrapped latency 2 > inner latency 1$"):
        verify_domination([4, 1, 1], LruPolicy(), ModelParams(4, 1, 2))
