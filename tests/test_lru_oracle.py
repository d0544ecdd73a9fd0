"""Differential test: the sorted-list LRU against the plain linear-scan rule.

The oracle is the rule LRU is defined by, evaluated from scratch at every
decision: among the residents, the smallest (last request, id), where a
never-requested resident's last request counts as 0.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from delayedhits import ANTIMONOTONE, STANDARD, LruPolicy, ModelParams, simulate, verify_domination
from delayedhits.traces import draw_instance, random_sequence

from conftest import Checked


def lru_rule(policy, t, cache, last_request):
    return min(cache, key=lambda j: (last_request.get(j, 0), j))


def checked_lru():
    return Checked(LruPolicy(), lru_rule)


def test_never_requested_residents_tie_by_id():
    # 1, 2 and 3 start resident and 1 and 3 are never requested: they tie
    # at last request 0 and go in id order, before the requested 2
    params = ModelParams(6, 3, 1)
    policy = checked_lru()
    run = simulate(params, [2, 4, 5, 6], policy)
    assert run.eviction_sequence == [0, 1, 3, 2]
    assert policy.decisions == 3


def test_untouched_initial_cache_is_evicted_in_id_order():
    policy = checked_lru()
    run = simulate(ModelParams(8, 4, 2), [5, 6, 7, 8, 0, 0], policy)
    assert run.eviction_sequence == [0, 1, 2, 3, 4, 0]
    assert policy.decisions == 4


def test_seeded_instances_both_modes():
    rng = random.Random(2024)
    decisions = 0
    for _ in range(150):
        k, delay, n, seq = draw_instance(rng, max_length=80, max_cache=6)
        for mode in (STANDARD, ANTIMONOTONE):
            policy = checked_lru()
            simulate(ModelParams(n, k, delay, mode), seq, policy)
            decisions += policy.decisions
    assert decisions > 1000


def test_long_trace_with_heap_rebuilds():
    # a hot set inside a wider universe: many hits between decisions, each
    # moving a key out of the middle of the sorted list to its end
    rng = random.Random(77)
    seq = [rng.choice([rng.randint(1, 12), rng.randint(1, 200)]) for _ in range(6000)]
    for mode in (STANDARD, ANTIMONOTONE):
        policy = checked_lru()
        simulate(ModelParams(200, 16, 5, mode), seq, policy)
        assert policy.decisions > 1000


def test_inner_policy_of_the_reduction():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(1, 4)
        delay = rng.randint(1, 6)
        n = rng.randint(2, 10)
        seq = random_sequence(rng, n, rng.randint(1, 60))
        verify_domination(seq, checked_lru(), ModelParams(n, k, delay))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 5),
    delay=st.integers(1, 7),
    extra=st.integers(1, 5),
    mode=st.sampled_from([STANDARD, ANTIMONOTONE]),
)
def test_drawn_instances(data, k, delay, extra, mode):
    n = k + extra
    seq = data.draw(st.lists(st.integers(0, n), max_size=60))
    simulate(ModelParams(n, k, delay, mode), seq, checked_lru())
