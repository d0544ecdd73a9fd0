"""Differential tests: the pruned search kernel against plain enumeration.

The oracle runs every eviction schedule to the end, with no bound and no
transposition table, in the kernel's branch order (decline first, then
residents in ascending order). The canonical witnesses are therefore the
first matching schedules in the oracle's list.
"""

import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayedhits import (
    ANTIMONOTONE,
    STANDARD,
    ModelParams,
    Simulation,
    brute_force_opt,
    is_hit_sequence_feasible,
    optimal_hit_sequences,
    replay,
)
from delayedhits.policies import RandomEvictionPolicy
from delayedhits.search import _branches, _forced_terms, _key, _search
from delayedhits.traces import random_sequence, request_times

from conftest import paused_run, traced_peak


def _forced_latency(params, sequence):
    """f(sim): the latency of the future requests no schedule can avoid, the
    sum of the terms of the items not resident."""
    terms = _forced_terms(params, request_times(sequence))
    return lambda sim: sum(term for item, term in terms(sim).items() if item not in sim.cache)


def every_schedule(params, sequence):
    """(total, evictions, hits) of every schedule's run, in branch order,
    and the number of decision points in the whole tree."""
    runs = []
    decisions = 0

    def run_on(sim):
        nonlocal decisions
        while sim.t < len(sequence):
            returned = sim.step(sequence[sim.t])
            if sim.needs_decision(returned):
                decisions += 1
                for choice in [0, *sorted(sim.cache)]:
                    branch = sim.clone()
                    branch.apply_eviction(returned, choice)
                    run_on(branch)
                return
        result = sim.result()
        runs.append((sim.committed, result.eviction_sequence, result.hit_sequence))

    run_on(Simulation(params))
    return runs, decisions


@st.composite
def tiny_instances(draw, max_length=8):
    k = draw(st.integers(1, 2))
    n = k + draw(st.integers(1, 3))
    delay = draw(st.integers(1, 4))
    mode = draw(st.sampled_from([STANDARD, ANTIMONOTONE]))
    sequence = draw(st.lists(st.integers(0, n), max_size=max_length))
    return ModelParams(n, k, delay, mode), sequence


@settings(max_examples=150, deadline=None)
@given(tiny_instances())
# instances on which a wrong transposition table shows: a revisit with equal
# committed latency but other hit bits, and states that differ only in
# their fetches in flight
@example((ModelParams(4, 1, 1), [2, 3, 3, 2, 1]))
@example((ModelParams(4, 1, 6), [1, 2, 4, 0, 3, 1, 2, 1, 0, 2, 1, 3]))
@example((ModelParams(4, 1, 6), [1, 1, 2, 3, 3, 4, 3, 1, 3, 2, 1, 3, 1, 4]))
def test_optimum_and_optima_match_enumeration(instance):
    params, sequence = instance
    runs, decisions = every_schedule(params, sequence)
    least = min(total for total, _, _ in runs)
    first = next(run for run in runs if run[0] == least)

    opt = brute_force_opt(params, sequence)
    assert (opt.min_latency, opt.witness_evictions, opt.witness_hits) == first
    assert min(decisions, 1) <= opt.nodes <= decisions

    total, optima = optimal_hit_sequences(params, sequence)
    assert total == least
    assert optima == {tuple(hits) for t, _, hits in runs if t == least}


@st.composite
def tiny_instances_with_bits(draw):
    params, sequence = draw(tiny_instances())
    bits = draw(st.lists(st.integers(0, 1), min_size=len(sequence),
                         max_size=len(sequence)))
    return params, sequence, bits


@settings(max_examples=150, deadline=None)
@given(tiny_instances_with_bits())
# instances on which a miss window that ignores fetches in flight shows: the
# victim's fetch returns before its next request + delay - 1, so a request
# in between can hit again; a forced latency that ignored that fetch would
# overestimate and cut the run that realizes the target
@example((ModelParams(5, 2, 4), [5, 3, 5, 5, 2, 5, 5], [1] * 7))
@example((ModelParams(2, 1, 2, ANTIMONOTONE), [2, 1, 1, 1], [1] * 4))
def test_feasibility_matches_enumeration(instance):
    params, sequence, bits = instance
    runs, _ = every_schedule(params, sequence)
    first_schedule = {}
    for _, evictions, hits in runs:
        first_schedule.setdefault(tuple(hits), evictions)

    for hits, evictions in first_schedule.items():
        assert is_hit_sequence_feasible(params, sequence, list(hits)) == (True, evictions)

    # a run's bit at an idle slot is 1
    pinned = tuple(1 if item == 0 else bit for item, bit in zip(sequence, bits))
    expected = first_schedule.get(pinned)
    assert is_hit_sequence_feasible(params, sequence, bits) == (
        expected is not None, expected
    )


@settings(max_examples=200, deadline=None)
@given(tiny_instances(max_length=14), st.integers(0, 2**30))
def test_forced_latency_bound_is_admissible(instance, seed):
    """committed + forced never overestimates: not at any step of any run,
    and not at the root, where it must stay at or below the optimum."""
    params, sequence = instance
    forced = _forced_latency(params, sequence)
    sim = Simulation(params)
    assert forced(sim) <= brute_force_opt(params, sequence).min_latency

    policy = RandomEvictionPolicy(seed)
    policy.reset(params)
    bounds = [forced(sim)]
    for item in sequence:
        hit = item in sim.cache if item else None
        returned = sim.step(item)
        policy.observe(sim.t, item, hit)
        if sim.needs_decision(returned):
            choice = policy.choose_eviction(sim.t, returned, sim.cache.keys())
            sim.apply_eviction(returned, choice)
        bounds.append(sim.committed + forced(sim))
    total = sim.result().total_latency
    assert all(bound <= total for bound in bounds)
    # what is forced stays forced, so the bound only tightens along a run
    assert bounds == sorted(bounds)


def test_branch_keys_and_bounds_match_a_cloned_eviction():
    """The search settles every choice's cuts from the paused run, without
    taking the choice. At each decision of seeded random runs, the key and
    the bound it derives for each choice must be those of a clone that
    took it: (t, cache, return times of the fetches in flight) and
    committed + forced. A guided run's key is (t, cache): the fetches in
    flight must be those its hit bits dispatched, fixed by t and the bits."""
    rng = random.Random(9)
    decisions = 0
    for run in range(400):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 7 - k)
        params = ModelParams(n, k, rng.randint(1, 6), (STANDARD, ANTIMONOTONE)[run % 2])
        sequence = random_sequence(rng, n, rng.randint(1, 30))
        terms = _forced_terms(params, request_times(sequence))
        forced = _forced_latency(params, sequence)

        def visit(sim, returned):
            nonlocal decisions
            decisions += 1
            branches = list(_branches(sim, returned, terms))
            assert [choice for choice, _ in branches] == [0, *sorted(sim.cache)]
            for choice, bound in branches:
                taken = sim.clone()
                taken.apply_eviction(returned, choice)
                key = _key(sim, returned, choice)
                assert key == (taken.t, frozenset(taken.cache), tuple(taken.fetches))
                # the return times fix the items: each fetch carries the
                # item requested delay - 1 steps before it returns
                for r, item in taken.fetches.items():
                    assert item == sequence[r - params.delay]
                assert _key(sim, returned, choice, guided=True) == key[:2]
                dispatched = [
                    s + params.delay - 1
                    for s, (item, cost) in enumerate(zip(sequence, taken.per_request_latency), 1)
                    if item and (cost or params.mode == ANTIMONOTONE)
                ]
                assert list(taken.fetches) == [r for r in dispatched if r > taken.t]
                assert bound == taken.committed + forced(taken)

        paused_run(params, sequence, RandomEvictionPolicy(rng.randrange(2**30)), visit)
    assert decisions > 1000


def test_a_choice_commits_no_more_than_its_bound_before_the_next_decision():
    """The cache holds still between two decisions, so all a branch commits
    until the next one lies in a miss window its bound already counted: the
    search needs no cut on the way. At each decision of seeded random runs,
    each choice run on to the next decision, or to the end, stays within
    the bound ``_branches`` gives it."""
    rng = random.Random(11)
    checked = 0
    for run in range(300):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 7 - k)
        params = ModelParams(n, k, rng.randint(1, 6), (STANDARD, ANTIMONOTONE)[run % 2])
        sequence = random_sequence(rng, n, rng.randint(1, 30))
        terms = _forced_terms(params, request_times(sequence))

        def visit(sim, returned):
            nonlocal checked
            for choice, bound in _branches(sim, returned, terms):
                taken = sim.clone()
                taken.apply_eviction(returned, choice)
                while taken.t < len(sequence):
                    if taken.needs_decision(taken.step(sequence[taken.t])):
                        break
                assert taken.committed <= bound
                checked += 1

        paused_run(params, sequence, RandomEvictionPolicy(rng.randrange(2**30)), visit)
    assert checked > 2000


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_each_optimum_keeps_the_feasibility_searchs_witness(mode):
    """The set-of-optima search keeps, for each optimal hit vector, the
    first schedule in branch order that realizes it: the very witness the
    feasibility search returns. On seeded instances, every vector of every
    set must have that witness, replay to itself and cost the optimum.

    The first-deviation search, with ``limit`` = the optimum and ``avoid``
    = a random optimal vector, must find a run off that vector exactly
    when the set holds another, and nothing with ``limit`` one lower; what
    it keeps for the vector is the feasibility search's witness, which the
    counterexample verifier takes as the baseline's. The feasibility search
    bounded by its target's closed-form latency must answer as the
    unbounded one does, on that vector and on random bits."""
    rng, rng_v = random.Random(19), random.Random(23)
    vectors = several = 0
    for _ in range(500):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 6 - k)
        params = ModelParams(n, k, rng.randint(1, 6), mode)
        sequence = random_sequence(rng, n, rng.randint(1, 30))
        total, optima, _ = _search(params, sequence, cut=operator.gt)
        assert total == brute_force_opt(params, sequence).min_latency
        several += len(optima) > 1
        for hits, evictions in optima.items():
            assert is_hit_sequence_feasible(params, sequence, list(hits)) == (True, evictions)
            result = replay(params, sequence, evictions)
            assert tuple(result.hit_sequence) == hits
            assert result.total_latency == total
            vectors += 1
        v = rng_v.choice(sorted(optima))
        _, runs, _ = _search(params, sequence, limit=total, avoid=v)
        assert runs.keys() <= optima.keys()
        assert (len(runs.keys() - {v}) == 1) is (len(optima) > 1)
        assert runs.get(v, optima[v]) == optima[v]
        assert len(optima) > 1 or runs == optima
        assert _search(params, sequence, limit=total - 1, avoid=v)[1] == {}
        for bits in (v, [rng_v.randint(0, 1) for _ in sequence]):
            _, found, _ = _search(params, sequence, target=bits)
            expected = (True, *found.values()) if found else (False, None)
            assert is_hit_sequence_feasible(params, sequence, bits) == expected
    assert vectors > 1000 and several > 100


@pytest.mark.parametrize("mode", [STANDARD, ANTIMONOTONE])
def test_searches_do_not_depend_on_id_values(mode):
    """Relabelling the items outside the initial cache, in order, to ids
    near 10^18 leaves every search's answer as it was but for the labels:
    the optimum, its node count, its witness, the feasibility search on the
    witness's hit bits and the first-deviation search at the optimum. The
    searches keep no table sized by an id, so a sparse search stays small."""
    rng = random.Random(29)
    huge = 10**18
    peak = decided = 0
    for _ in range(200):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 3)
        delay = rng.randint(1, 6)
        sequence = random_sequence(rng, n, rng.randint(1, 30))

        def relabel(item):
            return item if item <= k else item + huge - n

        sparse = [relabel(item) for item in sequence]
        dense_params = ModelParams(n, k, delay, mode)
        sparse_params = ModelParams(huge, k, delay, mode)
        opt = brute_force_opt(dense_params, sequence)
        decided += opt.nodes > 0
        feasible = is_hit_sequence_feasible(dense_params, sequence, opt.witness_hits)
        deviation = _search(dense_params, sequence, limit=opt.min_latency, avoid=opt.witness_hits)
        (sparse_opt, sparse_feasible, sparse_deviation), call_peak = traced_peak(lambda: (
            brute_force_opt(sparse_params, sparse),
            is_hit_sequence_feasible(sparse_params, sparse, opt.witness_hits),
            _search(sparse_params, sparse, limit=opt.min_latency, avoid=opt.witness_hits),
        ))
        peak = max(peak, call_peak)
        assert sparse_opt == opt._replace(
            witness_evictions=[relabel(v) for v in opt.witness_evictions])
        assert sparse_feasible == (True, [relabel(v) for v in feasible[1]])
        best, runs, nodes = deviation
        assert sparse_deviation == (best, {
            hits: [relabel(v) for v in evictions] for hits, evictions in runs.items()
        }, nodes)
    assert decided > 100 and peak < 1_000_000
