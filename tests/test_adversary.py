"""Adaptive lower-bound construction and its certified ratio."""

import random
from fractions import Fraction

import pytest

from delayedhits import (
    FifoPolicy,
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    ReductionPolicy,
    Simulation,
    StaticPolicy,
    brute_force_opt,
    build_adversarial_sequence,
    bursty_segment,
    pure_segment,
    reduction_outer_params,
    simulate,
)
from delayedhits import adversary
from delayedhits.policies import RandomEvictionPolicy, draw_policy


def test_segment_rendering():
    assert pure_segment(3, 2).rendered == (0, 0, 3, 0, 0)
    assert bursty_segment(3, 2).rendered == (0, 0, 3, 3, 0, 0)


def test_missed_segment_costs():
    # a cold pure segment costs exactly the fetch delay
    params = ModelParams(2, 1, 4)
    pure = simulate(params, list(pure_segment(2, 4).rendered), NeverCachePolicy())
    assert pure.total_latency == 4 == pure_segment(2, 4).miss_cost(4)
    # a cold bursty segment costs the full triangular sum, here 10
    burst = simulate(params, list(bursty_segment(2, 4).rendered), NeverCachePolicy())
    assert burst.total_latency == 10 == bursty_segment(2, 4).miss_cost(4)


def test_hit_segment_costs_nothing():
    params = ModelParams(2, 1, 3)
    result = simulate(params, list(bursty_segment(1, 3).rendered), NeverCachePolicy())
    assert result.total_latency == 0


def test_segments_are_all_hit_or_all_miss():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 3)
        n = k + 2
        delay = rng.randint(1, 5)
        segments = []
        trace = []
        for _ in range(rng.randint(1, 6)):
            item = rng.randint(1, n)
            seg = (
                pure_segment(item, delay)
                if rng.random() < 0.5
                else bursty_segment(item, delay)
            )
            segments.append(seg)
            trace.extend(seg.rendered)
        policy = draw_policy(rng, trace, k, n)
        result = simulate(ModelParams(n, k, delay), trace, policy)
        offset = 0
        for seg in segments:
            bits = {
                result.hit_sequence[offset + i]
                for i, item in enumerate(seg.rendered)
                if item != 0
            }
            assert len(bits) == 1, "segment mixed hits and misses"
            offset += len(seg.rendered)


# the ids keep the test names these cases have always had
@pytest.mark.parametrize(
    "make_policy_fn", [LruPolicy, FifoPolicy], ids=["lru_policy", "fifo_policy"]
)
@pytest.mark.parametrize("k,delay", [(1, 2), (2, 3), (3, 4), (4, 6)])
def test_marking_terminates_for_caching_policies(make_policy_fn, k, delay):
    params = ModelParams(k + 1, k, delay)
    report = build_adversarial_sequence(make_policy_fn(), params)
    assert not report.capped
    assert len(report.marked) == k
    assert report.bursty_count == k
    assert report.policy_latency == delay + k * delay * (delay + 1) // 2
    assert report.opt_latency == delay
    assert report.ratio_lower_bound == 1 + Fraction(k * (delay + 1), 2)


def _family_case(family, rng):
    """(params, policy) for one deterministic policy of ``family``; the
    k+Z wrapper runs under its outer parameters, cache K = k + Z."""
    k, delay = rng.randint(1, 3), rng.randint(2, 5)
    if family == "reduction":
        inner = ModelParams(k + delay + rng.choice((1, 3)), k, delay)
        inner_policy = rng.choice((LruPolicy, FifoPolicy))()
        return reduction_outer_params(inner), ReductionPolicy(inner_policy, inner)
    n = k + rng.randint(1, 3)
    if family == "random":
        return ModelParams(n, k, delay), RandomEvictionPolicy(rng.randrange(2**30))
    targets = rng.sample(range(1, n + 1), rng.randint(1, k))
    return ModelParams(n, k, delay), StaticPolicy(targets)


@pytest.mark.parametrize("family", ["reduction", "random", "static"])
def test_bound_holds_against_every_deterministic_family(family):
    # the bound is for any deterministic online policy: 80 seeded cases a family
    rng = random.Random(11)
    for _ in range(80):
        params, policy = _family_case(family, rng)
        K, delay = params.cache_size, params.delay
        report = build_adversarial_sequence(policy, params)
        assert brute_force_opt(params, report.sequence).min_latency == delay
        assert report.opt_latency == delay
        bursts = report.bursty_count
        assert report.ratio_lower_bound == 1 + Fraction(bursts * (delay + 1), 2)
        if not report.capped:
            assert report.ratio_lower_bound >= 1 + Fraction(K * (delay + 1), 2)
        if family == "reduction":
            # the wrapper keeps cycling through items 1..k+1, so it is never
            # marked out: every report runs to the default cap of 10K bursts
            assert report.capped and bursts == 10 * K
            assert report.marked <= set(range(1, K - delay + 2))


def test_lru_at_spec_point():
    report = build_adversarial_sequence(LruPolicy(), ModelParams(3, 2, 3))
    assert report.policy_latency == 15
    assert report.opt_latency == 3
    assert report.ratio_lower_bound == 5


def test_exhaustive_opt_confirms_witness():
    report = build_adversarial_sequence(LruPolicy(), ModelParams(3, 2, 3))
    assert brute_force_opt(ModelParams(3, 2, 3), report.sequence).min_latency == 3


def test_never_cache_hits_the_cap():
    params = ModelParams(4, 3, 3)
    report = build_adversarial_sequence(NeverCachePolicy(), params, cap=5)
    assert report.capped
    assert report.bursty_count == 5
    assert report.marked == frozenset({4})
    assert all(seg.item == 4 for seg in report.segments[1:])
    assert report.ratio_lower_bound == 1 + Fraction(5 * (3 + 1), 2)


def test_static_policy_can_be_attacked_too():
    # holding {1, 2} forever behaves like never-cache for the construction
    params = ModelParams(3, 2, 2)
    report = build_adversarial_sequence(StaticPolicy({1, 2}), params, cap=3)
    assert report.capped
    assert report.bursty_count == 3


def test_report_latency_matches_rerun():
    report = build_adversarial_sequence(FifoPolicy(), ModelParams(4, 3, 4))
    rerun = simulate(ModelParams(4, 3, 4), report.sequence, FifoPolicy())
    assert rerun.total_latency == report.policy_latency


def test_universe_must_have_a_spare_item():
    with pytest.raises(ValueError):
        build_adversarial_sequence(LruPolicy(), ModelParams(2, 2, 3))


def test_witness_item_is_never_bursted():
    report = build_adversarial_sequence(LruPolicy(), ModelParams(5, 4, 2))
    bursted = {seg.item for seg in report.segments if seg.kind == "bursty"}
    assert report.opt_witness_item not in bursted


def test_construction_steps_one_run_forward(calls):
    """The trace is built from one run stepped a segment at a time, not by
    re-simulating every prefix. Counted in timesteps (``Simulation.step``
    calls): 3516 with a re-run per segment at k=10, Z=16; now 1491, the
    build's run up to the last segment plus the policy's and the witness's
    full runs."""
    steps = calls(Simulation, "step")
    report = build_adversarial_sequence(LruPolicy(), ModelParams(11, 10, 16))
    assert len(report.sequence) == 513
    assert len(steps) <= 2000


class CachesFromSecondReset(LruPolicy):
    """Declines every caching chance until its second reset, then is LRU:
    it does not replay its own run, which the construction must notice."""

    def __init__(self):
        self.resets = 0

    def reset(self, params):
        super().reset(params)
        self.resets += 1

    def choose_eviction(self, t, item, cache):
        if self.resets == 1:
            return 0
        return super().choose_eviction(t, item, cache)


def test_a_policy_that_does_not_replay_is_caught():
    # the build sees a policy that never caches; the independent re-run
    # from a fresh reset sees LRU, which hits in the built trace
    with pytest.raises(RuntimeError, match="adversary contract violated"):
        build_adversarial_sequence(CachesFromSecondReset(), ModelParams(4, 3, 3), cap=4)


def test_a_witness_that_misses_more_than_once_is_caught(monkeypatch):
    # against a policy that never caches, the trace bursts item k + 1 and
    # the witness must cache it; one that never caches misses every burst
    monkeypatch.setattr(adversary, "StaticPolicy", lambda items: NeverCachePolicy())
    with pytest.raises(RuntimeError, match="^static witness achieved 15, expected exactly 3$"):
        build_adversarial_sequence(NeverCachePolicy(), ModelParams(3, 2, 3), cap=2)
