"""Closed-form latency functions against the simulator and each other."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedhits import (
    ANTIMONOTONE,
    ModelParams,
    antimonotone_latency,
    delayed_hits_latency,
    dominates,
    simulate,
)
from delayedhits.policies import draw_policy
from delayedhits.traces import draw_instance


def test_burst_all_miss():
    total, per = delayed_hits_latency([3, 3, 3], 3, [0, 0, 0])
    assert (total, per) == (6, [3, 2, 1])


def test_all_ones_is_free():
    seq = [1, 0, 2, 2, 1]
    assert delayed_hits_latency(seq, 4, [1] * 5) == (0, [0] * 5)
    assert antimonotone_latency(seq, 4, [1] * 5) == (0, [0] * 5)


def test_first_hit_starves_the_burst():
    # with the opening request a hit, the burst cannot ride its fetch
    total, _ = delayed_hits_latency([3, 3, 3], 3, [1, 0, 0])
    assert total == 5
    total_anti, per_anti = antimonotone_latency([3, 3, 3], 3, [1, 0, 0])
    assert (total_anti, per_anti) == (3, [0, 2, 1])


def test_functions_agree_on_all_miss_bits():
    rng = random.Random(3)
    for _ in range(50):
        _, delay, n, seq = draw_instance(rng)
        zeros = [0] * len(seq)
        assert delayed_hits_latency(seq, delay, zeros) == antimonotone_latency(
            seq, delay, zeros
        )


def test_idle_bits_are_normalized():
    # zeros at idle slots must not introduce phantom latency
    seq = [0, 2, 0]
    total, per = delayed_hits_latency(seq, 3, [0, 0, 0])
    assert (total, per) == (3, [0, 3, 0])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match=r"^hit sequence length 1 != trace length 2$"):
        delayed_hits_latency([1, 2], 3, [0])
    with pytest.raises(ValueError, match=r"^hit sequence length 3 != trace length 2$"):
        antimonotone_latency([1, 2], 3, [0, 0, 1])
    with pytest.raises(ValueError):
        dominates([0, 1], [1])


def test_non_binary_bits_rejected():
    with pytest.raises(ValueError, match=r"^hit bits must be 0 or 1, got 2$"):
        delayed_hits_latency([1], 2, [2])
    # the first bad bit is named, an idle slot's included
    with pytest.raises(ValueError, match=r"^hit bits must be 0 or 1, got -1$"):
        antimonotone_latency([0, 1, 2], 2, [-1, 1, 5])


def test_delay_one_counts_misses():
    rng = random.Random(9)
    for _ in range(30):
        _, _, n, seq = draw_instance(rng)
        bits = [rng.randint(0, 1) for _ in seq]
        total, _ = delayed_hits_latency(seq, 1, bits)
        assert total == sum(
            1 for item, bit in zip(seq, bits) if item != 0 and bit == 0
        )


def test_dominates_examples():
    assert dominates([0, 0], [0, 1])
    assert not dominates([1, 0], [0, 1])
    assert not dominates([0, 1], [1, 0])
    assert dominates([1, 0, 1], [1, 0, 1])


def test_fetch_on_hit_pointwise_at_most_standard():
    rng = random.Random(17)
    for _ in range(100):
        _, delay, n, seq = draw_instance(rng)
        bits = [rng.randint(0, 1) for _ in seq]
        _, per_std = delayed_hits_latency(seq, delay, bits)
        _, per_anti = antimonotone_latency(seq, delay, bits)
        assert all(a <= s for a, s in zip(per_anti, per_std))


@st.composite
def _trace_and_bits(draw):
    length = draw(st.integers(1, 30))
    num_items = draw(st.integers(1, 5))
    delay = draw(st.integers(1, 8))
    seq = draw(st.lists(st.integers(0, num_items), min_size=length, max_size=length))
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return seq, delay, bits


@settings(max_examples=200, deadline=None)
@given(_trace_and_bits(), st.randoms(use_true_random=False))
def test_fetch_on_hit_latency_is_antimonotone(case, rnd):
    seq, delay, bits = case
    upper = [b | (rnd.random() < 0.5) for b in bits]
    low, _ = antimonotone_latency(seq, delay, bits)
    high, _ = antimonotone_latency(seq, delay, upper)
    assert dominates(bits, upper)
    assert high <= low


@settings(max_examples=150, deadline=None)
@given(_trace_and_bits())
def test_fetch_on_hit_single_flip_never_increases(case):
    seq, delay, bits = case
    base, _ = antimonotone_latency(seq, delay, bits)
    for pos, bit in enumerate(bits):
        if bit == 0:
            flipped = list(bits)
            flipped[pos] = 1
            value, _ = antimonotone_latency(seq, delay, flipped)
            assert value <= base


def _scan_latency(seq, delay, bits, fetch_on_hit):
    """The plain definition: a miss at t waits for the earliest dispatch of
    its item among the last ``delay`` steps, t included. Misses dispatch;
    with fetch on hit, hits dispatch too."""
    per = []
    for t, (item, bit) in enumerate(zip(seq, bits)):
        if item == 0 or bit == 1:
            per.append(0)
            continue
        dispatches = [
            s for s in range(max(0, t - delay + 1), t + 1)
            if seq[s] == item and (fetch_on_hit or bits[s] == 0)
        ]
        per.append(delay - (t - dispatches[0]))
    return sum(per), per


@settings(max_examples=300, deadline=None)
@given(_trace_and_bits())
def test_closed_forms_match_the_plain_definition(case):
    seq, delay, bits = case
    assert delayed_hits_latency(seq, delay, bits) == _scan_latency(seq, delay, bits, False)
    assert antimonotone_latency(seq, delay, bits) == _scan_latency(seq, delay, bits, True)


def test_simulation_matches_closed_forms():
    rng = random.Random(29)
    for _ in range(200):
        k, delay, n, seq = draw_instance(rng)
        policy = draw_policy(rng, seq, k, n)
        run = simulate(ModelParams(n, k, delay), seq, policy)
        total, per = delayed_hits_latency(seq, delay, run.hit_sequence)
        assert (total, per) == (run.total_latency, run.per_request_latency)
        run = simulate(ModelParams(n, k, delay, ANTIMONOTONE), seq, policy)
        total, per = antimonotone_latency(seq, delay, run.hit_sequence)
        assert (total, per) == (run.total_latency, run.per_request_latency)
