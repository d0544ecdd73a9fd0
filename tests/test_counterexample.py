"""The extra-hit-hurts construction and its verified claims."""

from fractions import Fraction

import pytest

from delayedhits import (
    ModelParams,
    SearchBudgetExceeded,
    antimonotone_latency,
    brute_force_opt,
    building_block,
    counterexample_sequence,
    delayed_hits_latency,
    dominates,
    is_hit_sequence_feasible,
    replay,
    verify_nonantimonotonicity,
)
from delayedhits import counterexample
from delayedhits.model import Simulation, VerificationError


def test_building_block_closed_forms():
    block = building_block(5)
    assert (block.all_miss_latency, block.first_hit_latency) == (8, 9)
    block = building_block(6)
    assert block.first_hit_latency - block.all_miss_latency == 3
    # no violation below delay 5: the gap closes at 4
    block = building_block(4)
    assert block.first_hit_latency - block.all_miss_latency == 0


def test_building_block_matches_latency_function():
    for delay in range(1, 13):
        block = building_block(delay)
        seq = list(block.sequence)
        zeros = [0] * len(seq)
        assert delayed_hits_latency(seq, delay, zeros)[0] == block.all_miss_latency
        first_hit = [1 if item and t == 0 else 0 for t, item in enumerate(seq)]
        assert delayed_hits_latency(seq, delay, first_hit)[0] == block.first_hit_latency


def test_building_block_all_miss_matches_simulation():
    for delay in (2, 5, 7):
        block = building_block(delay)
        seq = list(block.sequence)
        run = replay(ModelParams(2, 1, delay), seq, [0] * len(seq))
        assert run.total_latency == block.all_miss_latency


def test_sequence_layout_single_slot():
    cspec = counterexample_sequence(6, 1)
    seq = cspec.sequence
    assert len(seq) == 24
    assert seq[0] == 2 and seq[1] == 3
    assert seq[6] == 2                      # hot again at t = delay + 1
    assert seq[9:12] == (2, 2, 2)           # z-burst ends at 2*delay
    assert seq[18:24] == (3,) * 6           # decoy tail
    assert all(v == 0 for i, v in enumerate(seq) if i not in {0, 1, 6, 9, 10, 11}
               and not 18 <= i < 24)


def test_sequence_layout_padding_blocks():
    cspec = counterexample_sequence(5, 3)
    seq = cspec.sequence
    assert len(seq) == (2 * 3 + 2) * 5
    # pinned blocks for items 2 and 3 on 2*delay strides after the burst
    assert seq[15:20] == (2,) * 5
    assert seq[25:30] == (3,) * 5
    assert seq[35:40] == (5,) * 5           # decoy tail


def test_bit_vectors_differ_in_one_place():
    cspec = counterexample_sequence(7, 2)
    assert dominates(cspec.baseline_bits, cspec.extra_hit_bits)
    diffs = [
        i for i, (a, b) in enumerate(zip(cspec.baseline_bits, cspec.extra_hit_bits))
        if a != b
    ]
    assert diffs == [7]


@pytest.mark.parametrize("delay,cache_size", [(5, 1), (6, 1), (8, 2), (6, 3)])
def test_verified_gap(delay, cache_size):
    cspec = counterexample_sequence(delay, cache_size)
    report = verify_nonantimonotonicity(cspec, check_optimal=(cache_size == 1))
    z = delay // 2
    assert report.gap == z * (delay - z) - delay > 0
    assert report.baseline_latency == 3 * delay + z * (z + 1) // 2


def test_gap_is_cache_size_independent():
    gaps = set()
    for cache_size in (1, 2, 3):
        cspec = counterexample_sequence(6, cache_size)
        report = verify_nonantimonotonicity(cspec, check_optimal=False)
        gaps.add(report.gap)
    assert gaps == {3}


def test_constructive_schedules_realize_both_vectors():
    cspec = counterexample_sequence(6, 1)
    params = cspec.params()
    length, delay = len(cspec.sequence), cspec.delay
    # cache the decoy when it returns, never touch the cache again
    baseline = [0] * length
    baseline[delay] = 1                      # t = delay+1: insert decoy, evict 1
    run = replay(params, list(cspec.sequence), baseline)
    assert tuple(run.hit_sequence) == cspec.baseline_bits
    # cache the hot item first, then swap it out for the decoy
    extra = [0] * length
    extra[delay - 1] = 1                     # t = delay: insert hot, evict 1
    extra[delay] = 2                         # t = delay+1: insert decoy, evict hot
    run = replay(params, list(cspec.sequence), extra)
    assert tuple(run.hit_sequence) == cspec.extra_hit_bits


def test_search_witnesses_replay_to_their_vectors():
    cspec = counterexample_sequence(5, 2)
    report = verify_nonantimonotonicity(cspec, check_optimal=False)
    params = cspec.params()
    run = replay(params, list(cspec.sequence), report.baseline_witness)
    assert tuple(run.hit_sequence) == cspec.baseline_bits
    run = replay(params, list(cspec.sequence), report.extra_hit_witness)
    assert tuple(run.hit_sequence) == cspec.extra_hit_bits


def test_feasibility_search_cuts_pinned_evictions_early(monkeypatch):
    """A wrong eviction of an item the baseline hits must be cut when it is
    made, not thousands of steps later when the item's block arrives.

    Counted in timesteps (``Simulation.step`` calls), not seconds or
    decision nodes: the cut leaves the decision nodes as they were and
    shortens the runs between them. Without it this search makes 722 840
    steps; with it, 76 156."""
    calls = 0
    step = Simulation.step

    def counting(self, item, policy=None):
        nonlocal calls
        calls += 1
        return step(self, item, policy)

    monkeypatch.setattr(Simulation, "step", counting)
    cspec = counterexample_sequence(60, 20)
    feasible, witness = is_hit_sequence_feasible(
        cspec.params(), list(cspec.sequence), list(cspec.baseline_bits)
    )
    assert feasible
    assert calls < 100_000
    monkeypatch.undo()
    run = replay(cspec.params(), list(cspec.sequence), witness)
    assert tuple(run.hit_sequence) == cspec.baseline_bits


def test_exhaustive_optimum_at_spec_point():
    cspec = counterexample_sequence(5, 1)
    assert brute_force_opt(cspec.params(), list(cspec.sequence)).min_latency == 18
    report = verify_nonantimonotonicity(cspec)
    assert report.baseline_latency == 18
    assert report.opt_latency == 18
    assert report.opt_unique


def test_fetch_on_hit_model_is_immune():
    for delay, cache_size in ((5, 1), (9, 2)):
        cspec = counterexample_sequence(delay, cache_size)
        low, _ = antimonotone_latency(list(cspec.sequence), delay, cspec.baseline_bits)
        high, _ = antimonotone_latency(list(cspec.sequence), delay, cspec.extra_hit_bits)
        assert high <= low


def test_quadratic_scaling_of_the_gap():
    # for even delay the normalized gap is exactly 1/4 - 1/delay
    for delay in (16, 32, 64):
        cspec = counterexample_sequence(delay, 1)
        ratio = Fraction(cspec.predicted_gap, delay**2)
        assert ratio == Fraction(1, 4) - Fraction(1, delay)
    assert (
        counterexample_sequence(64, 1).predicted_gap
        > counterexample_sequence(32, 1).predicted_gap
        > counterexample_sequence(16, 1).predicted_gap
        > 0
    )


def test_small_delay_rejected():
    with pytest.raises(ValueError):
        counterexample_sequence(4, 1)
    with pytest.raises(ValueError):
        counterexample_sequence(6, 0)
    with pytest.raises(ValueError, match="delay must be >= 1"):
        building_block(0)


def test_tampered_spec_is_caught():
    cspec = counterexample_sequence(6, 1)
    broken = cspec.__class__(
        delay=cspec.delay,
        cache_size=cspec.cache_size,
        burst_len=cspec.burst_len,
        sequence=cspec.sequence,
        baseline_bits=cspec.extra_hit_bits,   # swapped: domination must fail
        extra_hit_bits=cspec.baseline_bits,
        predicted_gap=cspec.predicted_gap,
    )
    with pytest.raises(VerificationError):
        verify_nonantimonotonicity(broken, check_optimal=False)


def _extra_hit_elsewhere(cspec):
    extra = list(cspec.extra_hit_bits)
    extra[0] = 1  # the opening request, a forced miss
    return cspec._replace(extra_hit_bits=tuple(extra))


def _regapped(cspec, sequence):
    """``cspec`` on another trace, with the gap its two vectors have there."""
    gap = (delayed_hits_latency(sequence, cspec.delay, list(cspec.extra_hit_bits))[0]
           - delayed_hits_latency(sequence, cspec.delay, list(cspec.baseline_bits))[0])
    return cspec._replace(sequence=tuple(sequence), predicted_gap=gap)


def _without_burst(cspec):
    # with no burst to serve, the lone miss's fetch only costs
    delay, sequence = cspec.delay, list(cspec.sequence)
    sequence[2 * delay - cspec.burst_len:2 * delay] = [0] * cspec.burst_len
    return _regapped(cspec, sequence)


def _hot_after_decoy(cspec):
    # hot's fetch now returns at t = delay + 1, too late for that request to hit
    sequence = list(cspec.sequence)
    sequence[0], sequence[1] = sequence[1], sequence[0]
    return _regapped(cspec, sequence)


def _with_tail(cspec, items, bits):
    """``cspec`` with requests appended, each after ``delay`` idle slots,
    and the same bits for them in both vectors."""
    pad = cspec.delay
    sequence = [x for item in items for x in [0] * pad + [item]]
    tail = [b for bit in bits for b in [1] * pad + [bit]]
    return cspec._replace(
        sequence=cspec.sequence + tuple(sequence),
        baseline_bits=cspec.baseline_bits + tuple(tail),
        extra_hit_bits=cspec.extra_hit_bits + tuple(tail),
    )


# at k = 1 the hot item is 2 and the decoy, resident at the end, is 3
@pytest.mark.parametrize(
    "tamper,message",
    [
        (_extra_hit_elsewhere, r"bit vectors differ at \[1, 7\], expected \[7\]"),
        (lambda c: c._replace(predicted_gap=c.predicted_gap + 1),
         "latency gap is 3, closed form predicts 4"),
        (_without_burst, "gap -6 is not positive"),
        # item k + 1, the hot item, starts resident, so its first request hits
        (lambda c: c._replace(cache_size=2), "baseline hit sequence is not feasible"),
        (_hot_after_decoy, "extra-hit hit sequence is not feasible"),
        # both misses of the hot item are feasible, but caching it saves one
        (lambda c: _with_tail(c, [2, 2], [0, 0]),
         "exhaustive optimum 30 != baseline latency 36"),
        # caching the hot item for its second request costs the decoy a miss
        (lambda c: _with_tail(c, [2, 2, 3], [0, 0, 1]),
         "baseline is not the unique optimal hit sequence; found 2"),
    ],
    ids=["differ-elsewhere", "gap-not-closed-form", "gap-not-positive",
         "baseline-infeasible", "extra-hit-infeasible", "not-optimal", "not-unique"],
)
def test_each_refusal_names_its_check(tamper, message):
    with pytest.raises(VerificationError, match=f"^{message}$"):
        verify_nonantimonotonicity(tamper(counterexample_sequence(6, 1)))


def test_fetch_on_hit_increase_is_refused(monkeypatch):
    # the real closed form is antimonotone, so this check is reached only
    # through one that charges each hit
    def charging(sequence, delay, bits):
        total, per = antimonotone_latency(sequence, delay, bits)
        return total + 1000 * sum(bits), per

    monkeypatch.setattr(counterexample, "antimonotone_latency", charging)
    with pytest.raises(VerificationError, match="fetch-on-hit latency increased"):
        verify_nonantimonotonicity(counterexample_sequence(6, 1))


def test_overrun_names_its_search_and_keeps_the_partial_report():
    cspec = counterexample_sequence(26, 7)
    with pytest.raises(SearchBudgetExceeded) as exc:
        verify_nonantimonotonicity(cspec, node_budget=5)
    assert str(exc.value) == (
        "baseline feasibility search: instance too large: more than 5 decision nodes"
    )
    report = exc.value.report
    assert report.gap == 143
    assert report.baseline_witness is None and report.extra_hit_witness is None
    # 40 nodes fit both feasibility searches and the optimum search
    with pytest.raises(SearchBudgetExceeded) as exc:
        verify_nonantimonotonicity(cspec, node_budget=40)
    assert str(exc.value).startswith("unique-optimum search: ")
    report = exc.value.report
    assert report.baseline_witness and report.extra_hit_witness
    assert report.opt_latency == 169
    assert report.opt_unique is None
