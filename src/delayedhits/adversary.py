"""Adaptive request-sequence construction that defeats any deterministic policy.

The construction alternates between simulating the target policy and
extending the trace: after an opening isolated single request for item
k+1, it repeatedly looks at which item of {1..k+1} the policy is *not*
holding once all fetches have settled, and appends an isolated burst of
that item. The policy misses every request by construction, while the
static schedule that holds the one never-bursted item misses only the
opening request. The resulting latency ratio grows like k*delay.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .model import ModelParams, Simulation, simulate
from .policies import StaticPolicy


class Segment(namedtuple("Segment", "kind item rendered")):
    """One isolated piece of the adversarial trace: ``kind`` is "pure" or
    "bursty", ``rendered`` its requests as a tuple."""

    __slots__ = ()

    def miss_cost(self, delay: int) -> int:
        if self.kind == "pure":
            return delay
        return delay * (delay + 1) // 2


def pure_segment(item: int, delay: int) -> Segment:
    """Idle padding, one request, idle padding: costs ``delay`` if missed."""
    body = (0,) * delay + (item,) + (0,) * delay
    return Segment("pure", item, body)


def bursty_segment(item: int, delay: int) -> Segment:
    """Idle padding, ``delay`` back-to-back requests, idle padding.

    Missing the first request means missing them all, for a total cost of
    delay*(delay+1)/2; hitting the first means hitting them all.
    """
    body = (0,) * delay + (item,) * delay + (0,) * delay
    return Segment("bursty", item, body)


class AdversaryReport(namedtuple("AdversaryReport", "sequence segments policy_latency "
                                 "opt_latency opt_witness_item marked bursty_count capped "
                                 "ratio_lower_bound")):
    """The adversarial trace plus the measured latencies and ratio bound."""

    __slots__ = ()


def build_adversarial_sequence(policy, params: ModelParams, cap=None) -> AdversaryReport:
    """Build the adaptive trace against ``policy`` and certify the ratio bound.

    ``policy`` must be deterministic. The construction steps one run of it
    forward a segment at a time and reads its cache at the quiescent
    instant after each segment (all fetches returned, so the cache is
    well-defined). The finished trace is then simulated again from a fresh
    reset, and any hit there means the policy did not replay its own run:
    RuntimeError. Marked items are the burst targets; construction stops
    when k distinct items have been marked or after ``cap`` bursts
    (default 10*k), whichever comes first. A capped report is flagged and
    its bound uses the actual burst count.
    """
    n, k, delay = params.num_items, params.cache_size, params.delay
    if n < k + 1:
        raise ValueError("adversary needs at least k+1 items in the universe")
    if cap is None:
        cap = 10 * k
    if cap < 1:
        # no bursty segment leaves a trace both schedules miss once: ratio 1
        raise ValueError(f"cap must be at least 1 bursty segment, got {cap}")
    candidates = set(range(1, k + 2))

    segments = [pure_segment(k + 1, delay)]
    marked = set()
    policy.reset(params)
    run = Simulation(params)
    while len(marked) < k and len(segments) - 1 < cap:
        for item in segments[-1].rendered:
            run.step(item, policy)
        # every segment ends in delay idle slots, so no fetch is in flight
        target = min(candidates - run.cache.keys())
        segments.append(bursty_segment(target, delay))
        marked.add(target)
    trace = [item for segment in segments for item in segment.rendered]

    # the one independent re-run, from a fresh reset, that the bound rests on
    outcome = simulate(params, trace, policy)
    for pos, item in enumerate(trace):
        if item != 0 and outcome.hit_sequence[pos] == 1:
            raise RuntimeError(
                f"adversary contract violated: policy hit at t={pos + 1}; "
                "the policy is not deterministic or the simulator is broken"
            )

    witness_item = min(candidates - marked)
    witness = StaticPolicy(candidates - {witness_item})
    opt_latency = simulate(params, trace, witness).total_latency
    if opt_latency != delay:
        raise RuntimeError(
            f"static witness achieved {opt_latency}, expected exactly {delay}"
        )

    bursty_count = len(segments) - 1
    return AdversaryReport(
        sequence=trace,
        segments=segments,
        policy_latency=outcome.total_latency,
        opt_latency=opt_latency,
        opt_witness_item=witness_item,
        marked=frozenset(marked),
        bursty_count=bursty_count,
        capped=len(marked) < k,
        ratio_lower_bound=Fraction(outcome.total_latency, opt_latency),
    )
