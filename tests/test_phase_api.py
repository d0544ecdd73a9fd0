"""Stateful test of the paused step API against a naive reference model.

Hypothesis drives ``step`` without a policy, then ``needs_decision`` and
``apply_eviction``, with random requests and random feasible and
infeasible evictions. The test keeps its own model of the run: a plain
list of queued (item, request time) pairs, a return-time -> item map of
fetches, and one cache snapshot per step. After every step it checks the
simulator against that model; the committed latency is recomputed with a
full scan, charging each queued request up to the earliest same-item
fetch in flight.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from delayedhits import (
    ANTIMONOTONE,
    STANDARD,
    InfeasibleEvictionError,
    ModelParams,
    Simulation,
    antimonotone_latency,
    delayed_hits_latency,
)


class PhaseMachine(RuleBasedStateMachine):
    @initialize(
        k=st.integers(1, 4),
        extra=st.integers(1, 4),
        delay=st.integers(1, 6),
        mode=st.sampled_from([STANDARD, ANTIMONOTONE]),
    )
    def start(self, k, extra, delay, mode):
        self.params = ModelParams(k + extra, k, delay, mode)
        self.sim = Simulation(self.params)
        self.sequence = []
        self.cache = set(range(1, k + 1))
        self.queued = []          # (item, request time)
        self.fetches = {}         # return time -> item
        self.charged = 0
        self.snapshots = [frozenset(self.cache)]

    def _dispatch(self, item, t):
        self.fetches[t + self.params.delay - 1] = item

    @rule(data=st.data())
    def step(self, data):
        item = data.draw(st.integers(0, self.params.num_items), label="item")
        self.sequence.append(item)
        t = len(self.sequence)

        returned = self.sim.step(item)
        # latencies fix the hit bits: a hit or idle slot costs 0, a miss at least 1
        latency = self.sim.per_request_latency[-1]
        assert (latency == 0) == (item == 0 or item in self.cache)
        if item != 0:
            hit = item in self.cache
            if not hit:
                self.queued.append((item, t))
            if not hit or self.params.mode == ANTIMONOTONE:
                self._dispatch(item, t)

        assert returned == self.fetches.pop(t, None)
        served = tuple((t0, t - t0 + 1) for it, t0 in self.queued if it == returned)
        self.charged += sum(latency for _, latency in served)
        self.queued = [(it, t0) for it, t0 in self.queued if it != returned]

        decision = returned is not None and returned not in self.cache
        assert self.sim.needs_decision(returned) == decision
        outsiders = [j for j in range(1, self.params.num_items + 1) if j not in self.cache]
        wrong = data.draw(st.sampled_from(outsiders), label="infeasible eviction")
        if data.draw(st.booleans(), label="try infeasible eviction"):
            # a non-resident victim, or any victim without a decision point
            attempt = wrong if decision else data.draw(
                st.sampled_from(sorted(self.cache) + [wrong]), label="victim"
            )
            try:
                self.sim.apply_eviction(returned, attempt)
            except InfeasibleEvictionError as exc:
                assert exc.timestep == t and exc.item == attempt
            else:
                raise AssertionError(f"eviction of {attempt} at t={t} was accepted")
        if decision:
            victim = data.draw(st.sampled_from([0] + sorted(self.cache)), label="victim")
            self.sim.apply_eviction(returned, victim)
            if victim:
                self.cache.remove(victim)
                self.cache.add(returned)
        self.snapshots.append(frozenset(self.cache))

    @invariant()
    def matches_reference(self):
        assert len(self.sim.cache) == self.params.cache_size
        assert set(self.sim.cache) == self.cache
        committed = self.charged + sum(
            min(rt for rt, it in self.fetches.items() if it == item) - t0 + 1
            for item, t0 in self.queued
        )
        assert self.sim.committed == committed
        # each item in flight spans its earliest to its latest return time
        in_flight = {}
        for rt, it in sorted(self.fetches.items()):
            in_flight.setdefault(it, []).append(rt)
        assert self.sim.fetch_times == {it: (rts[0], rts[-1]) for it, rts in in_flight.items()}

        # package a clone: the original run continues unaffected
        twin = self.sim.clone()
        result = twin.result()
        assert result.cache_history == self.snapshots
        closed_form = (
            antimonotone_latency if self.params.mode == ANTIMONOTONE else delayed_hits_latency
        )
        total, per = closed_form(self.sequence, self.params.delay, result.hit_sequence)
        assert (total, per) == (result.total_latency, result.per_request_latency)
        assert twin.committed == total


PhaseMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)
TestPhaseApi = PhaseMachine.TestCase
