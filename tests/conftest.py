"""What the tests share: the call-recording fixture that the cost tests
count with, the names of recorded searches, a policy checked against its
defining rule, and ``simulate``'s run rebuilt from paused steps."""

import inspect

import pytest

from delayedhits import Simulation


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` replaces the function or method ``owner.name``
    for the test with one that records each call and forwards it to the
    real one, and returns the record: a list, oldest call first, of each
    call's arguments by parameter name, defaults included, kept as passed.
    With ``edit``, ``edit(arguments)`` may change a call's arguments by
    name before they are recorded and forwarded."""

    def record(owner, name, edit=None):
        real = getattr(owner, name)
        signature = inspect.signature(real)
        made = []

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if edit is not None:
                edit(bound.arguments)
            made.append(bound.arguments)
            return real(*bound.args, **bound.kwargs)

        monkeypatch.setattr(owner, name, call)
        return made

    return record


def search_names(searches):
    """Each recorded ``search._search`` call by what it searches for: the
    first deviation from the baseline, a target's first run, or the
    optimum (ge)."""
    return ["avoid" if call["avoid"] is not None else
            call["cut"].__name__ if call["target"] is None else "target"
            for call in searches]


class Checked:
    """Runs ``policy`` and asserts at each decision that its victim equals
    ``rule(policy, t, cache, last_request)``, where ``last_request`` maps
    each item requested so far to its last request time; counts the
    decisions."""

    def __init__(self, policy, rule):
        self.policy = policy
        self.rule = rule
        self.name = policy.name
        self.decisions = 0

    def reset(self, params):
        self.policy.reset(params)
        self.last_request = {}

    def observe(self, t, item, hit):
        self.policy.observe(t, item, hit)
        if item != 0:
            self.last_request[item] = t

    def choose_eviction(self, t, item, cache):
        expected = self.rule(self.policy, t, cache, self.last_request)
        victim = self.policy.choose_eviction(t, item, cache)
        assert victim == expected, f"t={t}: {self.name} evicted {victim}, rule {expected}"
        self.decisions += 1
        return victim


def paused_run(params, sequence, policy, visit):
    """``simulate``'s run rebuilt from paused steps: ``policy`` is reset,
    shown each request, and at each decision ``visit(sim, returned)`` sees
    the paused run before the policy's victim is applied. Returns the run."""
    policy.reset(params)
    sim = Simulation(params)
    for item in sequence:
        hit = item in sim.cache if item else None
        returned = sim.step(item)
        policy.observe(sim.t, item, hit)
        if sim.needs_decision(returned):
            visit(sim, returned)
            sim.apply_eviction(returned, policy.choose_eviction(sim.t, returned, sim.cache.keys()))
    return sim
