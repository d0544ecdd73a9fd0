"""Turn a fetch-on-hit policy into a standard-model policy with a bigger cache.

A policy A designed for the fetch-on-hit model with cache size k can be
wrapped into a policy B for the standard model with cache size k + delay
whose per-request latency never exceeds A's. B simulates A's run
internally and keeps B's cache covering two groups: A's current cache,
and every item requested during the last ``delay`` timesteps (hits
included). The second group is what replaces the fetches A dispatches on
hits: anything A could serve early thanks to such a fetch is, in B's run,
simply still resident. Both groups together never exceed k + delay items
and the item being cached is always among the recent requests, so a
disposable victim always exists.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .model import (
    ANTIMONOTONE,
    STANDARD,
    ModelParams,
    Simulation,
    VerificationError,
    simulate,
)
from .policies import Policy


def reduction_outer_params(inner_params: ModelParams) -> ModelParams:
    """Standard-model parameters for the wrapped policy (capacity k + delay)."""
    n, k, delay = inner_params.num_items, inner_params.cache_size, inner_params.delay
    return ModelParams(n, k + delay, delay, STANDARD)


class ReductionPolicy(Policy):
    """Standard-model policy that shadows a fetch-on-hit run of ``inner``.

    The inner simulation is advanced in lockstep with the observed
    request stream: ``observe`` runs one full inner timestep, ``inner``'s
    eviction decision included. The outer run asks for its own decision
    after its request phase, so the protected set then reflects the inner
    cache at the end of the same timestep.

    Evictions pick the smallest-id cached item outside the protected set:
    the inner cache and the last ``delay`` requests, idle slots included,
    so timesteps t - delay + 1..t; one provably always exists. This is the
    policy B built from A; run it under :func:`reduction_outer_params`.
    """

    name = "reduction"

    def __init__(self, inner_policy: Policy, inner_params: ModelParams):
        self.inner_policy = inner_policy
        n, k, delay = inner_params.num_items, inner_params.cache_size, inner_params.delay
        self.inner_params = ModelParams(n, k, delay, ANTIMONOTONE)

    def reset(self, params):
        """Start a run under ``params``, which must be exactly
        :func:`reduction_outer_params` of the inner parameters: the same
        universe and delay, capacity k + delay, the standard model."""
        inner = self.inner_params
        expected = reduction_outer_params(inner)
        if params != expected:
            raise ValueError(f"the wrapper runs under {expected!r}, got {params!r}")
        self.inner_policy.reset(inner)
        self.inner = Simulation(inner)
        self.recent = deque(maxlen=inner.delay)

    def observe(self, t, item, hit):
        self.inner.step(item, self.inner_policy)
        assert self.inner.t == t, "inner simulation fell out of lockstep"
        self.recent.append(item)

    def choose_eviction(self, t, item, cache):
        return min(cache - self.inner.cache.keys() - set(self.recent), default=0)


class DominationReport(namedtuple("DominationReport", "inner_per_request outer_per_request "
                                  "inner_total outer_total")):
    """Paired run of A (fetch-on-hit, cache k) and B (standard, cache k+delay)."""

    __slots__ = ()


def verify_domination(sequence, inner_policy: Policy, inner_params: ModelParams) -> DominationReport:
    """Run both models on one trace and check B never does worse anywhere.

    A's run is the one B shadows in lockstep, so each policy runs once.
    Raises :class:`VerificationError` naming the first timestep where the
    wrapped policy's latency exceeds the inner policy's.
    """
    wrapped = ReductionPolicy(inner_policy, inner_params)
    outer_run = simulate(reduction_outer_params(inner_params), sequence, wrapped)
    inner_run = wrapped.inner.result()

    for t, (inner_lat, outer_lat) in enumerate(
        zip(inner_run.per_request_latency, outer_run.per_request_latency), start=1
    ):
        if outer_lat > inner_lat:
            raise VerificationError(
                f"domination violated at t={t}: wrapped latency {outer_lat} > "
                f"inner latency {inner_lat}"
            )
    return DominationReport(
        inner_per_request=inner_run.per_request_latency,
        outer_per_request=outer_run.per_request_latency,
        inner_total=inner_run.total_latency,
        outer_total=outer_run.total_latency,
    )
