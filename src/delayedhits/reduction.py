"""Turn a fetch-on-hit policy into a standard-model policy with a bigger cache.

A policy A designed for the fetch-on-hit model with cache size k can be
wrapped into a policy B for the standard model with cache size k + delay
whose per-request latency never exceeds A's. B simulates A's run
internally and keeps B's cache covering two groups: A's current cache,
and every item requested during the last ``delay`` timesteps (hits
included). The second group is what replaces the fetches A dispatches on
hits: anything A could serve early thanks to such a fetch is, in B's run,
simply still resident. Both groups together never exceed k + delay items
and the item being cached is always in the window, so a disposable victim
always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    ANTIMONOTONE,
    STANDARD,
    ModelParams,
    Simulation,
    VerificationError,
    simulate,
)
from .policies import Policy


def reduction_outer_params(inner_params: ModelParams, window=None) -> ModelParams:
    """Standard-model parameters for the wrapped policy (capacity k + window)."""
    w = inner_params.delay if window is None else window
    return replace(inner_params, cache_size=inner_params.cache_size + w, mode=STANDARD)


class ReductionPolicy(Policy):
    """Standard-model policy that shadows a fetch-on-hit run of ``inner``.

    The inner simulation is advanced in lockstep with the observed
    request stream: ``observe`` runs one full inner timestep, ``inner``'s
    eviction decision included. The outer run asks for its own decision
    after its request phase, so the protected set then reflects the inner
    cache at the end of the same timestep.

    Evictions pick the smallest-id cached item outside the protected set
    (inner cache plus the recent-request window). With the default window
    of ``delay`` an unprotected victim provably always exists; with
    window=0 the wrapper degenerates to mirroring the inner cache and
    declines whenever the mirror is already exact. This is the policy B
    built from A; run it under :func:`reduction_outer_params`.
    """

    name = "reduction"

    def __init__(self, inner_policy: Policy, inner_params: ModelParams, window=None):
        self.inner_policy = inner_policy
        self.inner_params = replace(inner_params, mode=ANTIMONOTONE)
        self.window = inner_params.delay if window is None else window
        if self.window < 0:
            raise ValueError("window must be >= 0")

    def reset(self, params):
        expected = self.inner_params.cache_size + self.window
        if params.cache_size != expected:
            raise ValueError(
                f"outer cache size {params.cache_size} != inner {self.inner_params.cache_size} "
                f"+ window {self.window}"
            )
        if params.delay != self.inner_params.delay:
            raise ValueError("outer and inner delay must match")
        self.inner_policy.reset(self.inner_params)
        self.inner = Simulation(self.inner_params)
        self.last_request = {}

    def observe(self, t, item, hit):
        self.inner.step(item, self.inner_policy)
        assert self.inner.t == t, "inner simulation fell out of lockstep"
        if item != 0:
            self.last_request[item] = t

    def choose_eviction(self, t, item, cache):
        protected = set(self.inner.cache)
        horizon = t - self.window + 1
        protected.update(y for y, s in self.last_request.items() if s >= horizon)
        return min(cache - protected, default=0)


# the factory name the package has always exported
wrap_reduction = ReductionPolicy


@dataclass
class DominationReport:
    """Paired run of A (fetch-on-hit, cache k) and B (standard, cache k+delay)."""

    inner_per_request: list[int]
    outer_per_request: list[int]
    inner_total: int
    outer_total: int


def verify_domination(sequence, inner_policy: Policy, inner_params: ModelParams) -> DominationReport:
    """Run both models on one trace and check B never does worse anywhere.

    Raises :class:`VerificationError` naming the first timestep where the
    wrapped policy's latency exceeds the inner policy's.
    """
    wrapped = ReductionPolicy(inner_policy, inner_params)
    inner_run = simulate(wrapped.inner_params, sequence, inner_policy)
    outer_run = simulate(reduction_outer_params(inner_params), sequence, wrapped)

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
