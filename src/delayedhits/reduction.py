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

from dataclasses import dataclass

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
    return ModelParams(
        inner_params.num_items,
        inner_params.cache_size + w,
        inner_params.delay,
        STANDARD,
    )


class ReductionPolicy(Policy):
    """Standard-model policy that shadows a fetch-on-hit run of ``inner``.

    The inner simulation is advanced in lockstep with the observed
    request stream: ``observe`` runs the inner request phase, and the
    matching inner retrieval phase is completed lazily before the next
    observation or before any eviction decision of the outer run, so the
    protected set always reflects the inner cache at the current instant.

    Evictions pick the smallest-id cached item outside the protected set
    (inner cache plus the recent-request window). With the default window
    of ``delay`` an unprotected victim provably always exists; with
    window=0 the wrapper degenerates to mirroring the inner cache and
    declines whenever the mirror is already exact.
    """

    name = "reduction"

    def __init__(self, inner_policy: Policy, inner_params: ModelParams, window=None):
        self.inner_policy = inner_policy
        self.inner_params = ModelParams(
            inner_params.num_items,
            inner_params.cache_size,
            inner_params.delay,
            ANTIMONOTONE,
        )
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
        self.retrieval_due = False
        self.last_request = {}

    def _settle_inner(self):
        if not self.retrieval_due:
            return
        returned = self.inner.retrieval_serve()
        if self.inner.needs_decision(returned):
            choice = self.inner_policy.choose_eviction(
                self.inner.t, returned, self.inner.cache.keys()
            )
            self.inner.apply_eviction(returned, choice)
        self.retrieval_due = False

    def observe(self, t, item, hit):
        self._settle_inner()
        inner_hit = self.inner.request_phase(item)
        assert self.inner.t == t, "inner simulation fell out of lockstep"
        self.inner_policy.observe(t, item, inner_hit)
        self.retrieval_due = True
        if item != 0:
            self.last_request[item] = t

    def choose_eviction(self, t, item, cache):
        self._settle_inner()
        assert self.inner.t == t, "inner simulation fell out of lockstep"
        protected = set(self.inner.cache)
        horizon = t - self.window + 1
        protected.update(y for y, s in self.last_request.items() if s >= horizon)
        disposable = sorted(cache - protected)
        return disposable[0] if disposable else 0


def wrap_reduction(inner_policy: Policy, inner_params: ModelParams, window=None) -> ReductionPolicy:
    """The policy B built from A; run it under :func:`reduction_outer_params`."""
    return ReductionPolicy(inner_policy, inner_params, window)


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
    inner_run = simulate(
        ModelParams(
            inner_params.num_items,
            inner_params.cache_size,
            inner_params.delay,
            ANTIMONOTONE,
        ),
        sequence,
        inner_policy,
    )
    wrapped = wrap_reduction(inner_policy, inner_params)
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
