"""Discrete-time cache simulation with delayed hits.

The model runs in integer timesteps. Each timestep has a request phase
(item ``i_t`` arrives; 0 marks an idle slot) and a retrieval phase (the
backing-store fetch dispatched ``delay - 1`` steps earlier returns and
serves every request still waiting for its item). A request for a
resident item is a hit and costs 0. A miss dispatches a fetch; if an
earlier same-item fetch is still in flight the request is served by it
sooner (a delayed hit, cost in 1..delay-1), otherwise it waits the full
``delay``. Either way its latency is fixed the moment it misses, so the
simulator keeps no request queues, only the fetches in flight.

Two variants are supported. The standard model dispatches a fetch only on
a miss. The antimonotone variant dispatches on every nonzero request,
hits included, which is the modification that makes its latency function
antimonotone in the hit bits.

All arithmetic is exact integers; given a deterministic eviction policy
the whole simulation is deterministic.
"""

from __future__ import annotations

from collections import namedtuple

STANDARD = "standard"
ANTIMONOTONE = "antimonotone"
MODES = (STANDARD, ANTIMONOTONE)


class InfeasibleEvictionError(Exception):
    """An eviction was attempted that the cache state does not allow."""

    def __init__(self, timestep, item, reason="item not resident"):
        self.timestep = timestep
        self.item = item
        self.reason = reason
        super().__init__(
            f"infeasible eviction of item {item} at t={timestep}: {reason}"
        )

    def __reduce__(self):
        # rebuilt from its fields, so that it survives pickling (a check
        # worker sends its exception to the parent); args hold the message
        return type(self), (self.timestep, self.item, self.reason)


class VerificationError(Exception):
    """A checked property failed; the message names the violated check."""


class SearchBudgetExceeded(Exception):
    """The instance is too large for the exhaustive search budget."""


# decision nodes an exhaustive search may visit unless told otherwise
DEFAULT_SEARCH_BUDGET = 2**22


class ModelParams(namedtuple("ModelParams", "num_items cache_size delay mode")):
    """Instance parameters: item universe, cache capacity, fetch delay, variant.

    A named tuple, equal to the plain tuple of its four fields; the
    constructor checks them, and ``_make`` and ``_replace`` build through it.
    """

    __slots__ = ()

    def __new__(cls, num_items: int, cache_size: int, delay: int, mode: str = STANDARD):
        for name, value in zip(cls._fields, (num_items, cache_size, delay)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return super().__new__(cls, num_items, cache_size, delay, mode)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def initial_cache(self) -> frozenset[int]:
        # by convention the cache starts holding items 1..cache_size, and a
        # cache larger than the universe holds no item outside it
        return frozenset(range(1, min(self.cache_size, self.num_items) + 1))


class SimulationResult(namedtuple("SimulationResult", "hit_sequence per_request_latency "
                                  "eviction_sequence total_latency")):
    """Everything a run decides, final at its last request. The cache is
    not stored: :func:`cache_history` rebuilds it from the evictions."""

    __slots__ = ()


def validate_sequence(params: ModelParams, sequence) -> None:
    if not sequence or 0 <= min(sequence) and max(sequence) <= params.num_items:
        return
    # out of range somewhere: find the first offending timestep
    for pos, item in enumerate(sequence, start=1):
        if not 0 <= item <= params.num_items:
            raise ValueError(
                f"request at t={pos} is {item}, outside 0..{params.num_items}"
            )


class Simulation:
    """The delayed-hits state machine, advanced one timestep at a time.

    ``step`` is its one transition: it runs a full timestep and returns
    the item that came back. :func:`simulate` and the model reduction's
    shadow run hand it a policy; :func:`replay` and the exhaustive
    searches step without one, so the run pauses at each return and they
    decide through ``apply_eviction``, the searches branching there.
    ``step`` reads ``num_items``, ``delay`` and ``fetch_on_hit``, bound here.

    Every structure is keyed by item or by time and holds only what is in
    flight, so one request costs O(1) amortised work and a run holds O(T)
    memory whatever the item ids are: one latency per step, which gives
    its hit bit, and two list slots per eviction in ``log``, a flat list
    the run owns. Only :meth:`clone` and :meth:`result` read the log; the
    result gives it out as the eviction sequence.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.num_items = params.num_items
        self.delay = params.delay
        self.fetch_on_hit = params.mode == ANTIMONOTONE
        self.t = 0
        # a dict used as a set: its keys() view is what policies are shown
        self.cache = dict.fromkeys(params.initial_cache())
        # in-flight state; the pairs are replaced, never mutated, so a clone
        # can share them, and ``later`` links an item's return times in order
        self.fetches = {}      # return time -> item; one dispatch per timestep
        self.fetch_times = {}  # item -> (first, last) return time in flight
        self.later = {}        # return time -> the same item's next one
        self.per_request_latency = []  # a hit costs 0, a miss at least 1
        self.log = []  # t, victim: two slots per eviction
        # latency of every request so far, exact, not a bound: a miss's serving
        # fetch (the earliest same-item one then in flight) is fixed when it misses
        self.committed = 0

    def needs_decision(self, returned) -> bool:
        return returned is not None and returned not in self.cache

    def apply_eviction(self, returned: int | None, eviction: int) -> None:
        """Cache ``returned`` in place of ``eviction`` (0 declines)."""
        if eviction == 0:
            return
        if returned is None:
            raise InfeasibleEvictionError(
                self.t, eviction, "no insertion opportunity: nothing returned"
            )
        if returned in self.cache:
            raise InfeasibleEvictionError(
                self.t, eviction, "no insertion opportunity: returned item resident"
            )
        if eviction not in self.cache:
            raise InfeasibleEvictionError(self.t, eviction)
        del self.cache[eviction]
        self.cache[returned] = None
        self.log.extend((self.t, eviction))
        assert len(self.cache) == self.params.cache_size

    def step(self, item: int, policy=None) -> int | None:
        """Run one timestep and return the item that came back (None if
        nothing did).

        The request phase advances the clock and takes in ``item`` (0 =
        idle). A miss's latency is fixed here: the earliest same-item fetch
        in flight, its own fetch included, is the one that will serve it.
        ``policy`` then observes the request. The retrieval phase returns
        the fetch due now, which serves the requests waiting for it. If
        the returned item is not resident, ``policy`` chooses the eviction;
        without a policy the run pauses there and the caller decides
        through :meth:`apply_eviction`.
        """
        if not 0 <= item <= self.num_items:
            raise ValueError(f"item {item} outside 0..{self.num_items}")
        self.t = t = self.t + 1
        # hit is None at an idle slot, which costs nothing, as a hit does
        hit = item in self.cache if item else None
        if hit is not False:
            self.per_request_latency.append(0)
        if hit is False or (hit and self.fetch_on_hit):
            # dispatch; one request per timestep, so the return slot is free
            return_time = t + self.delay - 1
            self.fetches[return_time] = item
            first, last = self.fetch_times.get(item, (return_time, None))
            if last is not None:
                self.later[last] = return_time
            self.fetch_times[item] = first, return_time
            if not hit:
                latency = first - t + 1
                self.per_request_latency.append(latency)
                self.committed += latency
        if policy is not None:
            policy.observe(t, item, hit)
        returned = self.fetches.pop(t, None)
        if returned is not None:
            last = self.fetch_times.pop(returned)[1]
            if last != t:
                self.fetch_times[returned] = self.later.pop(t), last
            if policy is not None and returned not in self.cache:
                self.apply_eviction(
                    returned, policy.choose_eviction(t, returned, self.cache.keys())
                )
        return returned

    # -- search support --------------------------------------------------

    def clone(self) -> "Simulation":
        """An independent copy: the cache, the fetches in flight, the
        latency list and the eviction log are copied."""
        twin = object.__new__(Simulation)
        twin.params = self.params
        twin.num_items = self.num_items
        twin.delay = self.delay
        twin.fetch_on_hit = self.fetch_on_hit
        twin.t = self.t
        twin.cache = self.cache.copy()
        twin.fetches = self.fetches.copy()
        twin.fetch_times = self.fetch_times.copy()
        twin.later = self.later.copy()
        twin.per_request_latency = self.per_request_latency[:]
        twin.log = self.log[:]
        twin.committed = self.committed
        return twin

    def result(self) -> SimulationResult:
        """Package the run as a :class:`SimulationResult`, final whatever
        is still in flight: each latency was fixed when its request missed.

        This ends the run: the result takes over the latency list instead
        of copying it, so the simulation must not be stepped afterwards;
        the hit bits are derived, and the log gives the eviction sequence
        its times and victims, as slices.
        """
        latency = self.per_request_latency
        total = sum(latency)
        assert total == self.committed
        log = self.log
        evictions = [0] * len(latency)
        for t, victim in zip(log[::2], log[1::2]):
            evictions[t - 1] = victim
        return SimulationResult(
            # a request is a hit exactly when it costs 0
            hit_sequence=[0 if cost else 1 for cost in latency],
            per_request_latency=latency,
            eviction_sequence=evictions,
            total_latency=total,
        )


def simulate(params: ModelParams, sequence, policy) -> SimulationResult:
    """Run ``policy`` over the whole trace.

    The policy is reset first, observes every request phase (idle slots
    included), and is consulted whenever a fetch returns an item that is
    not resident. The run ends at the last request: each latency is fixed
    when its request misses, so fetches still in flight then change no
    result, and the eviction sequence has exactly one entry per trace
    position.
    """
    validate_sequence(params, sequence)
    policy.reset(params)
    sim = Simulation(params)
    for item in sequence:
        sim.step(item, policy)
    return sim.result()


def _replay_run(params: ModelParams, sequence, evictions):
    """Yield a fresh run before the first step and after each step under
    ``evictions``: the one loop of :func:`replay` and :func:`cache_history`."""
    if len(evictions) != len(sequence):
        raise ValueError(
            f"eviction sequence length {len(evictions)} != trace length {len(sequence)}"
        )
    validate_sequence(params, sequence)
    sim = Simulation(params)
    yield sim
    for item, eviction in zip(sequence, evictions):
        sim.apply_eviction(sim.step(item), eviction)
        yield sim


def replay(params: ModelParams, sequence, evictions) -> SimulationResult:
    """Re-run a trace under a fixed eviction sequence, checking feasibility.

    Each eviction is applied at its own timestep's retrieval phase, so
    :class:`InfeasibleEvictionError` names the earliest infeasible one:
    an item that is not resident then, or a timestep with no insertion
    opportunity (nothing returned, or the returned item already resident).
    As in :func:`simulate`, the run ends at its last request.
    """
    for sim in _replay_run(params, sequence, evictions):
        pass
    return sim.result()


def cache_history(params: ModelParams, sequence, evictions) -> list[frozenset[int]]:
    """The cache before the first step and after each step of
    :func:`replay`'s run, checked as it is: O(T·k) to build."""
    return [frozenset(sim.cache) for sim in _replay_run(params, sequence, evictions)]
