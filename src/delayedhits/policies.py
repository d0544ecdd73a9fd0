"""Eviction policies and exhaustive offline search for small instances.

Policies are stateful, single-run objects: the simulator resets them,
feeds them every request phase through ``observe`` (idle slots included),
and asks ``choose_eviction`` whenever a fetch returns a non-resident
item, showing it a read-only view of the resident set that is valid for
that call only. Returning 0 declines to cache. All shipped policies break
ties by smallest item id so runs are reproducible.

The exhaustive searches (offline optimum, hit-sequence feasibility) are
depth-first over the eviction decisions with branch-and-bound pruning.
They are exact and refuse oversized instances instead of approximating.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

from .model import ModelParams, Simulation, validate_sequence
from .latency import normalize_hit_bits

DEFAULT_SEARCH_BUDGET = 2**22

_NEVER = float("inf")


class SearchBudgetExceeded(Exception):
    """The instance is too large for the exhaustive search budget."""


class Policy:
    """Base eviction policy; subclasses override what they need."""

    name = "policy"

    def reset(self, params: ModelParams) -> None:
        pass

    def observe(self, t: int, item: int, hit) -> None:
        pass

    def choose_eviction(self, t: int, item: int, cache: AbstractSet[int]) -> int:
        return 0


class LruPolicy(Policy):
    """Evict the resident item whose most recent request is oldest.

    Never-requested residents rank oldest and ties go to the smaller id:
    the victim is the resident with the smallest (last request, id). A
    heap holds each resident's key. A hit pushes the item's new key and
    leaves the old one stale, an insertion takes the victim's slot, and
    stale keys are dropped when they reach the top or when the heap
    outgrows twice the cache, so requests and decisions cost O(log k).
    """

    name = "lru"

    def reset(self, params):
        self.last_request = {}
        self.heap = [(0, j) for j in sorted(params.initial_cache())]
        self.compact_at = 2 * params.cache_size

    def observe(self, t, item, hit):
        if item == 0:
            return
        self.last_request[item] = t
        if hit:
            heappush(self.heap, (t, item))
            if len(self.heap) > self.compact_at:
                last = self.last_request
                self.heap = [key for key in self.heap if last.get(key[1], 0) == key[0]]
                heapify(self.heap)

    def choose_eviction(self, t, item, cache):
        heap = self.heap
        last = self.last_request
        while True:
            stamp, victim = heap[0]
            if victim in cache and last.get(victim, 0) == stamp:
                break
            heappop(heap)
        heapreplace(heap, (last.get(item, 0), item))
        return victim


class FifoPolicy(Policy):
    """Evict the longest-resident item; the initial cache counts as 1..k."""

    name = "fifo"

    def reset(self, params):
        self.order = list(range(1, params.cache_size + 1))

    def choose_eviction(self, t, item, cache):
        victim = self.order.pop(0)
        self.order.append(item)
        return victim


class NeverCachePolicy(Policy):
    """Decline every caching opportunity; the cache never changes."""

    name = "never"


class StaticPolicy(Policy):
    """Converge the cache onto a fixed target set and then never evict.

    Waits for each target item to come back from the backing store and
    swaps out a non-target resident for it; non-target items are never
    cached.
    """

    name = "static"

    def __init__(self, items):
        self.items = frozenset(items)
        if any(i < 1 for i in self.items):
            raise ValueError("static target items must be positive")

    def reset(self, params):
        if len(self.items) > params.cache_size:
            raise ValueError(
                f"static target of {len(self.items)} items exceeds cache size "
                f"{params.cache_size}"
            )

    def choose_eviction(self, t, item, cache):
        if item not in self.items:
            return 0
        spare = sorted(cache - self.items)
        return spare[0] if spare else 0


class BeladyPolicy(Policy):
    """Offline rule: evict whatever is requested again furthest in the future.

    The incoming item competes too, so the policy declines to cache when
    the incoming item's next use is the furthest. Exactly optimal for
    delay 1, where the model collapses to classical caching.
    """

    name = "belady"

    def __init__(self, sequence):
        self.positions = {}
        for pos, item in enumerate(sequence, start=1):
            if item != 0:
                self.positions.setdefault(item, []).append(pos)

    def _next_use(self, item, t):
        occ = self.positions.get(item)
        if not occ:
            return _NEVER
        i = bisect_right(occ, t)
        return occ[i] if i < len(occ) else _NEVER

    def choose_eviction(self, t, item, cache):
        best_id, best_next = None, -1
        for j in sorted(cache | {item}):
            nxt = self._next_use(j, t)
            if nxt > best_next:
                best_id, best_next = j, nxt
        return 0 if best_id == item else best_id


class RandomEvictionPolicy(Policy):
    """Seeded uniform choice among declining and every resident item.

    Reset reseeds the generator, so a given (params, sequence) pair always
    replays identically; distinct seeds explore distinct schedules. Used
    by the randomized test sweeps, which need policies that sometimes
    decline to cache.
    """

    name = "random"

    def __init__(self, seed):
        self.seed = seed

    def reset(self, params):
        self.rng = random.Random(self.seed)

    def choose_eviction(self, t, item, cache):
        return self.rng.choice([0] + sorted(cache))


def lru_policy() -> Policy:
    return LruPolicy()


def fifo_policy() -> Policy:
    return FifoPolicy()


def never_cache_policy() -> Policy:
    return NeverCachePolicy()


def static_policy(items) -> Policy:
    return StaticPolicy(items)


def belady_classical(sequence) -> Policy:
    return BeladyPolicy(sequence)


POLICY_NAMES = ("lru", "fifo", "never", "static", "belady")


def make_policy(name, sequence=None, static_items=None) -> Policy:
    """Instantiate a policy by its public name (the CLI contract)."""
    if name == "lru":
        return lru_policy()
    if name == "fifo":
        return fifo_policy()
    if name == "never":
        return never_cache_policy()
    if name == "static":
        if static_items is None:
            raise ValueError("static policy needs a target item set")
        return static_policy(static_items)
    if name == "belady":
        if sequence is None:
            raise ValueError("belady is offline and needs the full trace")
        return belady_classical(sequence)
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


# -- exhaustive offline search ------------------------------------------


@dataclass
class OptResult:
    """Exact offline optimum with one canonical witness schedule."""

    min_latency: int
    witness_evictions: list[int]
    witness_hits: list[int]


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise SearchBudgetExceeded(
                f"instance too large: more than {self.limit} decision nodes"
            )


def brute_force_opt(params, sequence, node_budget=DEFAULT_SEARCH_BUDGET) -> OptResult:
    """Exact minimum latency over every feasible eviction schedule.

    Depth-first over the decision points (a fetch returning a
    non-resident item), in time order, branching over declining and each
    resident item. Prunes branches whose already-determined latency
    reaches the incumbent, which keeps the first minimum found and makes
    the witness canonical (decline is explored first, then residents in
    ascending order).
    """
    validate_sequence(params, sequence)
    budget = _Budget(node_budget)
    best = {"total": None, "evictions": None, "hits": None}

    def explore(sim):
        while sim.t < len(sequence):
            sim.request_phase(sequence[sim.t])
            returned = sim.retrieval_serve()
            if best["total"] is not None and sim.committed_latency() >= best["total"]:
                return
            if sim.needs_decision(returned):
                budget.spend()
                choices = [0] + sorted(sim.cache)
                for choice in choices[:-1]:
                    branch = sim.clone()
                    branch.apply_eviction(returned, choice)
                    explore(branch)
                sim.apply_eviction(returned, choices[-1])
        sim.drain()
        total = sim.committed
        if best["total"] is None or total < best["total"]:
            best["total"] = total
            best["evictions"] = list(sim.eviction_sequence)
            best["hits"] = list(sim.hit_bits)

    explore(Simulation(params))
    return OptResult(best["total"], best["evictions"], best["hits"])


def optimal_hit_sequences(
    params, sequence, node_budget=DEFAULT_SEARCH_BUDGET
) -> tuple[int, set[tuple[int, ...]]]:
    """The optimum plus every hit sequence that attains it."""
    validate_sequence(params, sequence)
    budget = _Budget(node_budget)
    state = {"total": None, "optima": set()}

    def explore(sim):
        while sim.t < len(sequence):
            sim.request_phase(sequence[sim.t])
            returned = sim.retrieval_serve()
            if state["total"] is not None and sim.committed_latency() > state["total"]:
                return
            if sim.needs_decision(returned):
                budget.spend()
                choices = [0] + sorted(sim.cache)
                for choice in choices[:-1]:
                    branch = sim.clone()
                    branch.apply_eviction(returned, choice)
                    explore(branch)
                sim.apply_eviction(returned, choices[-1])
        sim.drain()
        total = sim.committed
        if state["total"] is None or total < state["total"]:
            state["total"] = total
            state["optima"] = {tuple(sim.hit_bits)}
        elif total == state["total"]:
            state["optima"].add(tuple(sim.hit_bits))

    explore(Simulation(params))
    return state["total"], state["optima"]


def is_hit_sequence_feasible(
    params, sequence, bits, node_budget=DEFAULT_SEARCH_BUDGET
) -> tuple[bool, list[int] | None]:
    """Search for an eviction schedule whose run realizes exactly ``bits``.

    Returns (True, witness eviction sequence) or (False, None). Branches
    are cut as soon as a simulated hit bit deviates from the target, so
    the search is goal-directed.
    """
    validate_sequence(params, sequence)
    target = normalize_hit_bits(sequence, bits)
    budget = _Budget(node_budget)

    def explore(sim):
        while sim.t < len(sequence):
            pos = sim.t
            sim.request_phase(sequence[pos])
            if sim.hit_bits[pos] != target[pos]:
                return None
            returned = sim.retrieval_serve()
            if sim.needs_decision(returned):
                budget.spend()
                choices = [0] + sorted(sim.cache)
                for choice in choices[:-1]:
                    branch = sim.clone()
                    branch.apply_eviction(returned, choice)
                    witness = explore(branch)
                    if witness is not None:
                        return witness
                sim.apply_eviction(returned, choices[-1])
        return list(sim.eviction_sequence)

    witness = explore(Simulation(params))
    return witness is not None, witness
