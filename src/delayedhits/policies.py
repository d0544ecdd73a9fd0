"""Eviction policies: the online rules, Belady's offline rule and a seeded
random rule, with the registry the CLI draws its names from.

Policies are stateful, single-run objects: the simulator resets them,
feeds them every request phase through ``observe`` (idle slots included),
and asks ``choose_eviction`` whenever a fetch returns a non-resident
item, showing it a read-only view of the resident set that is valid for
that call only. Returning 0 declines to cache. All shipped policies break
ties by smallest item id so runs are reproducible. The exhaustive
searches over every schedule live in :mod:`delayedhits.search`.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from collections.abc import Set as AbstractSet

from .model import ModelParams
from .traces import request_times

_NEVER = float("inf")


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
    the victim is the resident with the smallest (last request, id).
    ``order`` holds the residents' keys, sorted, and stays equal to the
    cache since the simulator applies every victim a policy names. A hit
    moves its key to the end (request times are unique); a decision pops
    the head and inserts the new key: O(log k) comparisons plus an O(k)
    pointer move each.
    """

    name = "lru"

    def reset(self, params):
        self.last_request = {}
        self.order = [(0, j) for j in sorted(params.initial_cache())]

    def observe(self, t, item, hit):
        if item == 0:
            return
        if hit:
            order = self.order
            del order[bisect_left(order, (self.last_request.get(item, 0), item))]
            order.append((t, item))
        self.last_request[item] = t

    def choose_eviction(self, t, item, cache):
        victim = self.order.pop(0)[1]
        insort(self.order, (self.last_request[item], item))
        return victim


class FifoPolicy(Policy):
    """Evict the longest-resident item; the initial cache arrived in item order."""

    name = "fifo"

    def reset(self, params):
        self.order = sorted(params.initial_cache())

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
        if items is None:
            raise ValueError("static policy needs a target item set")
        self.items = frozenset(items)

    def reset(self, params):
        n, k = params.num_items, params.cache_size
        if not self.items or min(self.items) < 1 or max(self.items) > n:
            raise ValueError(f"static target must name items in 1..{n}, "
                             f"got {sorted(self.items)}")
        if len(self.items) > k:
            raise ValueError(f"static target of {len(self.items)} items exceeds cache size {k}")

    def choose_eviction(self, t, item, cache):
        if item not in self.items:
            return 0
        return min(cache - self.items, default=0)


class BeladyPolicy(Policy):
    """Offline rule: evict whatever is requested again furthest in the future.

    The incoming item competes too, so the policy declines to cache when
    the incoming item's next use is the furthest. Exactly optimal for
    delay 1, where the model collapses to classical caching.
    """

    name = "belady"

    def __init__(self, sequence):
        if sequence is None:
            raise ValueError("belady is offline and needs the full trace")
        self.positions = request_times(sequence)

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


# the CLI's policy names, in the order it lists them
POLICIES = {
    cls.name: cls
    for cls in (LruPolicy, FifoPolicy, NeverCachePolicy, StaticPolicy, BeladyPolicy)
}


def make_policy(name, sequence=None, static_items=None) -> Policy:
    """Instantiate a policy by its public name (the CLI contract)."""
    cls = POLICIES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; expected one of {tuple(POLICIES)}")
    if cls is StaticPolicy:
        return cls(static_items)
    return cls(sequence) if cls is BeladyPolicy else cls()


def draw_policy(rng, sequence, k, n) -> Policy:
    """Draw one policy from the full pool, decliners included; a random
    policy's seed is drawn first whatever is drawn, as ``check`` always has."""
    case_seed = rng.randrange(2**30)
    name = rng.choice(["lru", "fifo", "never", "belady", "static", "random"])
    if name == "static":
        return StaticPolicy(rng.sample(range(1, n + 1), rng.randint(1, min(k, n))))
    if name == "random":
        return RandomEvictionPolicy(case_seed)
    return make_policy(name, sequence)
