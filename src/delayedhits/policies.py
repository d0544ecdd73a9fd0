"""Eviction policies and exhaustive offline search for small instances.

Policies are stateful, single-run objects: the simulator resets them,
feeds them every request phase through ``observe`` (idle slots included),
and asks ``choose_eviction`` whenever a fetch returns a non-resident
item, showing it a read-only view of the resident set that is valid for
that call only. Returning 0 declines to cache. All shipped policies break
ties by smallest item id so runs are reproducible.

The three exhaustive searches (the optimum, every optimal hit sequence,
hit-sequence feasibility) run one depth-first kernel over the eviction
decisions: decline first, then each resident in ascending order. A
branch is cut once a lower bound on its total (the committed latency
plus that of the future requests that miss whatever is evicted later)
reaches the best total found, keeping the first witness, or exceeds it,
keeping ties. The feasibility search instead cuts an eviction at once
when the victim must miss a request the target marks as a hit. A
transposition table maps (t, cache, fetches in flight), which fixes every
future cost and hit bit, to the least committed latency seen there, and
cuts revisits that can do no better, or every revisit when only the first
feasible schedule is wanted. It holds at most k+1 entries per decision
node, so the node budget bounds its memory. A node settles all three
cuts for each of its choices from the paused run, since a choice only
swaps the returned item for the victim; only the choices that survive
are cloned, and the bound is tested again, against the best total by
then, when a choice is taken. The searches are exact and refuse
oversized instances.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from collections.abc import Set as AbstractSet
from itertools import accumulate

from .model import ModelParams, Simulation, validate_sequence
from .latency import normalize_hit_bits
from .traces import request_times

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
        return min(cache - self.items, default=0)


class BeladyPolicy(Policy):
    """Offline rule: evict whatever is requested again furthest in the future.

    The incoming item competes too, so the policy declines to cache when
    the incoming item's next use is the furthest. Exactly optimal for
    delay 1, where the model collapses to classical caching.
    """

    name = "belady"

    def __init__(self, sequence):
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
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "never": NeverCachePolicy,
    "static": StaticPolicy,
    "belady": BeladyPolicy,
}


def make_policy(name, sequence=None, static_items=None) -> Policy:
    """Instantiate a policy by its public name (the CLI contract)."""
    cls = POLICIES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; expected one of {tuple(POLICIES)}")
    if cls is StaticPolicy:
        if static_items is None:
            raise ValueError("static policy needs a target item set")
        return cls(static_items)
    if cls is BeladyPolicy:
        if sequence is None:
            raise ValueError("belady is offline and needs the full trace")
        return cls(sequence)
    return cls()


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


# -- exhaustive offline search ------------------------------------------


class OptResult(namedtuple("OptResult", "min_latency witness_evictions witness_hits nodes")):
    """Exact offline optimum with one canonical witness schedule; ``nodes``
    counts the decision nodes the search visited."""

    __slots__ = ()


def _miss_window(sim, item, times, delay):
    """(lo, hi, r): non-resident ``item`` stays out until a fetch of it returns
    at r, the one in flight or else the one its next request s1 dispatches,
    r = s1 + delay - 1, so its requests in (t, r], times[lo:hi], must miss.
    It reads only ``sim.t`` and ``sim.fetch_times``, which an eviction leaves
    as they are."""
    lo = bisect_right(times, sim.t)
    if lo == len(times):
        return lo, lo, 0
    flight = sim.fetch_times.get(item)
    end = flight[0] if flight else times[lo] + delay - 1
    return lo, bisect_right(times, end, lo), end


def _forced_terms(params, sequence):
    """terms(sim): each requested item's term of the forced latency, were it
    not resident: r - s + 1 for each request at s in its miss window, summed
    in O(log T) per item from its request times and prefix sums."""
    table = [(item, times, [0, *accumulate(times)])
             for item, times in request_times(sequence).items()]
    delay = params.delay

    def terms(sim):
        shares = {}
        for item, times, prefix in table:
            lo, hi, end = _miss_window(sim, item, times, delay)
            shares[item] = (hi - lo) * (end + 1) - (prefix[hi] - prefix[lo])
        return shares

    return terms


def _branches(sim, returned, terms):
    """(choice, key, bound) for each choice at the decision ``sim`` is paused
    at, decline first and then each resident in ascending order: the
    transposition key and committed + forced of the run after
    ``apply_eviction(returned, choice)``, derived from the paused run. A
    choice only swaps ``returned`` for the victim, so no clone is needed;
    the bound is None without ``terms``."""
    cache = frozenset(sim.cache)
    grown = cache | {returned}
    fetches = frozenset(sim.fetches.items())
    share = declined = None
    if terms is not None:
        share = terms(sim)
        declined = sim.committed + sum(v for item, v in share.items() if item not in cache)
        swapped = declined - share[returned]
    yield 0, (sim.t, cache, fetches), declined
    for victim in sorted(cache):
        bound = None if share is None else swapped + share.get(victim, 0)
        yield victim, (sim.t, grown - {victim}, fetches), bound


def _search(params, sequence, node_budget, cut, target=None):
    """The search kernel: (least total, {hit bits: evictions} attaining it, nodes).

    ``cut(bound, best)`` is ``operator.ge`` for the first optimum, ``operator.gt``
    for every optimum, or None to stop at the first run that realizes ``target``.
    """
    validate_sequence(params, sequence)
    pinned = {}
    if target is not None:
        target = normalize_hit_bits(sequence, target)
        # each item's request times, and prefix counts of the target's hits there
        pinned = {
            item: (times, [0, *accumulate(target[s - 1] for s in times)])
            for item, times in request_times(sequence).items()
        }
    terms = _forced_terms(params, sequence) if cut else None
    seen, optima = {}, {}
    nodes, best = 0, _NEVER

    def advance(sim):
        """Run on from a choice to the next decision: the item returned
        there, or None at a missed target or the end. The cache holds still
        on the way, so all it commits lies in the choice's bound."""
        nonlocal best
        while sim.t < len(sequence):
            pos = sim.t
            returned = sim.step(sequence[pos])
            if target is not None and (sim.per_request_latency[pos] == 0) != target[pos]:
                return None
            if sim.needs_decision(returned):
                return returned
        # a run the cut lets through beats every run before it, or ties under >
        if sim.committed < best:
            best = sim.committed
            optima.clear()
        # latencies map one to one to hit bits; the run has ended and only
        # the search holds it, so the optima returned take over its lists
        optima.setdefault(tuple(sim.per_request_latency), sim)
        return None

    def survivors(sim, returned):
        """The choices at a decision that no cut settles on the spot, each
        with its bound, in pop order. Every descendant decides later, so no
        key of this time is read or written before the choices are popped."""
        kept = []
        for choice, key, bound in _branches(sim, returned, terms):
            if choice in pinned:
                # a hit the target wants in the victim's miss window cannot happen
                times, hits = pinned[choice]
                lo, hi, _ = _miss_window(sim, choice, times, params.delay)
                if hits[hi] > hits[lo]:
                    continue
            stored = seen.get(key)
            if stored is not None and (cut is None or cut(sim.committed, stored)):
                continue
            seen[key] = sim.committed
            if cut and cut(bound, best):
                continue
            kept.append((bound, choice))
        kept.reverse()
        return kept

    # depth first without recursion: each frame is a paused decision and
    # its surviving choices, popped from the end; the bound is tested again
    # at the pop against the best total by then, and every choice but the
    # last runs on a clone, the last on the paused run itself. The root is
    # a decline with nothing returned.
    stack = [(Simulation(params), None, [(0, 0)])]
    while stack and not (cut is None and optima):
        sim, returned, choices = stack[-1]
        bound, choice = choices.pop()
        if not choices:
            stack.pop()
        if cut and cut(bound, best):
            continue
        if choices:
            sim = sim.clone()
        sim.apply_eviction(returned, choice)
        returned = advance(sim)
        if returned is None:
            continue
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"instance too large: more than {node_budget} decision nodes"
            )
        choices = survivors(sim, returned)
        if choices:
            stack.append((sim, returned, choices))
    runs = [run.result() for run in optima.values()]
    return best, {tuple(run.hit_sequence): run.eviction_sequence for run in runs}, nodes


def brute_force_opt(params, sequence, node_budget=DEFAULT_SEARCH_BUDGET) -> OptResult:
    """Exact minimum latency over every feasible eviction schedule, with
    the first optimal schedule in search order as the canonical witness."""
    total, optima, nodes = _search(params, sequence, node_budget, operator.ge)
    ((hits, evictions),) = optima.items()
    return OptResult(total, evictions, list(hits), nodes)


def optimal_hit_sequences(
    params, sequence, node_budget=DEFAULT_SEARCH_BUDGET
) -> tuple[int, set[tuple[int, ...]]]:
    """The optimum plus every hit sequence that attains it."""
    total, optima, _ = _search(params, sequence, node_budget, operator.gt)
    return total, set(optima)


def is_hit_sequence_feasible(
    params, sequence, bits, node_budget=DEFAULT_SEARCH_BUDGET
) -> tuple[bool, list[int] | None]:
    """Search for an eviction schedule whose run realizes exactly ``bits``:
    (True, the first such schedule in search order) or (False, None)."""
    _, found, _ = _search(params, sequence, node_budget, None, bits)
    return (True, *found.values()) if found else (False, None)
