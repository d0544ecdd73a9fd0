"""Exhaustive offline search for small instances.

The searches (the optimum, every optimal hit sequence, hit-sequence
feasibility, and the first deviation from a hit sequence) run one depth-first kernel over the eviction decisions: decline first,
then each resident in ascending order. A branch is cut once a lower bound
on its total (the committed latency plus that of the future requests
that miss whatever is evicted later) reaches the best total found,
keeping the first witness, or exceeds it, keeping ties. A ``limit``
starts the best total just above it. The feasibility search passes its
target's closed-form latency, which every run realizing the target costs
exactly, and drops a run as soon as its hit bits leave the target. The
first-deviation search keeps its limit fixed and stops at the first run
whose hit bits leave a given vector: no such run at the vector's own
cost means that vector is the unique optimum (Lawler's K = 2 question),
with no set of optima built. A transposition table maps (t, cache,
return times of the fetches in flight), which fixes every future cost
and hit bit of a run of the searched trace, to the least committed
latency seen there, and cuts revisits that can do no better; a run that
still follows its target or avoided bits keys on (t, cache), since the
fixed delay lets those bits fix its fetches. It holds at most k+1
entries per decision node, so the node budget bounds its memory. A node
settles both cuts for each of its choices from the paused run, since a
choice only swaps the returned item for the victim. The bound goes
first, so a key is built, and the table keeps it, only for a choice the
bound lets through: a key fixes the forced latency and the best total
only falls, so the bound would cut again any revisit the table would
have cut. Only the choices that survive are cloned, and the bound is
tested again, against the best total by then, when a choice is taken.
The searches are exact and refuse oversized instances.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from .model import (
    ANTIMONOTONE,
    DEFAULT_SEARCH_BUDGET,
    SearchBudgetExceeded,
    Simulation,
    validate_sequence,
)
from .latency import antimonotone_latency, delayed_hits_latency
from .traces import request_times

_NEVER = float("inf")


class OptResult(namedtuple("OptResult", "min_latency witness_evictions witness_hits nodes")):
    """Exact offline optimum with one canonical witness schedule; ``nodes``
    counts the decision nodes the search visited."""

    __slots__ = ()


def _forced_terms(params, requests):
    """terms(sim): each requested item's term of the forced latency, were it
    not resident: r - s + 1 for each request at s in its miss window, summed
    in O(log T) per item from its request times, ``requests`` as
    :func:`request_times` gives them, and prefix sums. Items with no request
    after ``sim.t`` have no term."""
    table = [(item, times, [0, *accumulate(times)]) for item, times in requests.items()]
    delay = params.delay

    def terms(sim):
        shares = {}
        for item, times, prefix in table:
            lo = bisect_right(times, sim.t)
            if lo < len(times):
                # out of the cache, the item stays out until a fetch of it
                # returns at r, the one in flight or else the one its next
                # request dispatches; its requests in (t, r], times[lo:hi],
                # must miss. An eviction changes neither t nor the fetches.
                flight = sim.fetch_times.get(item)
                r = flight[0] if flight else times[lo] + delay - 1
                hi = bisect_right(times, r, lo)
                shares[item] = (hi - lo) * (r + 1) - (prefix[hi] - prefix[lo])
        return shares

    return terms


def _branches(sim, returned, terms):
    """(choice, bound) for each choice at the decision ``sim`` is paused at,
    decline first and then each resident in ascending order: committed +
    forced of the run after ``apply_eviction(returned, choice)``, derived
    from the paused run. A choice only swaps ``returned`` for the victim,
    so no clone is needed."""
    cache, share = sim.cache, terms(sim)
    declined = sim.committed + sum(v for item, v in share.items() if item not in cache)
    swapped = declined - share.get(returned, 0)
    yield 0, declined
    for victim in sorted(cache):
        yield victim, swapped + share.get(victim, 0)


def _key(sim, returned, choice, guided=False):
    """The transposition key of the run after ``apply_eviction(returned,
    choice)``, derived from the paused run: (t, cache, the return times of
    the fetches in flight). The return times alone: the fetch returning at
    r carries the item requested at r - delay + 1, and insertion order is
    return order. A ``guided`` run, one still on the bits it is searched
    on, keys on (t, cache): the fixed delay lets those bits fix its fetches."""
    cache = frozenset(sim.cache)
    if choice:
        cache = cache.difference((choice,)).union((returned,))
    if guided:
        return sim.t, cache
    return sim.t, cache, tuple(sim.fetches)


def _search(params, sequence, node_budget=DEFAULT_SEARCH_BUDGET, cut=operator.ge,
            target=None, limit=None, avoid=None):
    """The search kernel: (best, {hit bits: evictions} of the runs kept, nodes).

    ``cut(bound, best)`` is ``operator.ge`` to keep the first run at the
    least total, or ``operator.gt`` to keep one run per hit vector at it.
    ``best`` starts at ``limit + 1``, so no run costing more than ``limit``
    is kept. With ``target`` bits the search stops at the first run that
    realizes them. With ``avoid`` bits, under ``ge`` and a ``limit``,
    ``best`` never moves: the first run that stays on ``avoid`` is kept,
    and the search stops at the first run that leaves it. The bits are
    read at requests only, and taken as valid: each caller has already
    walked them through the closed form that gave its ``limit``.
    """
    validate_sequence(params, sequence)
    follow = target if target is not None else avoid
    terms = _forced_terms(params, request_times(sequence))
    seen, optima = {}, {}
    nodes, best = 0, _NEVER if limit is None else limit + 1
    done = False

    def advance(sim, deviated):
        """Run on from a choice to the next decision: (the item returned
        there, or None at a missed target or the end; whether the run's hit
        bits have left ``avoid``). The cache holds still on the way, so all
        it commits lies in the choice's bound."""
        nonlocal best, done
        while sim.t < len(sequence):
            pos = sim.t
            item = sequence[pos]
            returned = sim.step(item)
            if (follow is not None and not deviated
                    and item and (sim.per_request_latency[pos] == 0) != follow[pos]):
                if target is not None:
                    return None, False
                deviated = True
            if sim.needs_decision(returned):
                return returned, deviated
        # the root is no choice and has no bound, so the cut is tested here
        if cut(sim.committed, best):
            return None, deviated
        # a run the cut lets through beats every run before it, or ties
        # under >; with avoid, best stays above limit
        if avoid is None and sim.committed < best:
            best = sim.committed
            optima.clear()
        # latencies map one to one to hit bits; the run has ended and only
        # the search holds it, so the optima returned take over its lists
        optima.setdefault(tuple(sim.per_request_latency), sim)
        done = deviated or target is not None
        return None, deviated

    def survivors(sim, returned, deviated):
        """The choices at a decision that neither cut settles on the spot,
        each with its bound, in pop order. The bound goes first, so only
        the choices taken get a key and enter the table: a revisit the
        table would cut has no smaller bound, and ``best`` only falls.
        Every descendant decides later, so no key of this time is read or
        written before the choices are popped."""
        # a guided run's key has two parts and any other's three: they never meet
        guided = follow is not None and not deviated
        kept = []
        for choice, bound in _branches(sim, returned, terms):
            if cut(bound, best):
                continue
            key = _key(sim, returned, choice, guided)
            stored = seen.get(key)
            if stored is not None and cut(sim.committed, stored):
                continue
            seen[key] = sim.committed
            kept.append((bound, choice))
        kept.reverse()
        return kept

    # depth first without recursion: each frame is a paused decision, its
    # deviated flag and its surviving choices, popped from the end; the
    # bound is tested again at the pop against the best total by then, and
    # every choice but the last runs on a clone, the last on the paused run
    # itself. The root is a decline with nothing returned.
    stack = [(Simulation(params), None, False, [(0, 0)])]
    while stack and not done:
        sim, returned, deviated, choices = stack[-1]
        bound, choice = choices.pop()
        if not choices:
            stack.pop()
        if cut(bound, best):
            continue
        if choices:
            sim = sim.clone()
        sim.apply_eviction(returned, choice)
        returned, deviated = advance(sim, deviated)
        if returned is None:
            continue
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"instance too large: more than {node_budget} decision nodes"
            )
        choices = survivors(sim, returned, deviated)
        if choices:
            stack.append((sim, returned, deviated, choices))
    runs = [run.result() for run in optima.values()]
    return best, {tuple(run.hit_sequence): run.eviction_sequence for run in runs}, nodes


def brute_force_opt(params, sequence, node_budget=DEFAULT_SEARCH_BUDGET) -> OptResult:
    """Exact minimum latency over every feasible eviction schedule, with
    the first optimal schedule in search order as the canonical witness."""
    total, optima, nodes = _search(params, sequence, node_budget)
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
    (True, the first such schedule in search order) or (False, None). Such
    a run costs the closed-form latency of ``bits``, the search's limit."""
    latency = antimonotone_latency if params.mode == ANTIMONOTONE else delayed_hits_latency
    limit, _ = latency(sequence, params.delay, bits)
    _, found, _ = _search(params, sequence, node_budget, target=bits, limit=limit)
    return (True, *found.values()) if found else (False, None)
