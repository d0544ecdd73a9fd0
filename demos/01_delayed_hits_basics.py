#!/usr/bin/env python3
"""Tour of the delayed-hits model: phases, delayed hits, the end of a run, replay.

A cache sits in front of a backing store that takes `delay` timesteps to
answer. When several requests for the same item pile up while its fetch
is in flight, the later ones are served by that same fetch and pay less:
those are the delayed hits. This script walks the mechanics on tiny
traces where every number can be checked by hand.
"""

from delayedhits import LruPolicy, ModelParams, NeverCachePolicy, cache_history, replay, simulate


def show(title, result):
    print(f"\n{title}")
    print(f"  hit bits     : {result.hit_sequence}")
    print(f"  per-request  : {result.per_request_latency}")
    print(f"  evictions    : {result.eviction_sequence}")
    print(f"  total latency: {result.total_latency}")


def main():
    print("=" * 72)
    print("1. A cold burst: item 3 requested three times, delay Z = 3")
    print("=" * 72)
    params = ModelParams(num_items=3, cache_size=2, delay=3)
    result = simulate(params, [3, 3, 3], NeverCachePolicy())
    show("cache starts as {1, 2}; item 3 misses, then rides the first fetch", result)
    print("  -> latencies 3, 2, 1: the first request pays the full delay,")
    print("     the delayed hits pay less; total = 3+2+1 = Z(Z+1)/2.")

    print()
    print("=" * 72)
    print("2. Latency classes: hit = 0, delayed hit in 1..Z-1, miss = Z")
    print("=" * 72)
    result = simulate(params, [1, 3, 3, 0, 3], LruPolicy())
    show("request 1 hits; 3 misses, 3 is a delayed hit, then hits once cached", result)

    print()
    print("=" * 72)
    print("3. The trace can end while fetches are in flight")
    print("=" * 72)
    result = simulate(ModelParams(2, 1, 5), [2], NeverCachePolicy())
    show("one cold request with delay 5: its latency is fixed when it misses", result)

    print()
    print("=" * 72)
    print("4. Replaying a fixed eviction schedule")
    print("=" * 72)
    # cache item 2 when its fetch returns at t=2 (evicting 1): the third
    # request becomes a hit
    params, trace, schedule = ModelParams(2, 1, 2), [2, 0, 2], [0, 1, 0]
    result = replay(params, trace, schedule)
    show("schedule: do nothing, evict 1 for 2 at t=2, do nothing", result)
    history = cache_history(params, trace, schedule)
    print(f"  cache history: {[sorted(s) for s in history]}")


if __name__ == "__main__":
    main()
