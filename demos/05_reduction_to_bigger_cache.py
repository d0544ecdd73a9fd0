#!/usr/bin/env python3
"""Trading cache space for sanity: the k+Z wrapper.

The fetch-on-hit variant has a well-behaved (antimonotone) latency
function, but real caches do not fetch on hits. The bridge: any policy A
for the fetch-on-hit model with cache k can be wrapped into a standard-
model policy B with cache k+Z that is never slower on any request. B
shadows A's run and refuses to evict anything A holds or anything
requested in the last Z steps; that request window is exactly what A's
hit-dispatched fetches could have served early. The wrapper is verified
pointwise on random traces below.
"""

import random

from delayedhits import (
    FifoPolicy,
    LruPolicy,
    ModelParams,
    verify_domination,
)
from delayedhits.traces import random_sequence


def main():
    print("=" * 72)
    print("1. A trace where the request window earns its keep")
    print("=" * 72)
    seq = [0, 1, 3, 5, 2, 0, 2]
    report = verify_domination(seq, LruPolicy(), ModelParams(5, 1, 3))
    print(f"  trace: {seq}  (inner LRU, k=1, Z=3; wrapper runs with cache 4)")
    print(f"  fetch-on-hit per-request : {report.inner_per_request}  total {report.inner_total}")
    print(f"  wrapped (standard) model : {report.outer_per_request}  total {report.outer_total}")
    print("  note t=7: item 2 was a wrapper hit at t=5, so the wrapper must not")
    print("  evict it at its t=6 decision; protecting only *returned* items")
    print("  would drop it and pay the full delay there.")

    print()
    print("=" * 72)
    print("2. Pointwise domination on random traces")
    print("=" * 72)
    rng = random.Random(7)
    savings = []
    for _ in range(500):
        k = rng.randint(1, 3)
        delay = rng.randint(1, 6)
        # more items than the wrapper's k + delay slots, so its eviction
        # rule gets to run
        n = k + delay + rng.randint(1, 4)
        seq = random_sequence(rng, n, rng.randint(20, 120))
        inner = LruPolicy() if rng.random() < 0.5 else FifoPolicy()
        rep = verify_domination(seq, inner, ModelParams(n, k, delay))
        savings.append(rep.inner_total - rep.outer_total)
    print(f"  500 paired runs, zero violations (verify_domination raises on any).")
    print(f"  wrapper saved between {min(savings)} and {max(savings)} latency units,")
    print(f"  mean saving {sum(savings) / len(savings):.1f}.")

    print()
    print("=" * 72)
    print("3. Degenerate cases behave as expected")
    print("=" * 72)
    rep = verify_domination([9], LruPolicy(), ModelParams(9, 2, 4))
    print(f"  single cold request: both pay the full delay -> {rep.inner_per_request}"
          f" vs {rep.outer_per_request}")
    rep = verify_domination([9, 9, 9], LruPolicy(), ModelParams(9, 2, 3))
    print(f"  no hits anywhere: the models coincide -> {rep.inner_per_request}"
          f" vs {rep.outer_per_request}")


if __name__ == "__main__":
    main()
