#!/usr/bin/env python3
"""Total latency is a closed-form function of which requests fully hit.

Fix a trace and a delay. Once you know the hit bits (1 = full hit), every
miss's cost is determined: it is served by the earliest same-item fetch
still in flight, and fetches sit exactly at earlier misses. The function
`delayed_hits_latency` evaluates that directly, with no event simulation,
and agrees with the simulator bit for bit. The fetch-on-hit variant
(`antimonotone_latency`) differs in one place only: its serving window
also counts earlier *hits*, because there every request dispatches.
"""

import random

from delayedhits import (
    ANTIMONOTONE,
    ModelParams,
    antimonotone_latency,
    delayed_hits_latency,
    simulate,
)
from delayedhits.policies import RandomEvictionPolicy
from delayedhits.traces import draw_instance, random_sequence


def main():
    print("=" * 72)
    print("1. The two closed forms on one tiny trace")
    print("=" * 72)
    seq, delay = [3, 3, 3], 3
    for bits in ([0, 0, 0], [1, 0, 0]):
        std, per_std = delayed_hits_latency(seq, delay, bits)
        foh, per_foh = antimonotone_latency(seq, delay, bits)
        print(f"  bits {bits}: standard {per_std} = {std:2d}   fetch-on-hit {per_foh} = {foh}")
    print()
    print("  With bits (1,0,0) the standard model loses the in-flight fetch")
    print("  (a hit dispatches nothing), so the later misses pay 3+2 = 5.")
    print("  The fetch-on-hit variant still serves them early: 2+1 = 3.")

    print()
    print("=" * 72)
    print("2. Simulator and closed form agree on random traces, both variants")
    print("=" * 72)
    rng = random.Random(2)
    checked = 0
    for case in range(400):
        k, delay, n, seq = draw_instance(rng)
        policy = RandomEvictionPolicy(rng.randrange(2**30))
        for mode, closed_form in (
            ("standard", delayed_hits_latency),
            (ANTIMONOTONE, antimonotone_latency),
        ):
            run = simulate(ModelParams(n, k, delay, mode), seq, policy)
            total, per = closed_form(seq, delay, run.hit_sequence)
            assert (total, per) == (run.total_latency, run.per_request_latency)
            checked += 1
    print(f"  {checked} paired runs, zero disagreements.")

    print()
    print("=" * 72)
    print("3. Pointwise: fetch-on-hit never exceeds the standard cost")
    print("=" * 72)
    rng = random.Random(3)
    worst = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        delay = rng.randint(1, 8)
        seq = random_sequence(rng, n, rng.randint(1, 40))
        bits = [rng.randint(0, 1) for _ in seq]
        s, per_s = delayed_hits_latency(seq, delay, bits)
        a, per_a = antimonotone_latency(seq, delay, bits)
        assert all(x <= y for x, y in zip(per_a, per_s))
        worst = max(worst, s - a)
    print(f"  2000 random (trace, bits) pairs checked; largest saving seen: {worst}.")


if __name__ == "__main__":
    main()
