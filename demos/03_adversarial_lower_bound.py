#!/usr/bin/env python3
"""No deterministic online policy can be better than ~k*Z/2 times optimal.

Against a deterministic policy you can always see what it holds and ask
for the one thing it dropped. The construction opens with one isolated
request for item k+1, then repeatedly appends an isolated burst for
whichever of {1..k+1} is missing from the policy's cache at that moment.
The policy misses everything; a static cache that gives up one never-
bursted item misses only the opener. Every quantity below is measured by
simulation, and the optimum is confirmed exhaustively on a small case.
"""

from delayedhits import (
    LruPolicy,
    ModelParams,
    NeverCachePolicy,
    brute_force_opt,
    build_adversarial_sequence,
    make_policy,
)


def main():
    print("=" * 72)
    print("1. One construction in detail: LRU, k = 2, Z = 3")
    print("=" * 72)
    report = build_adversarial_sequence(LruPolicy(), ModelParams(3, 2, 3))
    print(f"  segments: {[(s.kind, s.item) for s in report.segments]}")
    print(f"  trace length {len(report.sequence)}, marked items {sorted(report.marked)}")
    print(f"  policy latency {report.policy_latency} (= Z + k*Z(Z+1)/2 = 3 + 2*6)")
    print(f"  static witness holds {{1,2,3}} - {{{report.opt_witness_item}}} "
          f"and pays {report.opt_latency}")
    print(f"  ratio lower bound: {report.ratio_lower_bound}")
    oracle = brute_force_opt(ModelParams(3, 2, 3), report.sequence)
    print(f"  exhaustive search over all schedules confirms OPT = {oracle.min_latency}")

    print()
    print("=" * 72)
    print("2. The bound 1 + k(Z+1)/2 across cache sizes and delays")
    print("=" * 72)
    print("  policy  k  Z   policy-latency  opt  ratio")
    for name in ("lru", "fifo"):
        for k in (1, 2, 3, 4):
            for delay in (2, 5, 10):
                params = ModelParams(k + 1, k, delay)
                rep = build_adversarial_sequence(make_policy(name), params)
                ratio = rep.ratio_lower_bound
                print(f"  {name:6s} {k:2d} {delay:2d}   {rep.policy_latency:14d}"
                      f"  {rep.opt_latency:3d}  {ratio} = {float(ratio):.1f}")

    print()
    print("=" * 72)
    print("3. A policy that never caches cannot be marked out; we cap instead")
    print("=" * 72)
    rep = build_adversarial_sequence(NeverCachePolicy(), ModelParams(4, 3, 3), cap=5)
    print(f"  capped: {rep.capped}, bursts emitted: {rep.bursty_count}, "
          f"all for item {sorted({s.item for s in rep.segments[1:]})}")
    print(f"  the bound still holds per burst: ratio >= {rep.ratio_lower_bound}")


if __name__ == "__main__":
    main()
