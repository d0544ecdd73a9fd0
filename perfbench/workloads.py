"""The four benchmark workloads: seeded inputs and the fixed work of one pass.

``build`` turns (workload, seed) into a list of calls. Each call is a
JSON-serialisable dict: ``{"kind": "cli", "argv": [...]}`` for one
``delayedhits.cli.main`` invocation, or ``{"kind": "bf", ...}`` for one
``brute_force_opt`` instance. ``params`` on a call holds the instance
parameters the oracles check against, so they never read them back from
the program's own report. Every input is drawn from ``random.Random(seed)``;
the same seed always yields the same calls and trace files.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("sim-wide-cache", "sim-long-delay", "search-exact", "sweep-small")

IDLE_PROB = 0.25

# (n, k, Z, policy, requests) of the two long-trace simulate workloads.
SIM_WIDE_CACHE = (1000, 100, 20, "lru", 100_000)
SIM_LONG_DELAY = (50, 10, 50, "fifo", 100_000)

# counterexample --oracle-check ladder, (Z, k): certifies the unique optimum
# by exhaustive search over long structured traces (~400 steps re-simulated
# per node at the top rung). The ladder stops at (26, 7) rather than (30, 8),
# which alone takes 4 s: a pass of about 3 s fits six passes in a run, and
# the median of six is steady enough where the median of three was not.
COUNTEREXAMPLE_LADDER = ((8, 2), (16, 4), (20, 5), (26, 7))

# adversary --oracle-check ladder, (k, Z), run for each policy below.
ADVERSARY_LADDER = ((2, 4), (3, 5), (4, 6), (5, 8), (6, 10), (8, 12), (10, 16))
ADVERSARY_POLICIES = ("lru", "fifo")

# brute_force_opt instances at n=6, k=3, Z=5. Catalog instance j is
# ``bf_instance(j)``: length drawn from 44..52, then a uniform trace with
# idle probability 0.25, both from random.Random(j). Search cost is heavy
# tailed (a few hundred to over a million decision nodes), so a plain
# seeded draw would make one seed's pass many times longer than another's.
# The catalog is stratified instead: each rung lists the instances among
# j = 0..239 whose exhaustive search visits about the same number of
# decision nodes (counted at the defining commit by scan_bf.py, whose
# BF_RUNG_NODES are the ranges), and a seed picks one instance per rung.
# Instances above ~11k nodes (about a second and more each) are left out to
# bound the pass.
BF_PARAMS = (6, 3, 5)
BF_LENGTHS = (44, 52)
BF_RUNG_NODES = ((1_100, 1_600), (4_400, 5_500), (9_200, 10_700))
BF_RUNGS = (
    (23, 97, 106, 126, 149, 158, 162, 179, 206),
    (4, 9, 28, 33, 42, 48, 56, 73, 114, 182, 189, 210, 220),
    (45, 51, 64, 66, 89, 93, 107, 120, 165, 167, 170, 198),
)


def random_sequence(rng, num_items, length, idle_prob=IDLE_PROB):
    """Same stream as ``delayedhits.traces.random_sequence``.

    Kept in the benchmark so that its inputs stay fixed when the program's
    generator changes.
    """
    return [
        0 if rng.random() < idle_prob else rng.randint(1, num_items)
        for _ in range(length)
    ]


def bf_instance(j):
    rng = random.Random(j)
    length = rng.randint(*BF_LENGTHS)
    return random_sequence(rng, BF_PARAMS[0], length)


def _write_trace(path: Path, sequence) -> None:
    path.write_text("".join(f"{item}\n" for item in sequence), encoding="utf-8")


def _simulate_call(rng, workdir: Path, spec):
    n, k, delay, policy, requests = spec
    trace = workdir / "trace.txt"
    _write_trace(trace, random_sequence(rng, n, requests))
    argv = ["simulate", str(trace), "--policy", policy,
            "-n", str(n), "-k", str(k), "-Z", str(delay)]
    params = {"n": n, "k": k, "Z": delay, "policy": policy, "trace": str(trace)}
    return [{"kind": "cli", "argv": argv, "params": params}]


def _search_calls(rng):
    calls = []
    for delay, k in COUNTEREXAMPLE_LADDER:
        argv = ["counterexample", "-Z", str(delay), "-k", str(k), "--oracle-check"]
        calls.append({"kind": "cli", "argv": argv, "params": {"k": k, "Z": delay}})
    for policy in ADVERSARY_POLICIES:
        for k, delay in ADVERSARY_LADDER:
            argv = ["adversary", "--policy", policy, "-k", str(k), "-Z", str(delay),
                    "--oracle-check"]
            params = {"k": k, "Z": delay, "policy": policy}
            calls.append({"kind": "cli", "argv": argv, "params": params})
    n, k, delay = BF_PARAMS
    for rung in BF_RUNGS:
        j = rng.choice(rung)
        calls.append({
            "kind": "bf",
            "params": {"n": n, "k": k, "Z": delay, "instance": j},
            "sequence": bf_instance(j),
        })
    return calls


# check --suite <name> --cases <N>: thousands of tiny instances each.
SWEEP_CASES = (("latency", 4000), ("antimono", 4000), ("reduction", 4000))


def _sweep_calls(rng):
    calls = []
    for suite, cases in SWEEP_CASES:
        # the CLI accepts --cases <= 0 and --idle-prob outside [0, 1) and then
        # passes vacuously, so only positive counts and 0.25 are ever sent
        seed = rng.randrange(2**31)
        argv = ["check", "--suite", suite, "--cases", str(cases),
                "--seed", str(seed), "--idle-prob", str(IDLE_PROB)]
        calls.append({"kind": "cli", "argv": argv,
                      "params": {"suite": suite, "cases": cases}})
    return calls


def build(workload: str, seed: int, workdir: Path):
    """The calls of one pass of ``workload``; writes trace files to ``workdir``."""
    rng = random.Random(seed)
    if workload == "sim-wide-cache":
        return _simulate_call(rng, workdir, SIM_WIDE_CACHE)
    if workload == "sim-long-delay":
        return _simulate_call(rng, workdir, SIM_LONG_DELAY)
    if workload == "search-exact":
        return _search_calls(rng)
    if workload == "sweep-small":
        return _sweep_calls(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
