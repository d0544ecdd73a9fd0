"""Recount the brute_force_opt catalog behind workloads.BF_RUNGS.

    python3 perfbench/scan_bf.py

Counts, for catalog instances j = 0..239, the decision nodes the
exhaustive search visits (capped at 40k nodes) and prints the instances that
fall in each rung of workloads.BF_RUNG_NODES. Takes a few minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import delayedhits  # noqa: E402
from delayedhits.model import Simulation  # noqa: E402

import workloads  # noqa: E402

CATALOG_SIZE = 240
NODE_CAP = 40_000


def count_nodes(j):
    nodes = 0
    original = Simulation.needs_decision

    def counting(self, returned):
        nonlocal nodes
        decision = original(self, returned)
        nodes += decision
        return decision

    Simulation.needs_decision = counting
    try:
        delayedhits.brute_force_opt(
            delayedhits.ModelParams(*workloads.BF_PARAMS), workloads.bf_instance(j),
            NODE_CAP,
        )
    except delayedhits.SearchBudgetExceeded:
        return None
    finally:
        Simulation.needs_decision = original
    return nodes


def main():
    counts = {j: count_nodes(j) for j in range(CATALOG_SIZE)}
    for low, high in workloads.BF_RUNG_NODES:
        rung = [j for j, n in counts.items() if n is not None and low <= n <= high]
        print(f"{low}..{high} nodes: {tuple(rung)}")


if __name__ == "__main__":
    main()
