"""Search results pinned on seeded instances, so a change to the search
kernel that alters any of them fails without a differential run.

Each instance is drawn from its (mode, seed). For each one the pins are:
the optimum, a digest of its witness (evictions and hits), the decision
nodes ``brute_force_opt`` visits, the number of optimal hit sequences,
and the feasibility answer with a digest of its witness for two targets:
the hit bits of a seeded random-policy run, which are feasible, and the
same bits with one bit flipped. The values were recorded before the
search settled each branch's cuts at its decision node.
"""

import hashlib
import json
import random

import pytest

from delayedhits import (
    ANTIMONOTONE,
    STANDARD,
    ModelParams,
    brute_force_opt,
    is_hit_sequence_feasible,
    optimal_hit_sequences,
    simulate,
)
from delayedhits.policies import RandomEvictionPolicy
from delayedhits.search import _search
from delayedhits.traces import random_sequence

S, A = STANDARD, ANTIMONOTONE

# (mode, seed): (optimum, witness, nodes, optima, own-bits witness,
#                flipped feasible, flipped witness)
PINNED = {
    (S, 0): (35, "4a56c78fa2bf", 19, 2, "0d84cee2c519", True, "e90cc07a841e"),
    (S, 1): (18, "a38e42a02df3", 5, 1, "8d7849596bf5", True, "8d7849596bf5"),
    (S, 2): (9, "d30b3b4c14b5", 21, 1, "d17e15f0bded", False, "74234e98afe7"),
    (S, 3): (13, "6f26e7b07d84", 4, 1, "120beba6ef88", True, "120beba6ef88"),
    (S, 4): (35, "c6f8dea683b7", 401, 4, "c327e949944b", False, "74234e98afe7"),
    (S, 5): (24, "743a6119846f", 48, 7, "cbecc4e4b4b9", False, "74234e98afe7"),
    (S, 6): (32, "ed18beb2ec60", 25, 4, "cd18d76ab893", False, "74234e98afe7"),
    (S, 7): (16, "a5d8b32ca5a3", 241, 1, "95a4d29a3ade", True, "f2bcb23cc871"),
    (S, 8): (5, "858feb732d84", 2, 1, "61482f801eda", False, "74234e98afe7"),
    (S, 9): (2, "4351e77a719a", 10, 1, "e082ca64f2bd", False, "74234e98afe7"),
    (S, 10): (3, "40e458304f37", 24, 1, "d0b6725c34a0", True, "e1069811a91d"),
    (S, 11): (18, "d432a212baa7", 345, 37, "745b880cf050", True, "e593c34310ad"),
    (S, 12): (9, "d4ffab21b2b3", 260, 32, "b0aa8eaf8fce", False, "74234e98afe7"),
    (S, 13): (25, "2eb4d9b5892c", 23, 1, "9e03676bb1e9", False, "74234e98afe7"),
    (S, 14): (29, "a61ce4e7680b", 33, 2, "03409714db26", False, "74234e98afe7"),
    (S, 15): (14, "bfc746c1075d", 141, 2, "51481e83347a", True, "51481e83347a"),
    (S, 16): (2, "4184115711cb", 11, 1, "43eefc68f4eb", True, "a24ffff0d0f1"),
    (S, 17): (16, "a3a6f2715075", 42, 4, "1368695e231b", False, "74234e98afe7"),
    (S, 18): (9, "8071e523ed5e", 2, 1, "707ee5290b1d", True, "707ee5290b1d"),
    (S, 19): (2, "6456751406ff", 7, 1, "ad47a53f7f01", False, "74234e98afe7"),
    (S, 20): (13, "05708ea31706", 54, 8, "c4a19c755824", False, "74234e98afe7"),
    (S, 21): (37, "79fe6956d91d", 31, 1, "4578ca05ceba", False, "74234e98afe7"),
    (S, 22): (22, "7d57d0f3e810", 34, 2, "09f9f4ac7896", False, "74234e98afe7"),
    (S, 23): (12, "23c560d0524c", 43, 1, "ae4425ae52f3", False, "74234e98afe7"),
    (S, 24): (7, "bfe81836c3a2", 182, 5, "5028952cb30b", True, "37123f6273cc"),
    (S, 25): (26, "67175b840fcb", 150, 4, "3e4fdc92d78b", True, "84b68523e890"),
    (S, 26): (12, "a545ab61673f", 4, 1, "9db13e607643", False, "74234e98afe7"),
    (S, 27): (42, "bb97bd2efc06", 32, 1, "64793165f534", False, "74234e98afe7"),
    (S, 28): (44, "cdf467f201b4", 163, 3, "35977adfcfb6", False, "74234e98afe7"),
    (S, 29): (24, "02e9203ef271", 187, 9, "b59fac21a9e4", True, "4b8bdc2663d6"),
    (A, 0): (6, "cb90c1c3ab77", 62, 5, "ef6fc5feccea", True, "ef6fc5feccea"),
    (A, 1): (51, "0332ef3dfc24", 535, 3, "936dff41fe9e", True, "8f6abfa03a81"),
    (A, 2): (35, "911c83a2c309", 44, 1, "a59ec6a838a2", False, "74234e98afe7"),
    (A, 3): (31, "8aa98f3ccecc", 163, 1, "eca679421493", False, "74234e98afe7"),
    (A, 4): (13, "5d34365fee2a", 33, 1, "2dde208f1fb2", True, "2dde208f1fb2"),
    (A, 5): (34, "e13eeac9af11", 365, 3, "8e8022052949", False, "74234e98afe7"),
    (A, 6): (12, "eb38abf09c26", 84, 9, "f2e076a1e955", True, "477b3a304b29"),
    (A, 7): (10, "82b508f3b050", 165, 6, "58b706dcebb2", True, "44ae298c2e74"),
    (A, 8): (27, "45af107d7563", 40, 1, "a60f7f292269", False, "74234e98afe7"),
    (A, 9): (8, "f0b371b4c352", 34, 1, "23657e75ce2f", False, "74234e98afe7"),
    (A, 10): (6, "c01825e00aa3", 34, 3, "5706994c51dc", True, "4740c71fd753"),
    (A, 11): (7, "3895f1d3c35f", 64, 42, "94c536280127", False, "74234e98afe7"),
    (A, 12): (30, "70fbcc5b402c", 281, 4, "22709f0b6ccb", False, "74234e98afe7"),
    (A, 13): (19, "b27f88f014ff", 26, 1, "f165d3107a43", False, "74234e98afe7"),
    (A, 14): (17, "473d9b5b66ef", 143, 24, "874b4f71b50c", False, "74234e98afe7"),
    (A, 15): (28, "db271a5efeac", 33, 1, "3e30d8949983", True, "3e30d8949983"),
    (A, 16): (33, "67b718bb5cb3", 454, 2, "8dd6c089c755", True, "9fdda890d13d"),
    (A, 17): (4, "538788d66207", 68, 1, "8b0fb73d5894", False, "74234e98afe7"),
    (A, 18): (22, "bebed258dd9b", 31, 1, "5e5949a22c48", True, "5e5949a22c48"),
    (A, 19): (5, "34512bdd66b6", 52, 1, "7207c81fc3ee", False, "74234e98afe7"),
    (A, 20): (93, "a854c383fe2d", 198, 8, "a3447599fc1c", True, "982beca47fba"),
    (A, 21): (10, "f69aa9cb6b1b", 467, 28, "521bb07b92f2", True, "0dced33bca69"),
    (A, 22): (52, "d59eaddf932c", 75, 1, "8a5f151c17fb", False, "74234e98afe7"),
    (A, 23): (6, "60c8a22aa94a", 1, 1, "4cf2abd9935c", False, "74234e98afe7"),
    (A, 24): (8, "7a2778ff2bd6", 82, 3, "e5ee526d0d33", False, "74234e98afe7"),
    (A, 25): (7, "f9a98bbaea31", 50, 12, "4e1111f8f6ad", False, "74234e98afe7"),
    (A, 26): (8, "1c586ef1d623", 29, 3, "b80677e1ad53", True, "7ae2179df401"),
    (A, 27): (37, "c62bb5f83ef2", 20, 1, "02753c50e5d8", True, "02753c50e5d8"),
    (A, 28): (55, "a7869bdc97ae", 84, 1, "c66ead8562d5", False, "74234e98afe7"),
    (A, 29): (9, "8154c03e132e", 30, 5, "4ef96791b7ff", False, "74234e98afe7"),
}


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:12]


@pytest.mark.parametrize("mode, seed", sorted(PINNED))
def test_search_results_are_pinned(mode, seed):
    rng = random.Random(f"{mode}-{seed}")
    k, delay = rng.randint(1, 3), rng.randint(1, 6)
    n = k + rng.randint(1, 4)
    params = ModelParams(n, k, delay, mode)
    sequence = random_sequence(rng, n, rng.randint(15, 45))
    budget = 20_000

    opt = brute_force_opt(params, sequence, budget)
    total, optima = optimal_hit_sequences(params, sequence, budget)
    assert total == opt.min_latency
    bits = simulate(params, sequence, RandomEvictionPolicy(rng.randrange(2**30))).hit_sequence
    feasible, own = is_hit_sequence_feasible(params, sequence, bits, budget)
    assert feasible
    flipped = list(bits)
    flipped[rng.randrange(len(bits))] ^= 1
    flipped_feasible, flipped_witness = is_hit_sequence_feasible(
        params, sequence, flipped, budget
    )
    assert (
        opt.min_latency,
        digest([opt.witness_evictions, opt.witness_hits]),
        opt.nodes,
        len(optima),
        digest(own),
        flipped_feasible,
        digest(flipped_witness),
    ) == PINNED[mode, seed]


def test_first_deviation_search_is_pinned():
    """A first-deviation search whose runs off the avoided bits share
    (t, cache) but not their fetches in flight: keyed without the fetches,
    such a run would cut a different one and the search would keep
    another run."""
    seq = [0, 4, 3, 4, 2, 4, 3, 0, 4, 1, 4, 4, 2, 3, 1, 0, 1, 0, 0, 1, 1, 3, 2, 3, 2, 2, 1, 3, 0]
    bits = [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]
    best, runs, nodes = _search(ModelParams(4, 1, 6), seq, limit=62, avoid=bits)
    hits = (1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1)
    evictions = [0] * len(seq)
    evictions[11], evictions[17], evictions[25] = 1, 3, 2
    assert (best, runs, nodes) == (63, {hits: evictions}, 28)
