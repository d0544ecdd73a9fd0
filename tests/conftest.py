"""Shared helpers for drawing random instances in the test sweeps."""

import random

from delayedhits import make_policy
from delayedhits.policies import RandomEvictionPolicy
from delayedhits.traces import draw_instance  # noqa: F401  (re-exported for the tests)


def draw_policy(rng, sequence, cache_size, num_items):
    """Sample one policy from the full pool, including decliners."""
    name = rng.choice(["lru", "fifo", "never", "belady", "static", "random"])
    if name == "belady":
        return make_policy("belady", sequence=sequence)
    if name == "static":
        size = rng.randint(1, min(cache_size, num_items))
        return make_policy(
            "static", static_items=rng.sample(range(1, num_items + 1), size)
        )
    if name == "random":
        return RandomEvictionPolicy(rng.randrange(2**30))
    return make_policy(name)
