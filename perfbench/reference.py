"""A fixed reference loop that converts host seconds to reference seconds.

The machine this benchmark was defined on (a 2-vCPU virtual machine
shared with other tenants) changes speed by ±15% over tens of seconds.
Longer runs do not average that out, so raw timings of the same code
spread by 15-20% between runs. Every timed region is therefore
bracketed by this loop, run in the same process just before and just
after it. A timing is reported as

    host seconds * NOMINAL_CHUNK_S / measured seconds per chunk

which is the time the region would take if the loop ran at its nominal
speed. Drift that slows the loop and the program alike cancels out. The
raw host seconds are kept in the full report next to each normalised
figure.
"""

from __future__ import annotations

import time

# Seconds per chunk on the defining machine (Python 3.11.7), its median
# over a minute. A fixed constant, so reference seconds stay comparable
# across commits and runs.
NOMINAL_CHUNK_S = 0.0018


def _chunk():
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def seconds_per_chunk(duration_s):
    """Run whole chunks for about ``duration_s`` and return seconds per chunk."""
    chunks = 0
    start = time.perf_counter()
    while True:
        _chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration_s:
            return elapsed / chunks


def normalise(host_s, chunk_s):
    """Host seconds measured while the loop took ``chunk_s`` per chunk."""
    return host_s * NOMINAL_CHUNK_S / chunk_s
