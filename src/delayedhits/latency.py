"""Closed-form latency of a trace as a function of its hit bits.

Once you know which requests were full hits, the total latency of a run
is determined without re-simulating. Both models follow one rule (Atre
et al., SIGCOMM 2020): a miss at time t is served by the earliest fetch
of its item still in flight, its own included. A fetch dispatched at p
is in flight at t when t - delay < p <= t, so the miss costs
delay - (t - p). The models differ only in which requests dispatch a
fetch:

* standard model: the misses;
* fetch-on-hit variant: every request, hits included.

Both functions below return the total and the per-request latency
vector; they are the analytic counterparts of the event-driven simulator
and are kept deliberately independent of it.

Hit bits at idle slots carry no information; the walk skips idle slots,
so the functions are total over all 0/1 vectors of the trace's length.
"""

from __future__ import annotations


def _latency(sequence, delay, bits, fetch_on_hit) -> tuple[int, list[int]]:
    """The rule above in one walk: each item keeps its dispatch times in a
    list with a cursor at the oldest one still in flight, both in plain
    dicts. Idle slots are skipped, so their bits are only checked, never
    pinned."""
    if len(bits) != len(sequence):
        raise ValueError(
            f"hit sequence length {len(bits)} != trace length {len(sequence)}"
        )
    if bits.count(0) + bits.count(1) != len(bits):
        bad = next(bit for bit in bits if bit not in (0, 1))
        raise ValueError(f"hit bits must be 0 or 1, got {bad!r}")
    per = [0] * len(sequence)
    dispatched, cursors = {}, {}
    t = 0
    for item, hit in zip(sequence, bits):
        t += 1
        if item == 0 or (hit and not fetch_on_hit):
            continue
        times = dispatched.get(item)
        if times is None:
            times = dispatched[item] = []
        times.append(t)
        i = cursors.get(item, 0)
        while times[i] <= t - delay:
            i += 1
        cursors[item] = i
        if not hit:
            per[t - 1] = delay - (t - times[i])
    return sum(per), per


def delayed_hits_latency(sequence, delay, bits) -> tuple[int, list[int]]:
    """Latency of the standard model under hit bits ``bits``: only misses dispatch."""
    return _latency(sequence, delay, bits, fetch_on_hit=False)


def antimonotone_latency(sequence, delay, bits) -> tuple[int, list[int]]:
    """Latency of the fetch-on-hit variant under ``bits``: every request dispatches."""
    return _latency(sequence, delay, bits, fetch_on_hit=True)


def dominates(bits, other) -> bool:
    """True when ``bits <= other`` pointwise (the hit-bit partial order)."""
    if len(bits) != len(other):
        raise ValueError(
            f"cannot compare hit sequences of lengths {len(bits)} and {len(other)}"
        )
    return all(x <= y for x, y in zip(bits, other))
