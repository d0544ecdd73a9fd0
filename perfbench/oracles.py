"""Output checks, run statistics and the results digest.

Every check compares a program output with something computed another
way: the closed-form latency functions, ``replay`` of an emitted
eviction sequence, the paper's closed forms (``z(Z-z) - Z`` with
``z = Z//2``, and the ratio ``1 + k(Z+1)/2``) or a second policy's run.
The checks run outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import delayedhits as dh

STAT_KEYS = ("full_hits", "delayed_hits", "full_misses", "decisions", "declines",
             "pending_depth_max", "fetches_in_flight_max")


def results_digest(results_payloads) -> str:
    """sha256 of the canonical JSON of a pass's ``results`` payloads, in order."""
    text = json.dumps(list(results_payloads), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_stats(sequence, cache_size, delay, mode, latencies, evictions) -> dict:
    """Request classes and queue peaks of one run, from its emitted vectors.

    A nonidle request with latency 0 is a full hit, 1..Z-1 a delayed hit
    and Z a full miss. A miss waits from its request phase until the
    retrieval phase that serves it; a fetch is dispatched at every miss
    (at every nonidle request in the fetch-on-hit mode) and returns Z-1
    steps later. Peaks are taken after each request phase. A decision is
    a return, within the trace, of an item the cache does not hold; the
    cache is rebuilt from the initial 1..k and the eviction sequence, and
    a decision whose eviction entry is 0 is a decline.
    """
    fetch_on_hit = mode == dh.ANTIMONOTONE
    horizon = len(sequence) + delay + 1
    pending = [0] * (horizon + 1)
    in_flight = [0] * (horizon + 1)
    returns = {}
    stats = dict.fromkeys(STAT_KEYS, 0)
    for t, (item, latency) in enumerate(zip(sequence, latencies), start=1):
        if item == 0:
            continue
        if latency == 0:
            stats["full_hits"] += 1
        elif latency < delay:
            stats["delayed_hits"] += 1
        else:
            stats["full_misses"] += 1
        if latency:
            pending[t] += 1
            pending[t + latency] -= 1
        if latency or fetch_on_hit:
            in_flight[t] += 1
            in_flight[t + delay] -= 1
            returns[t + delay - 1] = item
    for counts, key in ((pending, "pending_depth_max"), (in_flight, "fetches_in_flight_max")):
        level = 0
        for change in counts:
            level += change
            stats[key] = max(stats[key], level)

    cache = set(range(1, cache_size + 1))
    for t, evicted in enumerate(evictions, start=1):
        returned = returns.get(t)
        if returned is None or returned in cache:
            continue
        stats["decisions"] += 1
        if evicted == 0:
            stats["declines"] += 1
        else:
            cache.discard(evicted)
            cache.add(returned)
    return stats


def sum_stats(many) -> dict:
    """Counts add up; peaks take the maximum."""
    total = dict.fromkeys(STAT_KEYS, 0)
    for stats in many:
        for key, value in stats.items():
            total[key] = max(total[key], value) if key.endswith("_max") else total[key] + value
    return total


def _read_trace(path):
    with open(path, encoding="utf-8") as fh:
        return [int(line) for line in fh]


class Checks:
    """Named pass/fail checks; ``attempted`` and ``failed`` feed the result."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def _check_simulate(checks, call, results, label):
    p = call["params"]
    sequence = _read_trace(p["trace"])
    hits = results["hit_sequence"]
    latencies = results["per_request_latency"]
    evictions = results["eviction_sequence"]
    checks.expect(results["trace_length"] == len(sequence), f"{label}: trace_length")
    checks.expect(
        len(hits) == len(latencies) == len(evictions) == len(sequence),
        f"{label}: vector lengths",
    )
    total, per = dh.delayed_hits_latency(sequence, p["Z"], hits)
    checks.expect(per == latencies, f"{label}: closed-form per-request latency")
    checks.expect(total == results["total_latency"], f"{label}: closed-form total latency")
    checks.expect(results["miss_count"] == hits.count(0), f"{label}: miss_count")
    params = dh.ModelParams(p["n"], p["k"], p["Z"])
    again = dh.replay(params, sequence, evictions)
    checks.expect(again.hit_sequence == hits, f"{label}: replay reproduces the hit bits")
    checks.expect(again.per_request_latency == latencies, f"{label}: replay latencies")
    return run_stats(sequence, p["k"], p["Z"], dh.STANDARD, latencies, evictions)


def _check_check(checks, call, results, label):
    cases = results["cases"]
    checks.expect(results["suite"] == call["params"]["suite"], f"{label}: suite")
    checks.expect(cases == call["params"]["cases"] and cases > 0, f"{label}: cases > 0")
    checks.expect(results["passed"] + results["failures"] == cases,
                  f"{label}: passed + failures == cases")
    checks.expect(results["failures"] == 0, f"{label}: no property failures")


def _check_counterexample(checks, call, results, label):
    delay, k = call["params"]["Z"], call["params"]["k"]
    z = delay // 2
    sequence = results["sequence"]
    checks.expect(results["gap"] == z * (delay - z) - delay, f"{label}: gap == z(Z-z) - Z")
    checks.expect(results["opt_unique"] is True, f"{label}: optimum is unique")
    checks.expect(results["opt_latency"] == results["baseline_latency"],
                  f"{label}: optimum equals the baseline latency")
    params = dh.ModelParams(k + 2, k, delay)
    for name in ("baseline", "extra_hit"):
        bits = results[f"{name}_bits"]
        latency, _ = dh.delayed_hits_latency(sequence, delay, bits)
        checks.expect(latency == results[f"{name}_latency"],
                      f"{label}: closed-form {name} latency")
        run = dh.replay(params, sequence, results[f"{name}_witness"])
        checks.expect(run.hit_sequence == bits, f"{label}: {name} witness replays to its bits")


def _check_adversary(checks, call, results, label):
    k, delay = call["params"]["k"], call["params"]["Z"]
    trace = results["trace"]
    ratio = results["ratio_lower_bound"]
    ratio = Fraction(ratio["numerator"], ratio["denominator"])
    checks.expect(results["oracle_opt"] == results["opt_latency"] == delay,
                  f"{label}: oracle_opt == opt_latency == Z")
    checks.expect(ratio >= 1 + Fraction(k * (delay + 1), 2),
                  f"{label}: ratio >= 1 + k(Z+1)/2")
    all_miss, _ = dh.delayed_hits_latency(trace, delay, [0] * len(trace))
    checks.expect(results["policy_latency"] == all_miss,
                  f"{label}: policy latency equals the all-miss closed form")
    checks.expect(ratio == Fraction(results["policy_latency"], delay),
                  f"{label}: ratio == policy latency / Z")


def _check_brute_force(checks, call, results, label):
    p = call["params"]
    params = dh.ModelParams(p["n"], p["k"], p["Z"])
    sequence = call["sequence"]
    run = dh.replay(params, sequence, results["witness_evictions"])
    checks.expect(run.total_latency == results["min_latency"],
                  f"{label}: witness replays to min_latency")
    checks.expect(run.hit_sequence == results["witness_hits"], f"{label}: witness hit bits")
    lru = dh.simulate(params, sequence, dh.lru_policy())
    checks.expect(results["min_latency"] <= lru.total_latency,
                  f"{label}: min_latency <= lru latency")


_BY_COMMAND = {
    "simulate": _check_simulate,
    "check": _check_check,
    "counterexample": _check_counterexample,
    "adversary": _check_adversary,
}


def check_pass(calls, outputs):
    """Check one pass's outputs; return the checks and the summed run stats."""
    checks = Checks()
    stats = []
    for index, (call, out) in enumerate(zip(calls, outputs)):
        label = f"call {index} ({' '.join(call.get('argv', ['brute_force_opt']))})"
        if not checks.expect(out["code"] == 0, f"{label}: exit code 0"):
            continue
        if call["kind"] == "bf":
            _check_brute_force(checks, call, out["results"], label)
            continue
        envelope = out["envelope"]
        command = call["argv"][0]
        if not checks.expect(envelope is not None and envelope["command"] == command,
                             f"{label}: report envelope"):
            continue
        result = _BY_COMMAND[command](checks, call, envelope["results"], label)
        if result is not None:
            stats.append(result)
    checks.expect(len(outputs) == len(calls), "one output per call")
    return checks, (sum_stats(stats) if stats else None)
