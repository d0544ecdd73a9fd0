"""Per-layer metrics from one plain, one traced and one tracemalloc pass.

Names are ``<layer>.<function>.<quantity>``: ``calls`` and ``self_s``
(inclusive seconds minus wrapped children) come from the traced pass's
aggregates, summed over callers; ``.s`` is inclusive seconds. A function
that no longer exists reads 0. See README.md for which end-to-end metric
each one should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import SEARCHES

MB = 1024 * 1024

CALLS_AND_SELF = (
    "model.retrieval_serve", "model.request_phase", "model.apply_eviction",
    "model.clone", "model.committed_latency", "policies.observe",
    "policies.choose_eviction", "latency.delayed_hits_latency",
    "latency.antimonotone_latency",
)
SELF_ONLY = (
    "model.step", "model.result", "reduction.observe", "reduction.choose_eviction",
    "reduction.verify_domination", "adversary.build_adversarial_sequence",
    "counterexample.verify_nonantimonotonicity", "cli.cmd_simulate", "cli.cmd_check",
    "cli.cmd_counterexample", "cli.cmd_adversary",
)
INCLUSIVE = (*SEARCHES, "traces.read_trace")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(plain, traced, alloc):
    """{metric name: (value, samples)}; every metric comes from a single pass."""
    trace = traced["trace"]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    under_main = 0.0
    for name, parent, n, inclusive, own in trace["aggregates"]:
        calls[name] += n
        total[name] += inclusive
        self_s[name] += own
        if parent == "cli.main" and name.startswith("cli.cmd_"):
            under_main += inclusive
    counters = trace["counters"]

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = self_s[name]
    for name in INCLUSIVE:
        metrics[f"{name}.s"] = total[name]
    # the drain loop's own work: drain plus its retrieval-only steps
    metrics["model.drain.self_s"] = self_s["model.drain"] + self_s["model.drain_step"]
    # argparse, dispatch and the JSON envelope: main minus its command handler
    metrics["cli.main.self_s"] = total["cli.main"] - under_main

    metrics["policies.decline_frac"] = _ratio(counters["policies.choose_eviction"],
                                              calls["policies.choose_eviction"])
    nodes = counters["model.needs_decision"]
    search_s = sum(total[name] for name in SEARCHES)
    metrics["policies.search.nodes"] = nodes
    metrics["policies.search.nodes_per_s"] = _ratio(nodes, search_s)
    metrics["policies.search.request_phases_per_node"] = _ratio(
        counters["model.request_phase"], nodes)

    # the k+Z wrapper's outer run against the inner run it shadows
    spans = trace["spans"]
    outer = inner = 0.0
    for name, start, end, parent, _, attrs in spans:
        if name != "model.simulate" or parent is None:
            continue
        if spans[parent][0] != "reduction.verify_domination":
            continue
        if attrs.get("policy") == "ReductionPolicy":
            outer += end - start
        else:
            inner += end - start
    metrics["reduction.outer_s"] = outer
    metrics["reduction.inner_s"] = inner
    metrics["reduction.overhead_ratio"] = _ratio(outer, inner)

    peaks = alloc["trace"]["peaks"]
    metrics["model.simulate.peak_alloc_mb"] = peaks["simulate"] / MB
    metrics["policies.search.peak_alloc_mb"] = peaks["search"] / MB

    for key, value in traced["run_stats"].items():
        metrics[f"model.{key}"] = value
    metrics["trace.overhead_s"] = traced["elapsed_s"] - plain["elapsed_s"]
    return {name: (value, 1) for name, value in metrics.items()}
