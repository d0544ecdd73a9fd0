"""Run one pass of a workload in this fresh process and write what it saw.

Usage: python3 perfbench/child.py CALLS_JSON MODE OUT_JSON

MODE is ``plain`` (the timed pass), ``traced`` (per-layer timing through
tracer.Tracer) or ``alloc`` (tracemalloc peaks through tracer.AllocTracer).
Only the calls themselves are inside the timed region; decoding the CLI
reports, the results digest and the peak RSS reading come after it. A
plain pass also times a fixed reference loop just before and just after
the calls (reference.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import delayedhits  # noqa: E402
from delayedhits import cli  # noqa: E402

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from reference import seconds_per_chunk  # noqa: E402


REFERENCE_S = 0.25


def run_call(call):
    if call["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(call["argv"])
        return {"code": code, "stdout": out.getvalue()}
    p = call["params"]
    params = delayedhits.ModelParams(p["n"], p["k"], p["Z"])
    opt = delayedhits.brute_force_opt(params, call["sequence"])
    return {"code": 0, "results": {
        "min_latency": opt.min_latency,
        "witness_evictions": opt.witness_evictions,
        "witness_hits": opt.witness_hits,
    }}


def main(calls_path, mode, out_path):
    calls = json.loads(Path(calls_path).read_text(encoding="utf-8"))
    tracer = {"plain": None, "traced": tracing.Tracer(),
              "alloc": tracing.AllocTracer()}[mode]
    if tracer is not None:
        tracer.install()
    if mode == "alloc":
        tracemalloc.start()

    outputs = []
    chunk_before = seconds_per_chunk(REFERENCE_S) if mode == "plain" else None
    start = time.perf_counter()
    if mode == "traced":
        for case_id, call in enumerate(calls):
            with tracer.case(case_id, " ".join(call.get("argv", ["brute_force_opt"]))):
                outputs.append(run_call(call))
    else:
        for call in calls:
            outputs.append(run_call(call))
    elapsed = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    chunk_s = None
    if mode == "plain":
        chunk_s = (chunk_before + seconds_per_chunk(REFERENCE_S)) / 2
    if mode == "alloc":
        tracemalloc.stop()

    for out in outputs:
        if "stdout" in out:
            text = out.pop("stdout")
            out["envelope"] = json.loads(text) if text else None
            out["results"] = out["envelope"]["results"] if out["envelope"] else None
    report = {
        "mode": mode,
        "elapsed_s": elapsed,
        "maxrss_mb": maxrss_mb,
        "chunk_s": chunk_s,
        "digest": oracles.results_digest(out["results"] for out in outputs),
        "outputs": outputs,
    }
    if mode == "traced":
        report["trace"] = tracer.dump()
        report["run_stats"] = oracles.sum_stats(
            oracles.run_stats(seq, p.cache_size, p.delay, p.mode, lat, ev)
            for p, seq, lat, ev in tracer.simulate_runs
        )
    elif mode == "alloc":
        report["trace"] = tracer.dump()
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
