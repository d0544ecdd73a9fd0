"""The delayed-hits benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sim-wide-cache --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. With ``--trace 0`` it measures the end-to-end metrics:
``setup_s`` (median import time of ``delayedhits`` and ``delayedhits.cli``
in fresh interpreters), ``run_s`` (median time of one pass of the
workload's fixed work, each pass in a fresh child process) and
``peak_rss_mb`` (median peak RSS of those children). Both times are in
reference seconds (reference.py); the raw host seconds are reported next
to them. With ``--trace 1`` it runs one plain, one traced and one
tracemalloc pass and reports the per-layer metrics (see README.md for
what each one should move).

Every pass's outputs must hash to the same results digest, and the first
pass is checked against independent oracles (oracles.py). The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the readable report, and the full report, with the
environment, quartiles, run statistics and digest, is written to
``.perfbench/`` in the checkout. Trace runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from reference import normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Later performance claims are confirmed on this seed, which is not used
# while a change is being written.
HELD_OUT_SEED = 7919

SETUP_SAMPLES = 15
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples):
    """Import probes (probe_import.py), each in a fresh interpreter."""
    probes = []
    for index in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_import.py")], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        if index:  # the first probe only fills the bytecode cache
            probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def run_pass(calls_path, mode, workdir, index):
    out_path = workdir / f"pass-{index}-{mode}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(calls_path), mode, str(out_path)],
        cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True,
    )
    report = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    return report


def summary(values):
    """Median, quartiles and sample count of a list of measurements."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def timed_passes(calls_path, workdir, seconds):
    """Plain passes until ``seconds`` of wall time are spent (at least MIN_PASSES)."""
    passes = []
    walls = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(calls_path, "plain", workdir, len(passes)))
        walls.append(time.perf_counter() - began)
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and spent + statistics.median(walls) > seconds:
            return passes


def _benchmark_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "delayedhits" / "__init__.py").is_file():
        print(f"error: no delayedhits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delayedhits
    import layers
    import oracles

    if Path(delayedhits.__file__).resolve().parent != SRC / "delayedhits":
        print(f"error: imported delayedhits from {delayedhits.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        calls = workloads.build(args.workload, args.seed, workdir)
        calls_path = workdir / "calls.json"
        calls_path.write_text(json.dumps(calls), encoding="utf-8")
        report = {"workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds, "environment": environment(args.seed)}
        if args.trace:
            passes = [run_pass(calls_path, mode, workdir, 0)
                      for mode in ("plain", "traced", "alloc")]
            plain, traced, alloc = passes
            metrics = layers.per_layer_metrics(plain, traced, alloc)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(traced["trace"]["spans"]), encoding="utf-8")
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["traced_run_stats"] = traced["run_stats"]
            section = "per_layer"
        else:
            setup = measure_setup(SETUP_SAMPLES)
            passes = timed_passes(calls_path, workdir, args.seconds)
            report["setup_s"] = summary([normalise(p["host_s"], p["chunk_s"]) for p in setup])
            report["setup_host_s"] = summary([p["host_s"] for p in setup])
            report["run_s"] = summary([normalise(p["elapsed_s"], p["chunk_s"]) for p in passes])
            report["run_host_s"] = summary([p["elapsed_s"] for p in passes])
            report["peak_rss_mb"] = summary([p["maxrss_mb"] for p in passes])
            metrics = {name: (report[name]["median"], report[name]["n"])
                       for name in ("setup_s", "run_s", "peak_rss_mb")}
            section = "end_to_end"

        checks, stats = oracles.check_pass(calls, passes[0]["outputs"])
        digests = [p["digest"] for p in passes]
        for index, digest in enumerate(digests[1:], start=1):
            checks.expect(digest == digests[0],
                          f"pass {index} ({passes[index]['mode']}) results digest")
        if args.trace and stats is not None:
            checks.expect(stats == traced["run_stats"],
                          "run stats of the traced simulate calls match the report")
        report.update(results_digest=digests[0], run_stats=stats,
                      attempted=checks.attempted, failed=checks.failed,
                      failed_frac=checks.failed / checks.attempted,
                      failures=checks.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _benchmark_metrics(section)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{section} {sorted(units)}")
    report["metrics"] = {name: {"value": value, "unit": units[name], "samples": n}
                         for name, (value, n) in metrics.items()}
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2), encoding="utf-8")

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  held-out seed {HELD_OUT_SEED}  "
          f"python {env['python']}  nproc {env['nproc']}  platform {env['platform']}  "
          f"commit {env['git_commit']}")
    for name in ("setup_s", "setup_host_s", "run_s", "run_host_s", "peak_rss_mb"):
        if name in report:
            s = report[name]
            print(f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n {s['n']}")
    for name, entry in report["metrics"].items():
        print(f"  {name:<48} {entry['value']:<14.6g} {entry['unit']:<6} n={entry['samples']}")
    if stats is not None:
        print("  run stats " + " ".join(f"{k}={v}" for k, v in stats.items()))
    print(f"  results digest {report['results_digest']}")
    print(f"  checks {checks.attempted} attempted, {checks.failed} failed "
          f"(failed_frac {report['failed_frac']:.6g})")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(f"  report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
