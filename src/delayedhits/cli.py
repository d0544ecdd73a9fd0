"""Command-line front end: run traces, build reports, seeded property sweeps.

Every command prints one JSON report envelope (deterministic for a given
command line and seed): {"command", "version", "params", "results"}.
Its bytes are exactly ``json.dumps(envelope, indent=2, sort_keys=True)``
plus a newline, written in chunks by ``_json_chunks`` so that long result
vectors skip ``json``'s pure-Python indenting encoder.
Exit codes: 0 ok, 1 property violation, 2 input error, 3 infeasible
eviction, 4 search budget exceeded; a reader that closes stdout before
the report ends leaves the code as it was.

Start-up imports what ``simulate``, ``reduce`` and ``check`` run. The
``adversary`` and ``counterexample`` commands import their construction
(and, for the adversary, ``fractions``) when they run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from . import __version__
from .latency import antimonotone_latency, delayed_hits_latency
from .model import (
    ANTIMONOTONE,
    MODES,
    STANDARD,
    InfeasibleEvictionError,
    ModelParams,
    VerificationError,
    simulate,
)
from .policies import (
    DEFAULT_SEARCH_BUDGET,
    POLICIES,
    SearchBudgetExceeded,
    brute_force_opt,
    draw_policy,
    make_policy,
)
from .reduction import reduction_outer_params, verify_domination
from .traces import (
    TraceError,
    draw_instance,
    infer_num_items,
    random_sequence,
    read_trace,
    write_trace,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

# the exception classes that reach main, each with its exit code
_EXIT_CODES = {
    TraceError: EXIT_INPUT,
    ValueError: EXIT_INPUT,
    InfeasibleEvictionError: EXIT_INFEASIBLE,
    SearchBudgetExceeded: EXIT_BUDGET,
    VerificationError: EXIT_VIOLATION,
}


def _ratio_json(fr) -> dict:
    """A Fraction as its exact numerator and denominator and 6 decimals."""
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "decimal": f"{fr.numerator / fr.denominator:.6f}",
    }


def _parse_items(text) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _policy_for(args, params, sequence=None):
    """The ``--policy`` that ``args`` name, for a run under ``params``: the static
    target defaults to its initial cache, and ``--static-items`` must name items
    of its universe."""
    static_items = None
    if args.policy == "static":
        static_items = params.initial_cache()
        if args.static_items is not None:
            static_items = _parse_items(args.static_items)
            n = params.num_items
            if not static_items or max(static_items) > n:
                raise ValueError(
                    f"--static-items must name items in 1..{n}, got {args.static_items!r}"
                )
    elif args.static_items is not None:
        # a target set that no policy reads would be ignored without a word
        raise ValueError(f"--static-items needs --policy static, got --policy {args.policy}")
    return make_policy(args.policy, sequence=sequence, static_items=static_items)


def cmd_simulate(args):
    sequence = read_trace(args.trace)
    n = args.n if args.n is not None else infer_num_items(sequence)
    params = ModelParams(n, args.k, args.Z, args.model)
    result = simulate(params, sequence, _policy_for(args, params, sequence=sequence))
    results = {
        "trace_length": len(sequence),
        "total_latency": result.total_latency,
        "per_request_latency": result.per_request_latency,
        "hit_sequence": result.hit_sequence,
        "eviction_sequence": result.eviction_sequence,
        "miss_count": result.hit_sequence.count(0),
    }
    return _params_dict(params, args.policy), results, EXIT_OK


def _check_search_budget(args):
    # a budget of 0 admits no decision node; a negative one is meaningless
    if args.search_budget < 0:
        raise ValueError(f"--search-budget must be >= 0, got {args.search_budget}")


def cmd_adversary(args):
    from .adversary import build_adversarial_sequence

    n = args.n if args.n is not None else args.k + 1
    params = ModelParams(n, args.k, args.Z)
    _check_search_budget(args)
    # built without the trace, so belady, which needs it, is refused
    report = build_adversarial_sequence(_policy_for(args, params), params, cap=args.cap)
    if args.trace_out:
        write_trace(args.trace_out, report.sequence)
    results = {
        "trace": report.sequence,
        "trace_length": len(report.sequence),
        "segments": [
            {"kind": seg.kind, "item": seg.item} for seg in report.segments
        ],
        "policy_latency": report.policy_latency,
        "opt_latency": report.opt_latency,
        "opt_witness_item": report.opt_witness_item,
        "marked": sorted(report.marked),
        "bursty_count": report.bursty_count,
        "capped": report.capped,
        "ratio_lower_bound": _ratio_json(report.ratio_lower_bound),
        "oracle_opt": None,
    }
    code = EXIT_OK
    if args.oracle_check:
        try:
            results["oracle_opt"] = brute_force_opt(
                params, report.sequence, args.search_budget
            ).min_latency
        except SearchBudgetExceeded as exc:
            results["oracle_error"] = str(exc)
            code = EXIT_BUDGET
        else:
            if results["oracle_opt"] != report.opt_latency:
                raise VerificationError(
                    f"exhaustive optimum {results['oracle_opt']} != "
                    f"witnessed optimum {report.opt_latency}"
                )
    return _params_dict(params, args.policy), results, code


def cmd_counterexample(args):
    from .counterexample import counterexample_sequence, verify_nonantimonotonicity

    _check_search_budget(args)
    cspec = counterexample_sequence(args.Z, args.k)
    if args.trace_out:
        write_trace(args.trace_out, cspec.sequence)
    code, error = EXIT_OK, None
    try:
        report = verify_nonantimonotonicity(cspec, args.oracle_check, args.search_budget)
    except SearchBudgetExceeded as exc:
        code, error, report = EXIT_BUDGET, str(exc), exc.report
    results = {
        **report._asdict(),
        "sequence": list(cspec.sequence),
        "baseline_bits": list(cspec.baseline_bits),
        "extra_hit_bits": list(cspec.extra_hit_bits),
        "burst_len": cspec.burst_len,
        "predicted_gap": cspec.predicted_gap,
    }
    if error is not None:
        # only an overrun report carries it, like adversary's oracle_error
        results["search_error"] = error
    return _params_dict(cspec.params()), results, code


def cmd_reduce(args):
    sequence = read_trace(args.trace)
    n = args.n if args.n is not None else infer_num_items(sequence)
    params = ModelParams(n, args.k, args.Z, ANTIMONOTONE)
    report_params = _params_dict(params, args.policy)
    policy = _policy_for(args, params, sequence=sequence)
    try:
        report = verify_domination(sequence, policy, params)
    except VerificationError as exc:
        results = {"dominates": False, "violation": str(exc)}
        return report_params, results, EXIT_VIOLATION
    results = {
        **report._asdict(),
        "dominates": True,
        "outer_cache_size": reduction_outer_params(params).cache_size,
    }
    return report_params, results, EXIT_OK


def _draw_latency(rng, idle_prob):
    k, delay, n, sequence = draw_instance(rng, idle_prob=idle_prob)
    return k, delay, n, sequence, draw_policy(rng, sequence, k, n)


def _check_latency(case):
    k, delay, n, sequence, policy = case
    for mode, closed_form in (
        (STANDARD, delayed_hits_latency),
        (ANTIMONOTONE, antimonotone_latency),
    ):
        run = simulate(ModelParams(n, k, delay, mode), sequence, policy)
        total, per = closed_form(sequence, delay, run.hit_sequence)
        if total != run.total_latency or per != run.per_request_latency:
            return {
                "mode": mode,
                "sequence": sequence,
                "params": {"n": n, "k": k, "Z": delay},
                "policy": policy.name,
                "simulated": run.total_latency,
                "closed_form": total,
            }
    return None


def _draw_antimono(rng, idle_prob):
    n = rng.randint(1, 6)
    delay = rng.randint(1, 8)
    sequence = random_sequence(rng, n, rng.randint(1, 50), idle_prob)
    bits = [rng.randint(0, 1) for _ in sequence]
    upper = [b | (rng.random() < 0.5) for b in bits]
    return n, delay, sequence, bits, upper


def _check_antimono(case):
    n, delay, sequence, bits, upper = case
    base, _ = antimonotone_latency(sequence, delay, bits)
    failure = {"sequence": sequence, "bits": bits, "params": {"n": n, "Z": delay}}
    for pos, bit in enumerate(bits):
        if bit == 1:
            continue
        flipped = list(bits)
        flipped[pos] = 1
        value, _ = antimonotone_latency(sequence, delay, flipped)
        if value > base:
            return {**failure, "flip_pos": pos + 1, "base": base, "flipped": value}
    value, _ = antimonotone_latency(sequence, delay, upper)
    if value > base:
        return {**failure, "pair": True, "base": base, "upper": value}
    return None


def _draw_reduction(rng, idle_prob):
    k = rng.randint(1, 3)
    delay = rng.randint(1, 6)
    # the wrapper's cache holds k + delay items, so only items above that
    # ever reach its eviction rule
    n = k + delay + rng.randint(1, 4)
    sequence = random_sequence(rng, n, rng.randint(1, 50), idle_prob)
    return k, delay, n, sequence, rng.choice(["lru", "fifo"])


def _check_reduction(case):
    k, delay, n, sequence, inner_name = case
    inner = make_policy(inner_name)
    try:
        verify_domination(sequence, inner, ModelParams(n, k, delay))
    except VerificationError as exc:
        return {
            "sequence": sequence,
            "params": {"n": n, "k": k, "Z": delay},
            "policy": inner.name,
            "violation": str(exc),
        }
    return None


# each suite is (draw, check): draw(rng, idle_prob) takes every random
# draw of one case from the sweep's one rng, so a case depends on the seed
# alone; check(case) uses no rng and returns a failure description, or
# None when the case passes
_SUITES = {
    "latency": (_draw_latency, _check_latency),
    "antimono": (_draw_antimono, _check_antimono),
    "reduction": (_draw_reduction, _check_reduction),
}

# cases per task sent to a check worker
_CHECK_CHUNK = 64


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _checked(check, cases, count):
    """check(case) for each of the ``count`` cases, in case order.

    Chunks of cases go to a fork pool with one worker per usable CPU and
    at most one per chunk. With one worker, without fork, or while another
    thread runs (a forked child would inherit the locks it holds), the same
    checks run in this process. Leaving the pool terminates its workers,
    whether the sweep ends or a check raises.
    """
    workers = min(_usable_cpus(), -(-count // _CHECK_CHUNK))
    if workers > 1:
        import multiprocessing
        import threading

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                yield from pool.imap(check, cases, _CHECK_CHUNK)
            return
    yield from map(check, cases)


def cmd_check(args):
    # a sweep of no cases, or of idle slots only, would pass vacuously
    if args.cases <= 0:
        raise ValueError(f"--cases must be positive, got {args.cases}")
    if not 0 <= args.idle_prob < 1:
        raise ValueError(f"--idle-prob must be in [0, 1), got {args.idle_prob}")
    draw, check = _SUITES[args.suite]
    rng = random.Random(args.seed)
    # drawn in order as the mapper takes them, so the sweep never holds them all
    cases = (draw(rng, args.idle_prob) for _ in range(args.cases))
    failures, first = 0, None
    for case, failure in enumerate(_checked(check, cases, args.cases)):
        if failure is not None:
            failures += 1
            if first is None:
                first = {"case": case, **failure}
    results = {
        "suite": args.suite,
        "cases": args.cases,
        "passed": args.cases - failures,
        "failures": failures,
        "first_failure": first,
    }
    return _params_dict(seed=args.seed), results, EXIT_VIOLATION if failures else EXIT_OK


def _params_dict(params=None, policy=None, seed=None):
    """The envelope's ``params``: n, k, Z and the mode read off the
    :class:`ModelParams` the command ran (None for ``check``, which runs
    many), the policy name and the sweep's seed."""
    n = k = delay = mode = None
    if params is not None:
        n, k, delay, mode = params.num_items, params.cache_size, params.delay, params.mode
    return {"n": n, "k": k, "Z": delay, "mode": mode, "policy": policy, "seed": seed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayedhits",
        description="Deterministic delayed-hits cache simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=False, policy=True, universe=True):
        if trace:
            p.add_argument("trace", help="trace file: one item per line, 0 = idle")
        if universe:
            p.add_argument("-n", type=int, default=None, help="item universe size")
        p.add_argument("-k", type=int, default=2, help="cache capacity")
        p.add_argument("-Z", type=int, default=4, help="backing-store fetch delay")
        if policy:
            p.add_argument("--policy", default="lru", choices=POLICIES)
            p.add_argument(
                "--static-items",
                default=None,
                help="comma-separated target set for --policy static (default 1..min(k, n))",
            )
        p.add_argument("--out", default=None, help="write the JSON report here")

    p_sim = sub.add_parser("simulate", help="run a trace under a policy")
    common(p_sim, trace=True)
    p_sim.add_argument("--model", default=STANDARD, choices=MODES)

    p_adv = sub.add_parser("adversary", help="build the adaptive lower-bound trace")
    common(p_adv)
    p_adv.add_argument("--cap", type=int, default=None, help="max bursty segments")
    p_adv.add_argument("--oracle-check", action="store_true")
    p_adv.add_argument("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p_adv.add_argument("--trace-out", default=None, help="also write the built trace here")

    p_cex = sub.add_parser(
        "counterexample", help="build and verify the extra-hit-hurts trace"
    )
    # the construction fixes its own universe, k + 2 items
    common(p_cex, policy=False, universe=False)
    p_cex.add_argument("--oracle-check", action="store_true")
    p_cex.add_argument("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p_cex.add_argument("--trace-out", default=None, help="also write the trace here")

    p_red = sub.add_parser("reduce", help="check the k+Z reduction on a trace")
    common(p_red, trace=True)

    p_chk = sub.add_parser("check", help="seeded randomized property sweeps")
    p_chk.add_argument("--suite", default="latency", choices=sorted(_SUITES))
    p_chk.add_argument("--cases", type=int, default=1000)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--idle-prob", type=float, default=0.25)
    p_chk.add_argument("--out", default=None)

    return parser


# items per %-formatted slice of an all-int list in a report
_INT_SLICE = 4096


def _json_chunks(value, newline="\n"):
    """Yield ``json.dumps(value, indent=2, sort_keys=True)`` in pieces.

    Each key and scalar is encoded by ``json.dumps`` itself, so strings,
    floats, bools and None, and the TypeError for anything unencodable,
    are json's own. A list of plain ints (bools excluded), where a long
    report's bytes are, is %-formatted ``_INT_SLICE`` items at a time:
    ``"%d"`` spells an exact int as ``str`` does, and the slices bound
    the writer's memory. ``newline`` is a line break followed by the
    indent of the line ``value`` starts on.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            # json's own conversion of an int, float, bool or None key
            name = key if isinstance(key, str) else json.dumps({key: 0})[2:-5]
            yield opener + json.dumps(name) + ": "
            yield from _json_chunks(value[key], inner)
            opener = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        sep = "," + inner
        opener = "[" + inner
        if {*map(type, value)} == {int}:
            for start in range(0, len(value), _INT_SLICE):
                part = tuple(value[start:start + _INT_SLICE])
                yield opener + sep.join(["%d"] * len(part)) % part
                opener = sep
        else:
            for item in value:
                yield opener
                yield from _json_chunks(item, inner)
                opener = sep
        yield newline + "]"
    else:
        yield json.dumps(value)


def _emit(envelope, out_path):
    chunks = itertools.chain(_json_chunks(envelope), ["\n"])
    if not out_path:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader took what it wanted and closed the pipe: not an
            # error; send the exit-time flush of the rest to devnull
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, ValueError):  # a stream with no descriptor
                return
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        # an unwritable --out is an input error, like an unreadable trace
        raise ValueError(f"cannot write report {out_path}: {exc}") from None


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built on the first call, not at import, and reused by every later one
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so a replaced cmd_* module attribute takes effect
    handler = globals()[f"cmd_{args.command}"]
    try:
        params, results, code = handler(args)
        envelope = {
            "command": args.command,
            "version": __version__,
            "params": params,
            "results": results,
        }
        _emit(envelope, args.out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
    return code


if __name__ == "__main__":
    sys.exit(main())
