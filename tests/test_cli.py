"""End-to-end command-line behavior: envelopes, exit codes, round trips."""

import hashlib
import json
import multiprocessing
import operator
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from delayedhits import InfeasibleEvictionError, ReductionPolicy, VerificationError, cli, policies
from delayedhits.cli import main
from delayedhits.traces import random_sequence, read_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    if not out:
        return code, None
    report = json.loads(out)
    # the report format is json.dumps(indent=2, sort_keys=True), byte for byte
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, report


def write_lines(path, items):
    path.write_text("".join(f"{i}\n" for i in items))
    return str(path)


def test_simulate_burst(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [3, 3, 3])
    code, report = run_cli(
        capsys, "simulate", trace, "-k", "2", "-Z", "3", "--policy", "lru"
    )
    assert code == 0
    assert report["command"] == "simulate"
    assert report["params"]["k"] == 2 and report["params"]["Z"] == 3
    assert report["results"]["total_latency"] == 6
    assert report["results"]["per_request_latency"] == [3, 2, 1]


def test_simulate_single_resident_item(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [1])
    code, report = run_cli(capsys, "simulate", trace)
    assert code == 0
    assert report["results"]["total_latency"] == 0


def test_trace_comments_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "t.txt"
    # the second input has CRLF line ends and no final newline
    for text in ("# a comment\n\n3\n3  # trailing\n3\n",
                 "# a comment\r\n\r\n3\r\n3  # trailing\r\n3"):
        path.write_bytes(text.encode())
        code, report = run_cli(capsys, "simulate", str(path), "-k", "2", "-Z", "3")
        assert code == 0
        assert report["results"]["total_latency"] == 6


def test_unreadable_trace_is_input_error(capsys):
    code = main(["simulate", "/no/such/file"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_item_above_declared_universe_is_input_error(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [5])
    code = main(["simulate", trace, "-n", "3"])
    assert code == 2


def test_static_items_parsing(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [3, 0, 0, 3])
    code, report = run_cli(
        capsys, "simulate", trace, "-k", "2", "-Z", "2",
        "--policy", "static", "--static-items", "1,3",
    )
    assert code == 0
    assert report["results"]["total_latency"] == 2


def test_infeasible_eviction_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # shipped policies never propose infeasible evictions, so force one
    def explode(*args, **kwargs):
        raise InfeasibleEvictionError(5, 2)

    monkeypatch.setattr("delayedhits.cli.simulate", explode)
    trace = write_lines(tmp_path / "t.txt", [1])
    code = main(["simulate", trace])
    assert code == 3
    assert "t=5" in capsys.readouterr().err


def test_adversary_report_and_roundtrip(tmp_path, capsys):
    emitted = tmp_path / "adversarial.txt"
    code, report = run_cli(
        capsys, "adversary", "--policy", "lru", "-k", "2", "-Z", "3",
        "--oracle-check", "--trace-out", str(emitted),
    )
    assert code == 0
    results = report["results"]
    assert results["policy_latency"] == 15
    assert results["opt_latency"] == 3
    assert results["oracle_opt"] == 3
    assert results["ratio_lower_bound"] == {
        "numerator": 5, "denominator": 1, "decimal": "5.000000",
    }
    assert read_trace(emitted) == results["trace"]
    # the emitted trace replays to the latency stated in the report
    code, rerun = run_cli(
        capsys, "simulate", str(emitted), "-k", "2", "-Z", "3", "--policy", "lru"
    )
    assert code == 0
    assert rerun["results"]["total_latency"] == results["policy_latency"]


def test_adversary_ratio_at_larger_point(capsys):
    code, report = run_cli(
        capsys, "adversary", "--policy", "lru", "-k", "4", "-Z", "10"
    )
    assert code == 0
    ratio = report["results"]["ratio_lower_bound"]
    assert ratio["numerator"] == 23 and ratio["denominator"] == 1


def test_adversary_cap_path(capsys):
    code, report = run_cli(
        capsys, "adversary", "--policy", "never", "-k", "3", "-Z", "3", "--cap", "5"
    )
    assert code == 0
    results = report["results"]
    assert results["capped"] and results["bursty_count"] == 5
    assert results["ratio_lower_bound"]["numerator"] == 11


def test_adversary_budget_gives_partial_report(capsys):
    code, report = run_cli(
        capsys, "adversary", "--policy", "lru", "-k", "2", "-Z", "3",
        "--oracle-check", "--search-budget", "0",
    )
    assert code == 4
    assert report["results"]["oracle_opt"] is None
    assert "oracle_error" in report["results"]
    assert report["results"]["policy_latency"] == 15


def test_adversary_rejects_offline_policy(capsys):
    # the construction has no trace to give belady before it builds one
    assert main(["adversary", "--policy", "belady"]) == 2
    assert capsys.readouterr().err == "error: belady is offline and needs the full trace\n"


def test_counterexample_report(capsys):
    code, report = run_cli(capsys, "counterexample", "-Z", "6", "--oracle-check")
    assert code == 0
    results = report["results"]
    assert results["gap"] == 3
    assert results["baseline_latency"] == 24
    assert results["extra_hit_latency"] == 27
    assert results["opt_latency"] == 24 and results["opt_unique"]
    assert "search_error" not in results


@pytest.mark.parametrize(
    "budget,calls,error,optimum_found",
    [
        (None, [operator.gt, None], None, True),
        ("5", [operator.gt, None], "baseline feasibility", False),
        ("30", [operator.gt, None, None, operator.ge], "optimum", False),
        ("40", [operator.gt, None, None, operator.ge], "unique-optimum", True),
    ],
    ids=["default", "budget-5", "budget-30", "budget-40"],
)
def test_counterexample_budget_overrun_runs_each_search_once(
    capsys, monkeypatch, budget, calls, error, optimum_found
):
    # the set of optima runs first; when it settles the baseline, only the
    # extra-hit feasibility search follows. When it overruns (46 nodes),
    # the other searches run in order, the optimum search (ge) last; the
    # report keeps what was already verified
    searches = []
    real_search = policies._search

    def counting(*args, **kwargs):
        searches.append(args[3])
        return real_search(*args, **kwargs)

    monkeypatch.setattr(policies, "_search", counting)
    budget_args = [] if budget is None else ["--search-budget", budget]
    code, report = run_cli(
        capsys, "counterexample", "-Z", "26", "-k", "7", "--oracle-check", *budget_args
    )
    assert searches == calls
    assert code == (0 if error is None else 4)
    results = report["results"]
    assert results.get("search_error") == (
        error and f"{error} search: instance too large: more than {budget} decision nodes"
    )
    assert (results["opt_latency"] == results["baseline_latency"]) is optimum_found
    assert results["opt_unique"] is (True if error is None else None)
    assert results["gap"] == results["predicted_gap"]
    witnesses = bool(results["baseline_witness"] and results["extra_hit_witness"])
    assert witnesses is (error != "baseline feasibility")


@pytest.mark.parametrize(
    "budget,search,opt_latency",
    [(30, "optimum", None), (40, "unique-optimum", 169)],
    ids=["optimum", "set-of-optima"],
)
def test_counterexample_overrun_names_the_optimum_search_that_overran(
    capsys, budget, search, opt_latency
):
    # both feasibility searches fit either budget; 30 nodes stop the
    # optimum search, 40 stop only the set-of-optima search after it
    code, report = run_cli(
        capsys, "counterexample", "-Z", "26", "-k", "7", "--oracle-check",
        "--search-budget", str(budget),
    )
    assert code == 4
    results = report["results"]
    assert results["baseline_witness"] and results["extra_hit_witness"]
    assert results["opt_latency"] == opt_latency
    assert results["opt_unique"] is None
    assert results["search_error"] == (
        f"{search} search: instance too large: more than {budget} decision nodes"
    )


@pytest.mark.parametrize(
    "oracle_check", [[], ["--oracle-check"]], ids=["feasibility", "oracle-check"]
)
def test_counterexample_feasibility_overrun_gives_partial_report(capsys, oracle_check):
    # the closed-form claims hold; the first feasibility search overruns
    code, report = run_cli(
        capsys, "counterexample", "-Z", "26", "-k", "7", "--search-budget", "5",
        *oracle_check,
    )
    assert code == 4
    results = report["results"]
    assert results["gap"] == results["predicted_gap"] == 143
    assert results["baseline_witness"] is None
    assert results["extra_hit_witness"] is None
    assert results["opt_latency"] is None and results["opt_unique"] is None
    assert results["search_error"] == (
        "baseline feasibility search: instance too large: more than 5 decision nodes"
    )


def test_counterexample_has_no_universe_flag(capsys):
    # the construction fixes n = k + 2; a -n would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "-n", "999"])
    assert exc.value.code == 2


def test_counterexample_small_delay_is_input_error(capsys):
    assert main(["counterexample", "-Z", "4"]) == 2


def test_counterexample_trace_roundtrip(tmp_path, capsys):
    out = tmp_path / "hit_hurts.txt"
    code, report = run_cli(
        capsys, "counterexample", "-Z", "5", "--trace-out", str(out)
    )
    assert code == 0
    assert read_trace(out) == report["results"]["sequence"]


def test_check_latency_at_spec_scale(capsys):
    code, report = run_cli(
        capsys, "check", "--suite", "latency", "--cases", "1000", "--seed", "7"
    )
    assert code == 0
    assert report["results"]["passed"] == 1000


def test_check_antimono_at_spec_scale(capsys):
    code, report = run_cli(
        capsys, "check", "--suite", "antimono", "--cases", "10000", "--seed", "7"
    )
    assert code == 0
    assert report["results"]["failures"] == 0


def test_reduce_command(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [0, 1, 3, 5, 2, 0, 2])
    code, report = run_cli(
        capsys, "reduce", trace, "--policy", "lru", "-k", "1", "-Z", "3"
    )
    assert code == 0
    results = report["results"]
    assert results["dominates"]
    assert results["outer_total"] <= results["inner_total"]
    assert results["outer_cache_size"] == 4


def test_reduce_reports_a_failed_domination(tmp_path, capsys, monkeypatch):
    trace = write_lines(tmp_path / "t.txt", [0, 1, 3, 5, 2, 0, 2])
    monkeypatch.setattr(cli, "verify_domination", _reject_delay_two(cli.verify_domination))
    code, report = run_cli(capsys, "reduce", trace, "-k", "1", "-Z", "2")
    assert code == 1
    assert report["results"] == {"dominates": False, "violation": "injected fault at Z=2"}


def test_reduction_sweep_reaches_the_wrappers_rule(capsys, monkeypatch):
    """A case whose universe fits in the wrapper's k + delay slots never
    asks the wrapper for a victim; the sweep draws n above that, so most
    cases exercise the rule it checks."""
    reached = set()
    rule = ReductionPolicy.choose_eviction

    def counted(self, t, item, cache):
        reached.add(self)
        return rule(self, t, item, cache)

    monkeypatch.setattr(ReductionPolicy, "choose_eviction", counted)
    # in-process, so the wrappers are counted here and not in pool workers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    code, report = run_cli(
        capsys, "check", "--suite", "reduction", "--cases", "400", "--seed", "1"
    )
    assert code == 0 and report["results"]["passed"] == 400
    # one wrapper per case
    assert len(reached) >= 300


@pytest.mark.parametrize(
    "suite,cases", [("latency", 40), ("antimono", 60), ("reduction", 25)]
)
def test_check_suites_pass(capsys, suite, cases):
    code, report = run_cli(
        capsys, "check", "--suite", suite, "--cases", str(cases), "--seed", "7"
    )
    assert code == 0
    assert report["results"]["failures"] == 0
    assert report["results"]["passed"] == cases


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--cases", "0"),
        ("--cases", "-3"),
        ("--idle-prob", "2"),
        ("--idle-prob", "1"),
        ("--idle-prob", "-0.1"),
        ("--idle-prob", "nan"),
    ],
)
def test_check_rejects_vacuous_sweeps(capsys, flag, value):
    code = main(["check", "--suite", "latency", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["adversary", "--cap", "0"],
        ["adversary", "--cap", "-3"],
        ["adversary", "--oracle-check", "--search-budget", "-1"],
        ["counterexample", "-Z", "6", "--oracle-check", "--search-budget", "-1"],
    ],
)
def test_search_commands_reject_vacuous_limits(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_check_output_is_deterministic(capsys):
    main(["check", "--suite", "latency", "--cases", "15", "--seed", "3"])
    first = capsys.readouterr().out
    main(["check", "--suite", "latency", "--cases", "15", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """The parser is built on the first call only; later calls reuse it and
    give the bytes a fresh parser gives, with no option carried over."""
    trace = _seeded_trace(tmp_path / "t.txt", 5, 6, 60)
    out = tmp_path / "report.json"
    calls = [
        ["check", "--suite", "reduction", "--cases", "12", "--seed", "7"],
        ["simulate", trace, "-k", "3", "-Z", "6", "--policy", "fifo", "--out", str(out)],
        ["simulate", trace],
        ["check", "--suite", "reduction", "--cases", "12"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
    parser = cli._parser
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
    assert cli._parser is parser

    # the defaults hold after calls that set every option
    stdout = {i: json.loads(f[1]) for i, f in enumerate(fresh) if f[1]}
    assert fresh[1][1] == "" and fresh[1][3] is not None
    assert stdout[2]["params"] == {"n": 6, "k": 2, "Z": 4, "mode": "standard",
                                   "policy": "lru", "seed": None}
    assert (stdout[0]["params"]["seed"], stdout[3]["params"]["seed"]) == (7, 0)


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from delayedhits import cli; assert cli._parser is None"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_reader_closing_the_pipe_early_is_not_an_error(tmp_path):
    # a report of several MB overfills the pipe, so the reader's close
    # lands while the CLI is still writing
    trace = write_lines(tmp_path / "big.txt", random_sequence(random.Random(5), 50, 200_000))
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "delayedhits.cli", "simulate", trace, "-k", "5", "-Z", "4"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait() == 0
        assert stderr == b""


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    trace = write_lines(tmp_path / "t.txt", [1])
    code = main(["simulate", trace, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["results"]["total_latency"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "TRACE", "-k", "3", "-Z", "5", "--policy", "fifo"],
        ["adversary", "--policy", "lru", "-k", "2", "-Z", "3", "--oracle-check"],
        ["check", "--suite", "reduction", "--cases", "10"],
    ],
    ids=["simulate", "adversary", "check"],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    trace = write_lines(tmp_path / "t.txt", [3, 1, 0, 2, 3, 3, 4, 1, 2, 0, 4])
    argv = [trace if arg == "TRACE" else arg for arg in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout


def _seeded_trace(path, seed, num_items, length):
    rng = random.Random(seed)
    items = [
        0 if rng.random() < 0.25 else rng.randint(1, num_items) for _ in range(length)
    ]
    return write_lines(path, items)


# sha256 of the full stdout of each command, pinned from the json.dumps
# writer; any change to a report's bytes, format or content, shows here
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru"],
         "25a57e1d70848bde43055a00781ba790f218319ac8e96c0e638c4a10429dd34c"),
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "fifo"],
         "485aa43295f414d82289c5b78b3c04867d94efd98fbf4cf808f0813efd7096d3"),
        (["counterexample", "-Z", "8", "-k", "2", "--oracle-check"],
         "7002c34339862955279e918539336d2a658e26629f148bedcf4066fe6122bb44"),
        (["adversary", "--policy", "lru", "-k", "3", "-Z", "5", "--oracle-check"],
         "27ebfb819c3e93cf48ca3f3f68aea7c429821642fdbbb753ff929bef46dd97af"),
        (["check", "--suite", "antimono", "--cases", "50"],
         "5c7372bbd3863f852089df9330dee967fad6cb99079552c69d9fc1ce90f3347e"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru"],
         "dc5f41231ec341c29c98e5a6cd1bcc064dfc3152bb907d700c0da812ba38382f"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "fifo"],
         "9f06bb59cdefddc4dd761dff1f09aabbd7fb2ba214d5f68b9d730400710dfcb0"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "belady"],
         "d8420102447709a0c8ae574981505414017219f4312c3d85a28480e5d66bbb45"),
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru",
          "--model", "antimonotone"],
         "2656a917a7c1ac18ba7ab64b589245da91b27f83da26a4936d3039676e02c5e5"),
        # a universe above k + 1, so the adversary has an item it never requests
        (["adversary", "--policy", "fifo", "-n", "6", "-k", "3", "-Z", "5", "--oracle-check"],
         "67e1bef1c4129fa7d8feb990059841be5f25311f81e1de3436655a6090a6c1da"),
        # the static target defaults to the initial cache
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "static"],
         "c2ac145ac558f3946ad9ec9f465e1bfc3aced1735d49f97789185195eddfee99"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "static"],
         "130856953068c7a2e87808d4c0035e2aea862078cff1c6bb78140925f446f50c"),
        (["adversary", "--policy", "static", "-k", "3", "-Z", "5", "--oracle-check"],
         "d68936f3bbdfcdb9e8d04d1b019b3f63d9ef09839eb65a4ff480311f94ea765f"),
    ],
    ids=["simulate-lru", "simulate-fifo", "counterexample", "adversary", "check",
         "reduce-lru", "reduce-fifo", "reduce-belady", "simulate-antimonotone",
         "adversary-wide-universe", "simulate-static", "reduce-static",
         "adversary-static"],
)
def test_report_bytes_are_pinned(tmp_path, capsys, argv, digest):
    trace = _seeded_trace(tmp_path / "t.txt", 2024, 40, 2000)
    assert main([trace if arg == "TRACE" else arg for arg in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the certificate at (26, 7) whole and cut at each of its three overrun
# steps, and a larger one; the verifier's search order must keep them all
@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (["-Z", "26", "-k", "7"], 0,
         "cdd5f4cc34580e29a8d848b2277028d5c18855b379fc328847acdbea1d4d8cd7"),
        (["-Z", "26", "-k", "7", "--search-budget", "5"], 4,
         "1a8894a65c1aa6140d7c9bb743fbaa77d5f29d4430143afa7a6e82f2431ba2c8"),
        (["-Z", "26", "-k", "7", "--search-budget", "30"], 4,
         "fcf0d90de15b3fc7b3080c9779480aff4dfc05e6fe157b72cb829c6fc938137c"),
        (["-Z", "26", "-k", "7", "--search-budget", "40"], 4,
         "ec25801cc439c1e9b0b7524634dce579d4716362daa954ea94acbb62588d9d6f"),
        (["-Z", "60", "-k", "20"], 0,
         "d349ff107f195ed69cafdda27d7bd13cb3012dd383ebf7544bd4e95f31c91ca6"),
    ],
    ids=["26-7", "26-7-budget-5", "26-7-budget-30", "26-7-budget-40", "60-20"],
)
def test_counterexample_report_bytes_are_pinned(capsys, argv, code, digest):
    assert main(["counterexample", *argv, "--oracle-check"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "policy,digest",
    [
        ("lru", "1f5e5120d4d71c6259a240c53674f14d191c6635dd0f21d6177f6c291b4b3b56"),
        ("fifo", "a832670b3ad9bbcde759259c5008a4f0e12bad8488c33cf4d679dfd61437db28"),
    ],
)
def test_report_bytes_are_pinned_past_two_int_slices(tmp_path, capsys, policy, digest):
    # 9000 requests: each result vector spans three of the writer's slices
    assert 9000 > 2 * cli._INT_SLICE + 1
    trace = _seeded_trace(tmp_path / "t.txt", 2024, 40, 9000)
    argv = ["simulate", trace, "-n", "40", "-k", "6", "-Z", "9", "--policy", policy]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_envelope_params_schema(capsys):
    code, report = run_cli(capsys, "check", "--suite", "latency", "--cases", "5")
    assert code == 0
    assert set(report["params"]) == {"n", "k", "Z", "mode", "policy", "seed"}
    assert report["version"]


def _off_by_one_when_length_divides_by_3(real):
    def faulty(sequence, delay, bits):
        total, per = real(sequence, delay, bits)
        return total + (len(sequence) % 3 == 0), per
    return faulty


def _penalize_two_mod_four_hits(real):
    # from 0 mod 4 hits one flip cannot reach the penalty but the pair
    # check's several flips can, so both kinds of witness occur
    def faulty(sequence, delay, bits):
        total, per = real(sequence, delay, bits)
        return total + 1000 * (sum(bits) % 4 == 2), per
    return faulty


def _reject_delay_two(real):
    def faulty(sequence, policy, params):
        report = real(sequence, policy, params)
        if params.delay == 2:
            raise VerificationError("injected fault at Z=2")
        return report
    return faulty


_FAILURE_KEYS = {
    "latency": {"case", "mode", "sequence", "params", "policy", "simulated",
                "closed_form"},
    "flip": {"case", "sequence", "bits", "params", "base", "flip_pos", "flipped"},
    "pair": {"case", "sequence", "bits", "params", "base", "pair", "upper"},
    "reduction": {"case", "sequence", "params", "policy", "violation"},
}


@pytest.mark.parametrize(
    "suite,target,fault,cases,seed,failures,first_case,keys",
    [
        ("latency", "delayed_hits_latency", _off_by_one_when_length_divides_by_3,
         60, 23, 18, 10, "latency"),
        ("antimono", "antimonotone_latency", _penalize_two_mod_four_hits,
         80, 4, 20, 16, "flip"),
        ("antimono", "antimonotone_latency", _penalize_two_mod_four_hits,
         80, 30, 27, 2, "pair"),
        ("reduction", "verify_domination", _reject_delay_two,
         40, 10, 7, 7, "reduction"),
    ],
    ids=["latency", "antimono-flip", "antimono-pair", "reduction"],
)
def test_check_failing_sweep_reports_first_failure(
    capsys, monkeypatch, suite, target, fault, cases, seed, failures, first_case, keys
):
    monkeypatch.setattr(cli, target, fault(getattr(cli, target)))
    code, report = run_cli(
        capsys, "check", "--suite", suite, "--cases", str(cases), "--seed", str(seed)
    )
    results = report["results"]
    assert code == 1
    assert results["failures"] == failures
    assert results["passed"] == cases - failures
    assert results["first_failure"]["case"] == first_case
    assert set(results["first_failure"]) == _FAILURE_KEYS[keys]


def _raising(exc):
    def explode(*args, **kwargs):
        raise exc
    return lambda real: explode


def _wrong_optimum(real):
    def wrong(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(min_latency=result.min_latency + 1)
    return wrong


@pytest.mark.parametrize(
    "argv,target,patch,code,message",
    [
        (["simulate", "/no/such/file"], None, None, 2, "cannot read trace"),
        (["check", "--cases", "0"], None, None, 2, "--cases must be positive"),
        (["simulate", "TRACE", "-n", "3"], None, None, 2,
         "request at t=2 is 49, outside 0..3"),
        (["simulate", "TRACE"], "simulate",
         _raising(InfeasibleEvictionError(5, 2)), 3, "t=5"),
        (["simulate", "TRACE"], "simulate",
         _raising(policies.SearchBudgetExceeded("too large")), 4, "too large"),
        (["adversary", "--oracle-check"], "brute_force_opt", _wrong_optimum, 1,
         "exhaustive optimum 5 != witnessed optimum 4"),
        (["check", "--cases", "1", "--out", "NODIR/x.json"], None, None, 2,
         "cannot write report"),
        (["counterexample", "-Z", "6", "--trace-out", "NODIR/t.txt"], None, None, 2,
         "cannot write trace"),
        # a static target that is empty or outside 1..n can never be cached
        (["simulate", "TRACE", "-n", "60", "--policy", "static", "--static-items", "61"],
         None, None, 2, "--static-items must name items in 1..60, got '61'"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", "1,50"],
         None, None, 2, "--static-items must name items in 1..49, got '1,50'"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", ","],
         None, None, 2, "--static-items must name items in 1..49, got ','"),
        (["reduce", "TRACE", "--policy", "static", "--static-items", ""],
         None, None, 2, "--static-items must name items in 1..49, got ''"),
        (["adversary", "--policy", "static", "-k", "2", "-Z", "3", "--static-items", "7"],
         None, None, 2, "--static-items must name items in 1..3, got '7'"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", "1,x"],
         None, None, 2, "expected comma-separated integers, got '1,x'"),
        # a target set for another policy would be ignored
        (["simulate", "TRACE", "--policy", "lru", "--static-items", "x,y"],
         None, None, 2, "--static-items needs --policy static, got --policy lru"),
        (["adversary", "--policy", "fifo", "-k", "2", "-Z", "3", "--static-items", "99"],
         None, None, 2, "--static-items needs --policy static, got --policy fifo"),
    ],
    ids=["trace", "value", "universe", "infeasible", "budget", "verification",
         "out", "trace-out", "static-above-n", "static-above-inferred-n", "static-empty",
         "static-empty-string", "static-adversary", "static-not-integers",
         "static-items-without-static", "static-items-adversary-fifo"],
)
def test_main_maps_each_error_to_its_exit_code(
    tmp_path, capsys, monkeypatch, argv, target, patch, code, message
):
    trace = write_lines(tmp_path / "t.txt", [1, 49, 2])
    if target is not None:
        monkeypatch.setattr(cli, target, patch(getattr(cli, target)))
    argv = [trace if arg == "TRACE" else arg for arg in argv]
    nodir = str(tmp_path / "no-such-dir")
    assert main([arg.replace("NODIR", nodir) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


# one instance of each exception class that reaches main, as source text
# that builds it among cli's names, here and in the subprocess probe below
_EXIT_EXAMPLES = {
    "TraceError('unreadable trace')": 2,
    "ValueError('bad value')": 2,
    "InfeasibleEvictionError(5, 2)": 3,
    "InfeasibleEvictionError(7, 1, 'no insertion opportunity')": 3,
    "SearchBudgetExceeded('too large')": 4,
    "VerificationError('injected fault')": 1,
}


def test_exit_code_exceptions_survive_pickling():
    # a check worker sends what it raises to the parent through pickle
    examples = [eval(text, vars(cli)) for text in _EXIT_EXAMPLES]
    assert {type(exc) for exc in examples} == set(cli._EXIT_CODES)
    budget = policies.SearchBudgetExceeded("overrun")
    budget.report = {"partial": True}
    for exc in [*examples, budget]:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        assert vars(copy) == vars(exc)


@pytest.mark.parametrize("text,code", _EXIT_EXAMPLES.items(), ids=list(_EXIT_EXAMPLES))
def test_a_check_raising_in_a_worker_reaches_main(text, code):
    """An exception from a pooled check gives main's exit code and error
    line, and leaves no worker behind. It runs in a subprocess with a
    timeout, so that a pool that never returns fails the test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import multiprocessing\n"
        "from delayedhits import cli\n"
        f"exc = eval({text!r}, vars(cli))\n"
        "def explode(*args):\n"
        "    raise exc\n"
        "cli.simulate = explode\n"
        "cli._usable_cpus = lambda: 2\n"
        "code = cli.main(['check', '--suite', 'latency', '--cases', '300'])\n"
        "assert not multiprocessing.active_children()\n"
        "sys.exit(code)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # its workers too
            raise
    expected = eval(text, vars(cli))
    assert (child.returncode, out, err) == (code, "", f"error: {expected}\n")


# the layer each suite's check calls, patched to see where checks run
_CHECKED_CALL = {
    "latency": "simulate",
    "antimono": "antimonotone_latency",
    "reduction": "verify_domination",
}


def _sweep(capsys, monkeypatch, cpus, argv):
    """(exit code, report, hash of the drawn cases, calls the checks made
    in this process) of one check run with ``cpus`` usable CPUs."""
    suite = argv[argv.index("--suite") + 1]
    draw, check = cli._SUITES[suite]
    drawn = hashlib.sha256()
    here = []

    def recorded_draw(rng, idle_prob):
        case = draw(rng, idle_prob)
        drawn.update(pickle.dumps(case, protocol=4))
        return case

    def recorded_call(real):
        def call(*args):
            here.append(1)
            return real(*args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        patch.setattr(cli, "_SUITES", {**cli._SUITES, suite: (recorded_draw, check)})
        name = _CHECKED_CALL[suite]
        patch.setattr(cli, name, recorded_call(getattr(cli, name)))
        code = main(argv)
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().out, drawn.hexdigest(), len(here)


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
@pytest.mark.parametrize("cases", [3 * cli._CHECK_CHUNK + 5, cli._CHECK_CHUNK - 1])
def test_pooled_sweep_equals_in_process_sweep(capsys, monkeypatch, suite, cases):
    argv = ["check", "--suite", suite, "--cases", str(cases), "--seed", "11"]
    pooled = _sweep(capsys, monkeypatch, 2, argv)
    alone = _sweep(capsys, monkeypatch, 1, argv)
    assert pooled[:3] == alone[:3] and pooled[0] == 0
    # more than one chunk goes to the workers; one chunk stays in-process
    assert alone[3] > 0
    assert (pooled[3] == 0) == (cases > cli._CHECK_CHUNK)


@pytest.mark.parametrize(
    "suite,target,fault,cases,seed",
    [
        ("latency", "delayed_hits_latency", _off_by_one_when_length_divides_by_3, 60, 23),
        ("antimono", "antimonotone_latency", _penalize_two_mod_four_hits, 80, 4),
        ("antimono", "antimonotone_latency", _penalize_two_mod_four_hits, 80, 30),
        ("reduction", "verify_domination", _reject_delay_two, 40, 10),
    ],
    ids=["latency", "antimono-flip", "antimono-pair", "reduction"],
)
def test_pooled_failing_sweep_equals_in_process_sweep(
    capsys, monkeypatch, suite, target, fault, cases, seed
):
    # a small chunk sends even these short sweeps to the pool
    monkeypatch.setattr(cli, "_CHECK_CHUNK", 16)
    monkeypatch.setattr(cli, target, fault(getattr(cli, target)))
    argv = ["check", "--suite", suite, "--cases", str(cases), "--seed", str(seed)]
    pooled = _sweep(capsys, monkeypatch, 2, argv)
    alone = _sweep(capsys, monkeypatch, 1, argv)
    assert pooled[:3] == alone[:3] and pooled[0] == 1
    assert pooled[3] == 0 and alone[3] > 0
    first = json.loads(alone[1])["results"]["first_failure"]
    assert first is not None and json.loads(pooled[1])["results"]["first_failure"] == first


@pytest.mark.parametrize("count,usable", [(3, 3), (None, 1)])
def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch, count, usable):
    # without an affinity call every CPU counts, and one when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == usable


def test_sweep_runs_in_process_while_another_thread_runs(capsys, monkeypatch):
    # a forked child would inherit the locks the other thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        argv = ["check", "--suite", "reduction", "--cases", "200", "--seed", "3"]
        code, out, drawn, here = _sweep(capsys, monkeypatch, 2, argv)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert code == 0 and here > 0
    assert (out, drawn) == _sweep(capsys, monkeypatch, 1, argv)[1:3]
