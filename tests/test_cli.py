"""End-to-end command-line behavior: envelopes, exit codes, round trips."""

import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from delayedhits import (
    InfeasibleEvictionError,
    ReductionPolicy,
    SearchBudgetExceeded,
    VerificationError,
    cli,
    latency,
    policies,
    reduction,
    search,
)
from delayedhits.cli import main
from delayedhits.traces import random_sequence, read_trace, write_trace

from conftest import search_names

SRC = str(Path(cli.__file__).resolve().parents[1])


def parse_report(out):
    """The report that stdout ``out`` holds, or None if it is empty."""
    if not out:
        return None
    report = json.loads(out)
    # the report format is json.dumps(indent=2, sort_keys=True), byte for byte
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return report


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, parse_report(capsys.readouterr().out)


def run_in_own_session(argv, timeout):
    """(exit code, stdout, stderr) of ``argv`` run with the package on its
    path in a session of its own, so that a run that overruns ``timeout``
    is killed together with every worker it forked."""
    with subprocess.Popen(
        argv, env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            raise
    return child.returncode, out, err


def write_lines(path, items):
    write_trace(path, items)
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


def test_static_items_parsing(tmp_path, capsys):
    trace = write_lines(tmp_path / "t.txt", [3, 0, 0, 3])
    code, report = run_cli(
        capsys, "simulate", trace, "-k", "2", "-Z", "2",
        "--policy", "static", "--static-items", "1,3",
    )
    assert code == 0
    assert report["results"]["total_latency"] == 2


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


def test_counterexample_report(capsys):
    code, report = run_cli(capsys, "counterexample", "-Z", "6", "--oracle-check")
    assert code == 0
    results = report["results"]
    assert results["gap"] == 3
    assert results["baseline_latency"] == 24
    assert results["extra_hit_latency"] == 27
    assert results["opt_latency"] == 24 and results["opt_unique"]
    assert "search_error" not in results


def test_counterexample_overrun_names_the_optimum_search_that_overran(capsys, calls):
    # the first-deviation search, cut to 16 nodes alone, overruns while
    # every later search fits and the optimum search finds the baseline's
    # latency; only the uniqueness step is left open
    def own_budget(arguments):
        if arguments["avoid"] is not None:
            arguments["node_budget"] = 16

    searches = calls(search, "_search", edit=own_budget)
    code, report = run_cli(
        capsys, "counterexample", "-Z", "26", "-k", "7", "--oracle-check",
        "--search-budget", "40",
    )
    assert search_names(searches) == ["avoid", "target", "target", "ge"]
    assert code == 4
    results = report["results"]
    assert results["baseline_witness"] and results["extra_hit_witness"]
    assert results["opt_latency"] == 169
    assert results["opt_unique"] is None
    assert results["search_error"] == (
        "unique-optimum search: instance too large: more than 16 decision nodes"
    )


# argparse exits 2 on a missing or unknown command or argument, an
# unknown choice or a mistyped value, and on a flag that the command would
# ignore: the counterexample fixes n = k + 2 and its own policy, check
# draws its cases' k, and only simulate and check take --model
@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["simulate"], "the following arguments are required: trace"),
        (["simulate", "t", "extra"], "unrecognized arguments: extra"),
        (["simulate", "t", "--policy", "nope"], "argument --policy: invalid choice: 'nope'"),
        (["simulate", "t", "--model", "nope"], "argument --model: invalid choice: 'nope'"),
        (["adversary", "--model", "antimonotone"], "unrecognized arguments: --model antimonotone"),
        (["adversary", "-k", "x"], "argument -k: invalid int value: 'x'"),
        (["counterexample", "-n", "999"], "unrecognized arguments: -n 999"),
        (["counterexample", "--policy", "lru"], "unrecognized arguments: --policy lru"),
        (["reduce", "t", "--model", "standard"], "unrecognized arguments: --model standard"),
        (["check", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["check", "-k", "3"], "unrecognized arguments: -k 3"),
        (["check", "--idle-prob", "x"], "argument --idle-prob: invalid float value: 'x'"),
    ],
    ids=["no-command", "unknown-command", "simulate-no-trace", "simulate-extra",
         "simulate-policy", "simulate-model", "adversary-model", "adversary-k-not-int",
         "counterexample-n", "counterexample-policy", "reduce-model", "check-suite",
         "check-k", "check-idle-prob-not-float"],
)
def test_the_parser_rejects_what_no_command_reads(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    prog, _, text = err.splitlines()[-1].partition(": error: ")
    assert prog.split()[0] == "delayedhits" and text.startswith(message)


def test_counterexample_trace_roundtrip(tmp_path, capsys):
    out = tmp_path / "hit_hurts.txt"
    code, report = run_cli(
        capsys, "counterexample", "-Z", "5", "--trace-out", str(out)
    )
    assert code == 0
    assert read_trace(out) == report["results"]["sequence"]


def test_reduce_reports_a_failed_domination(tmp_path, capsys, monkeypatch):
    trace = write_lines(tmp_path / "t.txt", [0, 1, 3, 5, 2, 0, 2])
    monkeypatch.setattr(reduction, "verify_domination",
                        _reject_delay_two(reduction.verify_domination))
    code, report = run_cli(capsys, "reduce", trace, "-k", "1", "-Z", "2")
    assert code == 1
    assert report["results"] == {"dominates": False, "violation": "injected fault at Z=2"}


def test_reduction_sweep_reaches_the_wrappers_rule(capsys, monkeypatch, calls):
    """A case whose universe fits in the wrapper's k + delay slots never
    asks the wrapper for a victim; the sweep draws n above that, so most
    cases exercise the rule it checks."""
    decisions = calls(ReductionPolicy, "choose_eviction")
    # in-process, so the wrappers are counted here and not in pool workers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    code, report = run_cli(
        capsys, "check", "--suite", "reduction", "--cases", "400", "--seed", "1"
    )
    assert code == 0 and report["results"]["passed"] == 400
    # one wrapper per case
    assert len({call["self"] for call in decisions}) >= 300


# sha256 of the first 200 cases each suite's check draws at seed 1, at its
# default idle probability 0.25, as _sweep hashes them
CHECK_DRAWS = {
    "antimono": "4e1b27262acc743345f72fd7ce1a6922a03e693b5f7dbefb4618ab73deb217f5",
    "latency": "667097d503d073e83528ff8a3ca4f6fcde8f3ba4db7f254967c9faa593416516",
    "reduction": "5937d1e61e02ccb51531de7f9bef74f794e23459c732a360a28dbafaebc987e0",
}


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_check_draws_the_pinned_cases(capsys, monkeypatch, calls, suite):
    # a passing report holds only counts, so no report pin sees the cases
    argv = ["check", "--suite", suite, "--cases", "200", "--seed", "1"]
    code, _, drawn, _ = _sweep(capsys, monkeypatch, calls, 1, argv)
    assert code == 0 and drawn == CHECK_DRAWS[suite]


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_each_suite_runs_clean_in_dev_mode(suite):
    """A sweep spreads its cases over a fork pool after loading the module
    its suite checks; a warning about forking a threaded process (3.12+)
    or an unclosed pool pipe fails the run under -W error or shows on
    stderr."""
    code, out, err = run_in_own_session(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "delayedhits.cli", "check",
         "--suite", suite, "--cases", "2000", "--seed", "1"], timeout=120,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["passed"] == 2000


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """The parser is built on the first call only; later calls reuse it and
    give the bytes a fresh parser gives, with no option carried over."""
    trace = write_lines(tmp_path / "t.txt", random_sequence(random.Random(5), 6, 60))
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


def test_reader_closing_the_pipe_early_is_not_an_error(tmp_path):
    # a report of several MB overfills the pipe, so the reader's close
    # lands while the CLI is still writing
    trace = write_lines(tmp_path / "big.txt", random_sequence(random.Random(5), 50, 200_000))
    with subprocess.Popen(
        [sys.executable, "-m", "delayedhits.cli", "simulate", trace, "-k", "5", "-Z", "4"],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait() == 0
        assert stderr == b""


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


# the counterexample at (26, 7); its whole certificate, and its report
# cut at the baseline feasibility search, with or without --oracle-check
_26_7 = ["counterexample", "-Z", "26", "-k", "7"]
_WHOLE_26_7 = "cdd5f4cc34580e29a8d848b2277028d5c18855b379fc328847acdbea1d4d8cd7"
_FEASIBILITY_CUT_26_7 = "1a8894a65c1aa6140d7c9bb743fbaa77d5f29d4430143afa7a6e82f2431ba2c8"


@pytest.fixture(scope="module")
def pinned_traces(tmp_path_factory):
    """The traces the report pins read, written once: TRACE is 2000 seeded
    requests over 40 items and LONG 9000 of them; MILLION is 10^6 seeded
    requests over 1000 items, a trace that must keep its bytes too, and
    PREFIX its first 10^5."""
    folder = tmp_path_factory.mktemp("pinned")
    million = random_sequence(random.Random(1), 1000, 10**6)
    sequences = {
        "TRACE": random_sequence(random.Random(2024), 40, 2000),
        "LONG": random_sequence(random.Random(2024), 40, 9000),
        "MILLION": million,
        "PREFIX": million[:10**5],
    }
    paths = {name: write_lines(folder / f"{name}.txt", sequence)
             for name, sequence in sequences.items()}
    assert hashlib.sha256(Path(paths["MILLION"]).read_bytes()).hexdigest() == (
        "0468141b4a9790f7b727f6d0a815aeb93e2e11fad41b46a35c0976d5b8689607")
    return paths


# sha256 of the full stdout of each command, pinned from the json.dumps
# writer; any change to a report's bytes, format or content, shows here.
# Every Python the project supports must give the same bytes
@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru"], 0,
         "25a57e1d70848bde43055a00781ba790f218319ac8e96c0e638c4a10429dd34c"),
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "fifo"], 0,
         "485aa43295f414d82289c5b78b3c04867d94efd98fbf4cf808f0813efd7096d3"),
        (["counterexample", "-Z", "8", "-k", "2", "--oracle-check"], 0,
         "7002c34339862955279e918539336d2a658e26629f148bedcf4066fe6122bb44"),
        (["adversary", "--policy", "lru", "-k", "3", "-Z", "5", "--oracle-check"], 0,
         "27ebfb819c3e93cf48ca3f3f68aea7c429821642fdbbb753ff929bef46dd97af"),
        (["check", "--suite", "antimono", "--cases", "50"], 0,
         "5c7372bbd3863f852089df9330dee967fad6cb99079552c69d9fc1ce90f3347e"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru"], 0,
         "dc5f41231ec341c29c98e5a6cd1bcc064dfc3152bb907d700c0da812ba38382f"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "fifo"], 0,
         "9f06bb59cdefddc4dd761dff1f09aabbd7fb2ba214d5f68b9d730400710dfcb0"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "belady"], 0,
         "d8420102447709a0c8ae574981505414017219f4312c3d85a28480e5d66bbb45"),
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru",
          "--model", "antimonotone"], 0,
         "2656a917a7c1ac18ba7ab64b589245da91b27f83da26a4936d3039676e02c5e5"),
        # a universe above k + 1, so the adversary has an item it never requests
        (["adversary", "--policy", "fifo", "-n", "6", "-k", "3", "-Z", "5", "--oracle-check"], 0,
         "67e1bef1c4129fa7d8feb990059841be5f25311f81e1de3436655a6090a6c1da"),
        # the static target defaults to the initial cache
        (["simulate", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "static"], 0,
         "c2ac145ac558f3946ad9ec9f465e1bfc3aced1735d49f97789185195eddfee99"),
        (["reduce", "TRACE", "-n", "40", "-k", "6", "-Z", "9", "--policy", "static"], 0,
         "130856953068c7a2e87808d4c0035e2aea862078cff1c6bb78140925f446f50c"),
        (["adversary", "--policy", "static", "-k", "3", "-Z", "5", "--oracle-check"], 0,
         "d68936f3bbdfcdb9e8d04d1b019b3f63d9ef09839eb65a4ff480311f94ea765f"),
        (["simulate", "LONG", "-n", "40", "-k", "6", "-Z", "9", "--policy", "lru"], 0,
         "1f5e5120d4d71c6259a240c53674f14d191c6635dd0f21d6177f6c291b4b3b56"),
        (["simulate", "LONG", "-n", "40", "-k", "6", "-Z", "9", "--policy", "fifo"], 0,
         "a832670b3ad9bbcde759259c5008a4f0e12bad8488c33cf4d679dfd61437db28"),
        # the certificate at (26, 7) whole, cut at each of its two overrun
        # steps and whole again once the budget fits its searches, and a
        # larger one; the verifier's search order must keep them all
        ([*_26_7, "--oracle-check"], 0, _WHOLE_26_7),
        ([*_26_7, "--oracle-check", "--search-budget", "5"], 4, _FEASIBILITY_CUT_26_7),
        ([*_26_7, "--search-budget", "5"], 4, _FEASIBILITY_CUT_26_7),
        ([*_26_7, "--oracle-check", "--search-budget", "15"], 4,
         "cef25507e5ca681b20c725fe47258081efecfbba64cd2770e294155a6b6bea9e"),
        ([*_26_7, "--oracle-check", "--search-budget", "16"], 4,
         "cd0b02fa062707cda4b81fa416326a63cbbf6556cba00e41624c7d53bded4234"),
        ([*_26_7, "--oracle-check", "--search-budget", "17"], 0, _WHOLE_26_7),
        ([*_26_7, "--oracle-check", "--search-budget", "30"], 0, _WHOLE_26_7),
        ([*_26_7, "--oracle-check", "--search-budget", "40"], 0, _WHOLE_26_7),
        (["counterexample", "-Z", "60", "-k", "20", "--oracle-check"], 0,
         "d349ff107f195ed69cafdda27d7bd13cb3012dd383ebf7544bd4e95f31c91ca6"),
        # the certificate at scale: T = 16 960, whatever order the verifier's
        # searches run in
        (["counterexample", "-Z", "160", "-k", "52", "--oracle-check"], 0,
         "f4263fd68cc68bd14105cf5a060db81c43df8ecc8dbdde8c38dd270b9d7f7577"),
        # T = 67 200
        (["counterexample", "-Z", "320", "-k", "104", "--oracle-check"], 0,
         "096d88682968514afffb3d94f7382ddca8a00cf58c46073b2c7d7785e28929e7"),
        # T = 267 520, the largest the README documents, about 58 MB peak RSS
        # from the command line: the first-deviation search keeps in its
        # table only the choices it takes
        (["counterexample", "-Z", "640", "-k", "208", "--oracle-check"], 0,
         "a81f9727aa7cad0a7e82a7cbe71ce269c3b0b47c535777502bc2cb2fab49dc53"),
        # the k = 1 rungs: the two bounded feasibility searches hold up to
        # Z/2 fetches in flight but key on (t, cache) alone, since their
        # runs follow their targets and the fixed delay Z fixes the fetches
        (["counterexample", "-Z", "3000", "-k", "1"], 0,
         "b16c451f78c279183d675d75216d7242f417718efb4b23fce2b7c55255d2a092"),
        (["counterexample", "-Z", "10000", "-k", "1"], 0,
         "ab3793d3ae823d7bf072edfa37a8eba4b3f7ea67ca4aee29d166ce05a8094a4a"),
        (["counterexample", "-Z", "30000", "-k", "1"], 0,
         "97d4e4937633e19d1b59dec6051f3076c5df92b6eceb213261e4cec984c3f077"),
        # simulate at the scale the README names, 10^6 requests
        (["simulate", "MILLION", "--policy", "lru", "-n", "1000", "-k", "100", "-Z", "20"],
         0, "519abe1b245f8bbbc3d516c8be3c471a3e41c24629956b30900dec611ec9cbea"),
        # the k+Z wrapper's evictions at scale, on 10^5 requests
        (["reduce", "PREFIX", "--policy", "lru", "-n", "1000", "-k", "100", "-Z", "20"],
         0, "82ba07fd131d72e6ae73a009a1eb8c8b6bee8b3cf36194baae10cbcfd67251cc"),
    ],
    ids=["simulate-lru", "simulate-fifo", "counterexample", "adversary", "check",
         "reduce-lru", "reduce-fifo", "reduce-belady", "simulate-antimonotone",
         "adversary-wide-universe", "simulate-static", "reduce-static",
         "adversary-static", "simulate-lru-long", "simulate-fifo-long",
         "26-7", "26-7-budget-5", "26-7-budget-5-feasibility", "26-7-budget-15",
         "26-7-budget-16", "26-7-budget-17", "26-7-budget-30", "26-7-budget-40", "60-20",
         "160-52", "320-104", "640-208", "3000-1", "10000-1", "30000-1",
         "simulate-lru-million", "reduce-lru-prefix"],
)
def test_report_bytes_are_pinned(pinned_traces, capsys, argv, code, digest):
    # LONG's result vectors span three of the writer's slices
    assert 9000 > 2 * cli._INT_SLICE + 1
    assert main([pinned_traces.get(arg, arg) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _raising(exc):
    def explode(*args, **kwargs):
        raise exc
    return lambda real: explode


def _wrong_optimum(real):
    def wrong(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(min_latency=result.min_latency + 1)
    return wrong


# each error's exact line; TRACE is a trace with a request for item 49,
# BYTES a file that is not UTF-8, WORD and NEGATIVE traces whose second
# line is a word or a negative request, and NODIR a directory that does
# not exist
@pytest.mark.parametrize(
    "argv,patch,code,message",
    [
        (["simulate", "/no/such/file"], None, 2, "cannot read trace /no/such/file: "
         "[Errno 2] No such file or directory: '/no/such/file'"),
        (["simulate", "BYTES"], None, 2, "cannot read trace BYTES: "
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # a sweep of no cases, or of idle slots only, would pass vacuously
        (["check", "--cases", "0"], None, 2, "--cases must be positive, got 0"),
        (["check", "--cases", "-3"], None, 2, "--cases must be positive, got -3"),
        (["check", "--idle-prob", "2"], None, 2, "--idle-prob must be in [0, 1), got 2.0"),
        (["check", "--idle-prob", "1"], None, 2, "--idle-prob must be in [0, 1), got 1.0"),
        (["check", "--idle-prob", "-0.1"], None, 2,
         "--idle-prob must be in [0, 1), got -0.1"),
        (["check", "--idle-prob", "nan"], None, 2, "--idle-prob must be in [0, 1), got nan"),
        (["simulate", "WORD"], None, 2, "line 2: 'x' is not an integer"),
        (["reduce", "NEGATIVE"], None, 2, "line 2: requests must be nonnegative"),
        (["simulate", "TRACE", "-n", "3"], None, 2, "request at t=2 is 49, outside 0..3"),
        # shipped policies never propose infeasible evictions, so force one
        (["simulate", "TRACE"], (cli, "simulate", _raising(InfeasibleEvictionError(5, 2))), 3,
         "infeasible eviction of item 2 at t=5: item not resident"),
        (["simulate", "TRACE"],
         (cli, "simulate", _raising(SearchBudgetExceeded("too large"))), 4, "too large"),
        # an instance too large to build; a bare MemoryError has no message
        (["simulate", "TRACE"], (cli, "simulate", _raising(MemoryError())), 2, "MemoryError"),
        (["counterexample", "-Z", "10000000000000000000"], None, 2,
         "cannot fit 'int' into an index-sized integer"),
        (["adversary", "--oracle-check"], (search, "brute_force_opt", _wrong_optimum), 1,
         "exhaustive optimum 5 != witnessed optimum 4"),
        (["check", "--cases", "1", "--out", "NODIR/x.json"], None, 2,
         "cannot write report NODIR/x.json: [Errno 2] No such file or directory: "
         "'NODIR/x.json'"),
        (["counterexample", "-Z", "6", "--trace-out", "NODIR/t.txt"], None, 2,
         "cannot write trace NODIR/t.txt: [Errno 2] No such file or directory: "
         "'NODIR/t.txt'"),
        # a trace with no burst proves nothing; a negative budget is meaningless
        (["adversary", "--cap", "0"], None, 2, "cap must be at least 1 bursty segment, got 0"),
        (["adversary", "--cap", "-3"], None, 2,
         "cap must be at least 1 bursty segment, got -3"),
        (["adversary", "--oracle-check", "--search-budget", "-1"], None, 2,
         "--search-budget must be >= 0, got -1"),
        (["counterexample", "-Z", "6", "--oracle-check", "--search-budget", "-1"], None, 2,
         "--search-budget must be >= 0, got -1"),
        (["counterexample", "-Z", "4"], None, 2,
         "the construction needs delay >= 5 to have a positive gap"),
        # the construction has no trace to give belady before it builds one
        (["adversary", "--policy", "belady"], None, 2,
         "belady is offline and needs the full trace"),
        (["adversary", "-n", "3", "-k", "3"], None, 2,
         "adversary needs at least k+1 items in the universe"),
        (["counterexample", "-Z", "6", "-k", "0"], None, 2, "cache_size must be >= 1"),
        # a static target that is empty or outside 1..n can never be cached;
        # the policy checks it when the run starts
        (["simulate", "TRACE", "-n", "60", "--policy", "static", "--static-items", "61"],
         None, 2, "static target must name items in 1..60, got [61]"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", "1,50"],
         None, 2, "static target must name items in 1..49, got [1, 50]"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", ","],
         None, 2, "static target must name items in 1..49, got []"),
        (["reduce", "TRACE", "--policy", "static", "--static-items", ""],
         None, 2, "static target must name items in 1..49, got []"),
        (["adversary", "--policy", "static", "-k", "2", "-Z", "3", "--static-items", "7"],
         None, 2, "static target must name items in 1..3, got [7]"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", "0"],
         None, 2, "static target must name items in 1..49, got [0]"),
        (["reduce", "TRACE", "--policy", "static", "--static-items", "-1"],
         None, 2, "static target must name items in 1..49, got [-1]"),
        (["simulate", "TRACE", "--policy", "static", "--static-items", "1,x"],
         None, 2, "expected comma-separated integers, got '1,x'"),
        # a target set for another policy would be ignored
        (["simulate", "TRACE", "--policy", "lru", "--static-items", "x,y"],
         None, 2, "--static-items needs --policy static, got --policy lru"),
        (["adversary", "--policy", "fifo", "-k", "2", "-Z", "3", "--static-items", "99"],
         None, 2, "--static-items needs --policy static, got --policy fifo"),
    ],
    ids=["trace", "trace-undecodable", "value", "cases-negative", "idle-prob-2",
         "idle-prob-1", "idle-prob-negative", "idle-prob-nan", "trace-not-integer",
         "trace-negative", "universe", "infeasible", "budget", "memory", "overflow",
         "verification", "out",
         "trace-out", "cap-0", "cap-negative", "search-budget-adversary",
         "search-budget-counterexample", "small-delay", "offline-adversary",
         "adversary-small-universe", "counterexample-k-0", "static-above-n",
         "static-above-inferred-n", "static-empty", "static-empty-string",
         "static-adversary", "static-zero", "static-negative", "static-not-integers",
         "static-items-without-static", "static-items-adversary-fifo"],
)
def test_main_maps_each_error_to_its_exit_code(
    tmp_path, capsys, monkeypatch, argv, patch, code, message
):
    names = {"TRACE": write_lines(tmp_path / "t.txt", [1, 49, 2]),
             "NODIR": str(tmp_path / "no-such-dir")}
    for name, data in {"BYTES": b"\xff\n", "WORD": b"1\nx\n", "NEGATIVE": b"3\n-1\n"}.items():
        names[name] = str(tmp_path / f"{name.lower()}.txt")
        Path(names[name]).write_bytes(data)

    def named(text):
        for name, value in names.items():
            text = text.replace(name, value)
        return text

    if patch is not None:
        owner, target, fault = patch
        monkeypatch.setattr(owner, target, fault(getattr(owner, target)))
    assert main([named(arg) for arg in argv]) == code
    assert capsys.readouterr() == ("", f"error: {named(message)}\n")


# one instance of each exception class that reaches main, as source text
# that builds it among cli's names, here and in the subprocess probe below
_EXIT_EXAMPLES = {
    "TraceError('unreadable trace')": 2,
    "ValueError('bad value')": 2,
    "MemoryError('out of memory')": 2,
    "OverflowError('too large')": 2,
    "InfeasibleEvictionError(5, 2)": 3,
    "InfeasibleEvictionError(7, 1, 'no insertion opportunity')": 3,
    "SearchBudgetExceeded('too large')": 4,
    "VerificationError('injected fault')": 1,
}


def test_exit_code_exceptions_survive_pickling():
    # a check worker sends what it raises to the parent through pickle
    examples = [eval(text, vars(cli)) for text in _EXIT_EXAMPLES]
    assert {type(exc) for exc in examples} == set(cli._EXIT_CODES)
    budget = SearchBudgetExceeded("overrun")
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
    probe = (
        "import multiprocessing, sys\n"
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
    returned, out, err = run_in_own_session([sys.executable, "-c", probe], timeout=60)
    expected = eval(text, vars(cli))
    assert (returned, out, err) == (code, "", f"error: {expected}\n")


def test_a_raising_pooled_sweep_leaves_its_pool_with_no_task_in_flight(
    capsys, monkeypatch, calls
):
    # terminating workers while one may hold the result queue's lock can
    # leave the pool's teardown waiting on it for ever; the sweep drains
    # what it sent and closes the pool instead, and terminates nothing
    outstanding = []
    calls(multiprocessing.pool.Pool, "close",
          edit=lambda arguments: outstanding.append(len(arguments["self"]._cache)))
    terminated = calls(multiprocessing.pool.Pool, "terminate")

    def explode(*args):
        raise VerificationError("injected fault")

    monkeypatch.setattr(cli, "simulate", explode)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    code = main(["check", "--suite", "latency", "--cases", "300"])
    assert (code, *capsys.readouterr()) == (1, "", "error: injected fault\n")
    assert outstanding == [0] and terminated == []
    assert multiprocessing.active_children() == []


def test_an_interrupted_pooled_sweep_terminates_its_pool(monkeypatch, calls):
    # the interrupt comes after the last result is read, so no worker is
    # sending one while the pool terminates
    terminated = calls(multiprocessing.pool.Pool, "terminate")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    draw, check, _ = cli._SUITES["latency"]
    rng = random.Random(1)
    count = 3 * cli._CHECK_CHUNK
    sweep = cli._checked(check, (draw(rng, 0.25) for _ in range(count)), count)
    for _ in range(count):
        next(sweep)
    with pytest.raises(KeyboardInterrupt):
        sweep.throw(KeyboardInterrupt)
    assert len(terminated) == 1
    assert multiprocessing.active_children() == []


# the layer each suite's check calls, and the module it reads the call
# from, patched to see where checks run
_CHECKED_CALL = {
    "latency": (cli, "simulate"),
    "antimono": (latency, "antimonotone_latency"),
    "reduction": (reduction, "verify_domination"),
}


def _drawn(case):
    """A drawn case as JSON bytes, a policy named by its name and what was
    drawn for it: its sorted static targets or its random seed."""
    return json.dumps([
        [value.name, sorted(getattr(value, "items", ())), getattr(value, "seed", None)]
        if isinstance(value, policies.Policy) else value
        for value in case
    ]).encode()


def _sweep(capsys, monkeypatch, calls, cpus, argv):
    """(exit code, report, hash of the drawn cases, calls the checks made
    in this process) of one check run with ``cpus`` usable CPUs."""
    suite = argv[argv.index("--suite") + 1]
    draw, check, module = cli._SUITES[suite]
    drawn = hashlib.sha256()

    def recorded_draw(rng, idle_prob):
        case = draw(rng, idle_prob)
        drawn.update(_drawn(case))
        return case

    checks = calls(*_CHECKED_CALL[suite])
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        patch.setattr(cli, "_SUITES", {**cli._SUITES, suite: (recorded_draw, check, module)})
        code = main(argv)
    assert multiprocessing.active_children() == []
    return code, parse_report(capsys.readouterr().out), drawn.hexdigest(), len(checks)


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
@pytest.mark.parametrize("cases", [3 * cli._CHECK_CHUNK + 5, cli._CHECK_CHUNK - 1])
def test_pooled_sweep_equals_in_process_sweep(capsys, monkeypatch, calls, suite, cases):
    argv = ["check", "--suite", suite, "--cases", str(cases), "--seed", "11"]
    pooled = _sweep(capsys, monkeypatch, calls, 2, argv)
    alone = _sweep(capsys, monkeypatch, calls, 1, argv)
    assert pooled[:3] == alone[:3] and pooled[0] == 0
    # more than one chunk goes to the workers; one chunk stays in-process
    assert alone[3] > 0
    assert (pooled[3] == 0) == (cases > cli._CHECK_CHUNK)


# the keys of each kind of first failure
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
        ("latency", (latency, "delayed_hits_latency"), _off_by_one_when_length_divides_by_3,
         60, 23, 18, 10, "latency"),
        ("antimono", (latency, "antimonotone_latency"), _penalize_two_mod_four_hits,
         80, 4, 20, 16, "flip"),
        ("antimono", (latency, "antimonotone_latency"), _penalize_two_mod_four_hits,
         80, 30, 27, 2, "pair"),
        ("reduction", (reduction, "verify_domination"), _reject_delay_two,
         40, 10, 7, 7, "reduction"),
    ],
    ids=["latency", "antimono-flip", "antimono-pair", "reduction"],
)
def test_check_failing_sweep_reports_first_failure(
    capsys, monkeypatch, calls, suite, target, fault, cases, seed, failures, first_case, keys
):
    # a small chunk sends even these short sweeps to the pool
    monkeypatch.setattr(cli, "_CHECK_CHUNK", 16)
    owner, name = target
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    argv = ["check", "--suite", suite, "--cases", str(cases), "--seed", str(seed)]
    pooled = _sweep(capsys, monkeypatch, calls, 2, argv)
    alone = _sweep(capsys, monkeypatch, calls, 1, argv)
    assert pooled[:3] == alone[:3] and pooled[0] == 1
    assert pooled[3] == 0 and alone[3] > 0
    results = alone[1]["results"]
    assert (results["failures"], results["passed"]) == (failures, cases - failures)
    assert results["first_failure"]["case"] == first_case
    assert set(results["first_failure"]) == _FAILURE_KEYS[keys]


@pytest.mark.parametrize("count,usable", [(3, 3), (None, 1)])
def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch, count, usable):
    # without an affinity call every CPU counts, and one when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == usable


def test_sweep_runs_in_process_while_another_thread_runs(capsys, monkeypatch, calls):
    # a forked child would inherit the locks the other thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        argv = ["check", "--suite", "reduction", "--cases", "200", "--seed", "3"]
        code, report, drawn, here = _sweep(capsys, monkeypatch, calls, 2, argv)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert code == 0 and here > 0
    assert (report, drawn) == _sweep(capsys, monkeypatch, calls, 1, argv)[1:3]
