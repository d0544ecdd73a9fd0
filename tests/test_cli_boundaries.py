"""Every command at the edges of every numeric flag.

Each flag takes 0, 1, n, n + 1 and, except the adversary's cache size,
a huge value. Every row must exit 0 with a report, or 2
with one ``error:`` line, never with a traceback; ``--search-budget`` may
also stop a search, exit 4 with a partial report. The traces are tiny, so
a run's tracemalloc peak must stay under a small cap whatever cache size,
delay or universe it is given: a structure sized by a parameter's value
fails here. The rows run in forks of one child process under an
address-space limit, so such a fault fails fast instead of exhausting the
machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delayedhits.traces import write_trace

resource = pytest.importorskip("resource")
if not hasattr(os, "fork"):
    pytest.skip("the rows run in forked children", allow_module_level=True)

SRC = str(Path(__file__).resolve().parents[1] / "src")

N = 3                    # the tiny trace's universe
TRACE = [1, 2, 3, 1]
BIG, HUGE = 10**12, 10**18
VALUES = (0, 1, N, N + 1)
PEAK_CAP = 2 << 20       # bytes of tracemalloc peak per run
ADDRESS_SPACE = 1 << 30  # bytes, for the child and every row it forks

# base argv -> {flag: (exit codes at 0, 1, n, n + 1[, huge]), huge value}
SWEEP = {
    ("simulate", "TRACE"): {"-n": ("22000", HUGE), "-k": ("20000", BIG),
                            "-Z": ("20000", BIG)},
    ("simulate", "TRACE", "--policy", "static"): {
        "-n": ("22000", HUGE), "-k": ("20000", BIG), "-Z": ("20000", BIG)},
    ("reduce", "TRACE"): {"-n": ("22000", HUGE), "-k": ("20000", BIG),
                          "-Z": ("20000", BIG)},
    ("reduce", "TRACE", "--policy", "static"): {
        "-n": ("22000", HUGE), "-k": ("20000", BIG), "-Z": ("20000", BIG)},
    # the adversary's and the counterexample's k and delay set their trace's
    # length, so a huge one is an instance too large to build: it fails on
    # its first allocation and exits 2. The adversary's k gets no huge
    # value, since its cache holds k items and overruns the peak cap first
    ("adversary", "--oracle-check"): {
        "-n": ("22000", HUGE), "-k": ("2000", None), "-Z": ("20002", BIG),
        "--cap": ("20000", BIG), "--search-budget": ("40000", BIG)},
    ("adversary", "--policy", "static", "--oracle-check"): {
        "-n": ("22000", HUGE), "-k": ("2000", None), "-Z": ("20002", BIG)},
    ("counterexample", "-Z", "6", "--oracle-check"): {
        "-k": ("20002", BIG), "-Z": ("22222", BIG), "--search-budget": ("44440", BIG)},
    ("check", "--cases", "4"): {
        "--cases": ("2000", None), "--seed": ("00000", HUGE),
        "--idle-prob": ("02222", BIG)},
}

ROWS = [
    (base, flag, value, int(code))
    for base, flags in SWEEP.items()
    for flag, (codes, huge) in flags.items()
    for value, code in zip((*VALUES, huge), codes)
]

# runs each row of stdin's JSON list in a fork of itself and prints one
# JSON line per row: its exit code, stdout, stderr and tracemalloc peak
_ROW_RUNNER = r"""
import io, json, os, sys, traceback, tracemalloc
from delayedhits import adversary, cli, counterexample
# imported and built once here, so that no row pays for them
cli._parser = cli.build_parser()
for argv in json.load(sys.stdin):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            sys.stderr.write(traceback.format_exc())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row = {"code": code, "out": sys.stdout.getvalue(),
               "err": sys.stderr.getvalue(), "peak": peak}
        with os.fdopen(write, "w") as pipe:
            json.dump(row, pipe)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        row = pipe.read()
    _, status = os.waitpid(pid, 0)
    print(row or json.dumps({"code": None, "err": f"row died: status {status}"}))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _argv(base, flag, value, trace):
    # argparse keeps an option's last value, so the flag overrides the base
    return [trace if arg == "TRACE" else arg for arg in base] + [flag, str(value)]


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    trace = tmp_path_factory.mktemp("sweep") / "t.txt"
    write_trace(trace, TRACE)
    rows = [_argv(base, flag, value, str(trace)) for base, flag, value, _ in ROWS]
    child = subprocess.run(
        [sys.executable, "-c", _ROW_RUNNER], input=json.dumps(rows),
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        preexec_fn=_limit_address_space, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert len(lines) == len(ROWS)
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize(
    "index", range(len(ROWS)),
    ids=[f"{'-'.join(base)}:{flag}={value}" for base, flag, value, _ in ROWS],
)
def test_flag_edge_exits_cleanly_in_bounded_memory(outcomes, index):
    base, flag, value, code = ROWS[index]
    row = outcomes[index]
    assert "Traceback" not in row["err"], row["err"]
    assert row["code"] == code, row["err"]
    if code == 2:
        assert row["out"] == ""
        [line] = row["err"].splitlines()
        assert line.startswith("error: ")
    else:
        assert row["err"] == ""
        assert json.loads(row["out"])["command"] == base[0]
    assert row["peak"] < PEAK_CAP
