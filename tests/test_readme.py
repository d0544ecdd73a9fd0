"""README's examples run as written: each command line of its command
block exits 0, and the library block gives the values its comments state."""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from delayedhits.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [
    line.split()[1:]
    for lang, body in BLOCKS if lang == "sh"
    for line in body.splitlines() if line.startswith("delayedhits ")
]


def test_readme_shows_every_command():
    assert len(COMMANDS) == 8
    assert {argv[0] for argv in COMMANDS} == {
        "simulate", "adversary", "counterexample", "reduce", "check"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, argv):
    # run where the examples' relative paths, trace.txt among them, resolve
    monkeypatch.chdir(tmp_path)
    rng = random.Random(1)
    items = [0 if rng.random() < 0.25 else rng.randint(1, 5) for _ in range(200)]
    Path("trace.txt").write_text("".join(f"{item}\n" for item in items))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_library_block_gives_its_commented_values():
    """Each bare expression whose comment opens with a value evaluates to it."""
    [code] = [body for lang, body in BLOCKS if lang == "python"]
    lines = code.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2]
        expected = re.match(r"\s*(\[[^\]]*\]|Fraction\(\d+, \d+\)|\d+)", comment).group(1)
        assert eval(source, namespace) == eval(expected, {"Fraction": Fraction})
        checked.append(expected)
    assert checked == ["[3, 2, 1]", "Fraction(5, 1)", "3", "6"]
