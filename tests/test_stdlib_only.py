"""The core package imports nothing outside the standard library, and its
start-up skips the modules that only dataclasses would bring in, and
builds no argument parser. Start-up loads the model, the policies and
the trace I/O; each command loads the rest of what it runs when it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delayedhits

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "delayedhits").glob("*.py"))


def absolute_imports(path):
    """The top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_imports_only_the_standard_library(path):
    outside = set(absolute_imports(path)) - sys.stdlib_module_names
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_core_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


def _probe(code):
    """The stdout of ``code`` run in a fresh interpreter on this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout


# the submodules, and the one stdlib module, that load on first use only
_DEFERRED = ("delayedhits.latency", "delayedhits.search", "delayedhits.reduction",
             "delayedhits.adversary", "delayedhits.counterexample", "fractions")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and a slotted class, so start-up skips
    # dataclasses, inspect and the ast, dis and tokenize that inspect loads;
    # the closed forms, the searches, the k+Z wrapper and the two
    # constructions, and fractions with them, load on first use, and
    # check's pool of workers only when it runs one; the argument parser
    # is built on the first call
    unwanted = {"dataclasses", "inspect", "multiprocessing", *_DEFERRED}
    probe = (
        "import sys, delayedhits.cli as cli; "
        f"print(sorted({unwanted!r} & set(sys.modules)), cli._parser)"
    )
    assert _probe(probe) == "[] None\n"


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["simulate", "TRACE", "--policy", "belady"], set()),
        (["reduce", "TRACE"], {"reduction"}),
        # five cases are one chunk, so the check runs in this process
        (["check", "--suite", "antimono", "--cases", "5"], {"latency"}),
        (["check", "--suite", "latency", "--cases", "5"], {"latency"}),
        (["check", "--suite", "reduction", "--cases", "5"], {"reduction"}),
        (["adversary", "-k", "2", "-Z", "3"], {"adversary", "fractions"}),
        (["adversary", "-k", "2", "-Z", "3", "--oracle-check"],
         {"adversary", "fractions", "search", "latency"}),
        (["counterexample", "-Z", "6", "-k", "1"], {"counterexample", "search", "latency"}),
    ],
    ids=["simulate", "reduce", "check-antimono", "check-latency",
         "check-reduction", "adversary", "adversary-oracle", "counterexample"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    trace = tmp_path / "t.txt"
    trace.write_text("1\n3\n0\n2\n1\n", encoding="utf-8")
    argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
    argv += ["--out", str(tmp_path / "report.json")]
    probe = (
        "import sys, delayedhits.cli as cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(sorted(set(sys.modules).intersection({_DEFERRED!r})))"
    )
    expected = sorted(name if name == "fractions" else f"delayedhits.{name}" for name in loaded)
    assert _probe(probe) == f"{expected}\n"


def test_star_import_binds_each_public_name_to_its_defining_modules_object():
    # the star import resolves every name through the package, the lazy
    # ones included, before the probe imports any submodule itself
    layers = [path.stem for path in SOURCES if path.stem != "__init__"]
    probe = (
        "from delayedhits import *\n"
        "import importlib, delayedhits\n"
        "values = {name: globals()[name] for name in delayedhits.__all__}\n"
        f"layers = [importlib.import_module('delayedhits.' + m) for m in {layers!r}]\n"
        "for name, value in values.items():\n"
        "    holders = [m for m in layers if name in vars(m)]\n"
        "    assert holders and all(vars(m)[name] is value for m in holders), name\n"
        "    assert getattr(delayedhits, name) is value, name\n"
        "    print(name, getattr(value, '__module__', holders[0].__name__))\n"
    )
    homes = dict(line.split() for line in _probe(probe).splitlines())
    assert list(homes) == delayedhits.__all__
    assert homes["build_adversarial_sequence"] == "delayedhits.adversary"
    assert homes["CounterexampleSpec"] == "delayedhits.counterexample"
    assert homes["simulate"] == "delayedhits.model"
    # each policy class is in __all__ once, under its class name
    policies = {
        name: home for name, home in homes.items()
        if isinstance(value := getattr(delayedhits, name), type)
        and issubclass(value, delayedhits.Policy)
    }
    assert policies == {
        "BeladyPolicy": "delayedhits.policies",
        "FifoPolicy": "delayedhits.policies",
        "LruPolicy": "delayedhits.policies",
        "NeverCachePolicy": "delayedhits.policies",
        "Policy": "delayedhits.policies",
        "ReductionPolicy": "delayedhits.reduction",
        "StaticPolicy": "delayedhits.policies",
    }


def test_a_construction_submodule_resolves_after_a_bare_import():
    probe = (
        "import sys, delayedhits\n"
        "assert 'delayedhits.counterexample' not in sys.modules\n"
        "module = delayedhits.counterexample\n"
        "print(module is sys.modules['delayedhits.counterexample'], module.__name__)"
    )
    assert _probe(probe) == "True delayedhits.counterexample\n"


def test_dir_lists_the_lazy_names_without_loading_them():
    probe = (
        "import sys, delayedhits\n"
        "names = set(dir(delayedhits))\n"
        "print(sorted({*delayedhits.__all__, 'adversary', 'counterexample'} - names))\n"
        "print(sorted({'fractions', 'delayedhits.adversary', 'delayedhits.counterexample'}"
        " & set(sys.modules)))\n"
    )
    assert _probe(probe) == "[]\n[]\n"
