"""The core package imports nothing outside the standard library, and its
start-up skips the modules that only dataclasses, or only the adversary
and counterexample commands, would bring in."""

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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and a slotted class, so start-up skips
    # dataclasses, inspect and the ast, dis and tokenize that inspect loads;
    # the two constructions, and fractions with them, load on first use,
    # and check's pool of workers only when it runs one
    unwanted = {"dataclasses", "inspect", "fractions", "multiprocessing",
                "delayedhits.adversary", "delayedhits.counterexample"}
    probe = f"import sys, delayedhits.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    assert _probe(probe) == "[]\n"


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
