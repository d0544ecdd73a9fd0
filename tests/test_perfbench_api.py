"""The benchmark under ``perfbench/`` runs against the package's public
surface, so every name it reads from ``delayedhits`` must still resolve;
a name deleted from the package fails here instead of in a bench run."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE_NAMES = {"dh", "delayedhits"}


def package_reads(path):
    """(line, module, name) for each name ``path`` reads from the package:
    attributes of a ``dh`` or ``delayedhits`` name, and names imported
    from ``delayedhits`` or one of its submodules."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in PACKAGE_NAMES):
            yield node.lineno, "delayedhits", node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "delayedhits":
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def resolves(module, name):
    """Whether ``from module import name`` (or ``module.name``) finds it:
    an attribute, or a submodule that the import statement would load."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_name_the_benchmark_reads_resolves():
    reads = [(path.name, *read) for path in sorted(BENCH.glob("*.py"))
             for read in package_reads(path)]
    # a walk that found no reads would pass whatever the package exports
    assert len({name for *_, name in reads}) >= 8
    missing = [
        f"{file}:{line} {module}.{name}"
        for file, line, module, name in reads
        if not resolves(module, name)
    ]
    assert not missing, missing
