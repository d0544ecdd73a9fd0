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
    attributes of a ``dh`` or ``delayedhits`` name, names imported from
    ``delayedhits`` or one of its submodules, and each attribute loaded off
    such an imported name, as the dotted ``name.attribute``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "delayedhits":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module, alias.name
                yield node.lineno, node.module, alias.name
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        if node.value.id in PACKAGE_NAMES:
            yield node.lineno, "delayedhits", node.attr
        elif node.value.id in imported and isinstance(node.ctx, ast.Load):
            module, name = imported[node.value.id]
            yield node.lineno, module, f"{name}.{node.attr}"


def resolves(module, name):
    """Whether ``from module import name`` (or ``module.name``) finds it:
    an attribute, or a submodule that the import statement would load; a
    dotted name must then have each further part as an attribute."""
    head, *rest = name.split(".")
    obj = getattr(importlib.import_module(module), head, None)
    if obj is None:
        if importlib.util.find_spec(f"{module}.{head}") is None:
            return False
        obj = importlib.import_module(f"{module}.{head}")
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_the_benchmark_reads_resolves():
    reads = [(path.name, *read) for path in sorted(BENCH.glob("*.py"))
             for read in package_reads(path)]
    # a walk that found no reads would pass whatever the package exports
    assert len({name for *_, name in reads}) >= 8
    assert any("." in name for *_, name in reads)
    missing = [
        f"{file}:{line} {module}.{name}"
        for file, line, module, name in reads
        if not resolves(module, name)
    ]
    assert not missing, missing
