"""Every Python source in the repository compiles without a warning, so
that a SyntaxWarning (an invalid escape sequence on 3.12+, a
DeprecationWarning before) fails the suite instead of scrolling past."""

import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_compiles_without_a_warning():
    paths = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) >= 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            # read_text closes its file, and compile writes no bytecode
            compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
