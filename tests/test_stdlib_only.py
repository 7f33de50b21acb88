"""The runtime stays pure stdlib: every module of ``flbessel`` imports only
the standard library and ``flbessel`` itself.

Imports are read from the source with ``ast``, so an import inside a
function or behind a condition counts as much as one at the top.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "flbessel").glob("*.py"))


def imported_roots(source: str) -> set[str]:
    """The top-level names of every absolute ``import`` and ``from ... import``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def foreign(source: str) -> set[str]:
    return {name for name in imported_roots(source)
            if name != "flbessel" and name not in sys.stdlib_module_names}


def test_every_module_is_read():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "series.py", "sumverify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign(path.read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize("line", ["import mpmath", "from mpmath import mp",
                                  "import mpmath.libmp as lib", "from numpy.linalg import norm"])
def test_a_foreign_import_is_caught(line):
    source = (SOURCES[0].parent / "series.py").read_text(encoding="utf-8")
    assert line.split()[1].split(".")[0] in foreign(source + f"\n\ndef _late():\n    {line}\n")


def test_relative_and_own_imports_are_allowed():
    assert foreign("from . import emit\nfrom .mpnum import BigReal\nimport flbessel.cli\n") == set()
