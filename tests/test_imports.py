"""Every name an import binds in the package and the tests is used there.

No linter runs on this code, so this is its unused-import check: each module
of ``src/matderiv`` and ``tests`` is parsed with ``ast``, and every name
bound by an ``import`` or ``from ... import`` (anywhere in the module) must
appear as a name elsewhere in it.  ``from __future__`` imports and lines
marked ``# noqa: F401`` (the deliberate re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "matderiv").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never uses, as
    "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import io\nimport json\nfrom os import path as p, sep\n\njson.dumps(p)\n"
    assert unused_imports(source) == ["1: io", "3: sep"]


def test_exemptions():
    source = ("from __future__ import annotations\n"
              "from . import (  # noqa: F401\n    core,\n)\n"
              "import os.path\n\nos.sep\n")
    assert unused_imports(source) == []
