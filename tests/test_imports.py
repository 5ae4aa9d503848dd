"""Every name a `basts` module imports is read somewhere in that module.

A deliberate re-export carries `# noqa: F401` on its import line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basts"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in source order.

    `from __future__` imports and imports marked `# noqa: F401` are
    skipped. A name counts as read wherever it is loaded, including as the
    base of an attribute.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_checker_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from json import dumps as d, loads\n"
              "from re import compile  # noqa: F401\n"
              "os.path.join(d(1))\n")
    assert unused_imports(source) == ["sys", "loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
