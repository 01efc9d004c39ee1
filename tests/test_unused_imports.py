"""Every name a module in ``src/`` or ``tests/`` imports is used there.

A standard-library ``ast`` scan: a name bound by ``import`` or
``from ... import`` must appear as a name somewhere in its module.  A
package ``__init__.py`` is exempt, because re-exporting what it imports is
its job.  ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "import xml.dom\nfrom json import dumps, loads as parse\n"
              "def f(x: dumps) -> None:\n    return xml.dom, osp\n")
    assert unused_imports(source) == [(2, "os"), (4, "parse")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
