"""Every module-level private name of the package is named by the package.

A standard-library ``ast`` scan of ``src/stochage/*.py``: a function, class
or constant bound at module level under a name with one leading underscore
must be read somewhere in the package outside its own definition, as a
name, an attribute or an imported name.  A helper that a deletion leaves
behind, or that only tests or the benchmark call, fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "stochage").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(stmt: ast.stmt) -> set:
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if _private(name)}


def _read(node: ast.AST) -> list:
    """The names ``node`` reads: a loaded name, an attribute or imported names."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def dead_private_names(sources: dict) -> list:
    """``(module, name)`` of each module-level private function, class or
    constant of ``sources`` (module name -> source) that no module reads
    outside the statement defining it."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _bound(stmt)
            defined += [(module, name) for name in sorted(own)]
            read.update(name for node in ast.walk(stmt) for name in _read(node)
                        if name not in own)
    return sorted(entry for entry in defined if entry[1] not in read)


def test_scan_finds_a_dead_name():
    sources = {
        "a": ("__version__ = '1'\n_LIMIT, _unused = 3, 4\n_TABLE: dict = {}\n"
              "def _helper(n):\n    return _helper(n - 1) if n else _LIMIT\n"
              "class _Box:\n    _slot = 0\n"
              "def public():\n    return _TABLE\n"),
        "b": "from .a import _Box\n",
    }
    assert dead_private_names(sources) == [("a", "_helper"), ("a", "_unused")]


def test_every_private_name_is_read():
    assert dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []
