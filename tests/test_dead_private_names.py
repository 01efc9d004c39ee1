"""Every module-level private name of the package is named by the package,
and so is every name ``stochage/__init__.py`` exports, but for a stated few.

A standard-library ``ast`` scan of ``src/stochage/*.py``: a function, class
or constant bound at module level under a name with one leading underscore
must be read somewhere in the package outside its own definition, as a
name, an attribute or an imported name.  A helper that a deletion leaves
behind, or that only tests or the benchmark call, fails here.  A name the
package's ``__init__`` imports must be read so by a module other than
``__init__``, or stand in :data:`UNREAD_EXPORTS` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "stochage").glob("*.py"))

# exported names no module of the package reads, each with why it stays
UNREAD_EXPORTS = {
    "ProductRate": "the benchmark tracer's METHODS table wraps its __call__",
    "weak_residual_stochastic": "only tests call it (ROADMAP item 7 (a))",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(stmt: ast.stmt) -> set:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _read(node: ast.AST) -> list:
    """The names ``node`` reads: a loaded name, an attribute or imported names."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def _reads(sources: dict) -> set:
    """Every name a module of ``sources`` reads outside the statement defining it."""
    read = set()
    for source in sources.values():
        for stmt in ast.parse(source).body:
            own = _bound(stmt)
            read.update(name for node in ast.walk(stmt) for name in _read(node)
                        if name not in own)
    return read


def dead_private_names(sources: dict) -> list:
    """``(module, name)`` of each module-level private function, class or
    constant of ``sources`` (module name -> source) that no module reads
    outside the statement defining it."""
    read = _reads(sources)
    return sorted((module, name) for module, source in sources.items()
                  for stmt in ast.parse(source).body for name in _bound(stmt)
                  if _private(name) and name not in read)


def unread_exports(sources: dict) -> list:
    """Each name the ``__init__`` of ``sources`` imports that no other module
    reads outside the statement defining it."""
    exported = {alias.name for stmt in ast.parse(sources["__init__"]).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    return sorted(exported - _reads({m: s for m, s in sources.items() if m != "__init__"}))


def test_scan_finds_a_dead_name():
    sources = {
        "a": ("__version__ = '1'\n_LIMIT, _unused = 3, 4\n_TABLE: dict = {}\n"
              "def _helper(n):\n    return _helper(n - 1) if n else _LIMIT\n"
              "class _Box:\n    _slot = 0\n"
              "def public():\n    return _TABLE\n"),
        "b": "from .a import _Box\n",
    }
    assert dead_private_names(sources) == [("a", "_helper"), ("a", "_unused")]


def test_scan_finds_an_unread_export():
    sources = {
        "__init__": "from .a import Used, alone, public, recursive\n__version__ = '1'\n",
        "a": ("class Used:\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1) if n else Used()\n"
              "def public():\n    return 0\n"
              "def alone():\n    return alone\n"),
        "b": "from .a import public\n",
    }
    assert unread_exports(sources) == ["alone", "recursive"]


def test_every_private_name_is_read():
    assert dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_every_export_is_read_or_stated():
    assert unread_exports({p.stem: p.read_text() for p in PACKAGE}) == sorted(UNREAD_EXPORTS)
