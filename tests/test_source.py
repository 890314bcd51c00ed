"""Static checks on the library's own source."""

import ast
from pathlib import Path

import pytest

import sphereconvex

PACKAGE = Path(sphereconvex.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports names to re-export them; every other module
    # imports a name only to use it.
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_x` names (not dunders) bound by def, class or assignment."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _used_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in the module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("name", sorted(TREES), ids=str)
def test_no_unused_private_names(name):
    # a private helper is there for some other code of the library; one that
    # nothing reads any more is dead
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    defined = _private_definitions(TREES[name])
    assert [f"{n} (line {line})" for n, line in defined.items() if n not in used] == []


def _import_time_modules(node: ast.AST) -> list[str]:
    """Modules imported when the module runs: every import outside a function body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [name for child in ast.iter_child_nodes(node) for name in _import_time_modules(child)]


@pytest.mark.parametrize("name", sorted(TREES), ids=str)
def test_no_scipy_at_import(name):
    # scipy costs more to import than the rest of the library together; the
    # one routine that needs it (the linear program behind rare hemisphere
    # centers) imports it inside the function
    assert [m for m in _import_time_modules(TREES[name]) if m.split(".")[0] == "scipy"] == []
