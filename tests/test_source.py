"""Static checks on the library's own source."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sphereconvex
from sphereconvex import cli

PACKAGE = Path(sphereconvex.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports names to re-export them; every other module, and
    # every test file, imports a name only to use it.
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """`_x` names (not dunders) bound by def, class or assignment at module
    level or in the body of a module-level class: private helpers, and the
    private methods and fields of classes."""
    defined = {}
    for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for node in scope.body:
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
    """Names read, attributes read and names imported anywhere in the module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("name", sorted(TREES), ids=str)
def test_no_unused_private_names(name):
    # a private helper, method or field is there for some other code of the
    # library; one that nothing reads any more is dead
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
    # scipy costs more to import than the rest of the library together
    assert [m for m in _import_time_modules(TREES[name]) if m.split(".")[0] == "scipy"] == []


def _imported_modules(tree: ast.Module) -> list[str]:
    """Every module the module imports, inside functions too."""
    return [
        alias.name if isinstance(node, ast.Import) else node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]


@pytest.mark.parametrize("name", sorted(TREES), ids=str)
def test_no_scipy_anywhere(name):
    # not inside a function either: scipy is a test dependency only, and the
    # hemisphere center is the nearest point of the cloud's hull, found in numpy
    assert [m for m in _imported_modules(TREES[name]) if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("name", sorted(TREES), ids=str)
def test_no_numpy_random_anywhere(name):
    # importing numpy.random, with the secrets and hashlib it loads, adds
    # about 16 ms to every CLI run; the trials draw their PCG64 streams as
    # arrays in `streams`
    tree = TREES[name]
    uses = [m for m in _imported_modules(tree) if m == "numpy.random" or m.startswith("numpy.random.")]
    uses += [
        f"numpy.{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names
        if alias.name == "random"
    ]
    uses += [
        f"{node.value.id}.random (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert uses == []


def test_cli_import_leaves_numpy_random_unloaded():
    # `import numpy` loads numpy.random only on first use, so no module of
    # the library may touch it at import
    code = "import sys, sphereconvex.cli; print([m for m in sys.modules if m.startswith('numpy.random')])"
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


README = Path(__file__).parent.parent / "README.md"


def _readme_synopsis(text: str) -> dict[str, set[str]]:
    """The `--` options of each `sphereconvex <cmd>` line in the first code
    block under README's `## Command line`."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    return {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
        for line in block.splitlines()
        if line.startswith("sphereconvex ")
    }


def _parser_options() -> dict[str, set[str]]:
    """The `--` options, without --help, of each subcommand of the CLI parser."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in p._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }


def test_readme_synopsis_matches_parser():
    # README's synopsis lists every subcommand with exactly the options it takes
    assert _readme_synopsis(README.read_text()) == _parser_options()
