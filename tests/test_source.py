"""Source hygiene of the package modules, read with ast (no linter needed):
no module imports a name that it never uses and does not export in
`__all__`, and every `__all__` entry is a name the module defines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contactstat"
MODULES = sorted(SRC.glob("*.py"))


def _bound(node):
    """The names an import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names if a.name != "*"]
    return []


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(tree):
    """Imported names, at any depth, that no expression reads and that
    `__all__` does not list."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    keep = read | set(_exports(tree))
    return [name for node in ast.walk(tree) for name in _bound(node)
            if name not in keep]


def _undefined_exports(tree):
    """`__all__` entries that the module's top level does not bind."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
        defined |= set(_bound(node))
    return [name for name in _exports(tree) if name not in defined]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "submanifold.py"}


def test_the_rules_catch_an_unused_import_and_a_missing_export():
    tree = ast.parse("import os\nfrom .geometry import VectorField as VF\n"
                     "__all__ = ['gone']\nos.sep\n")
    assert _unused_imports(tree) == ["VF"]
    assert _undefined_exports(tree) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _undefined_exports(tree) == []
