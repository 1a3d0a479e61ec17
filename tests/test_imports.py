"""Every module-level import of the package is read in its module."""

import ast
from pathlib import Path

import pytest

import collapselab

MODULES = sorted(Path(collapselab.__file__).parent.glob("*.py"))


def _unread_imports(tree: ast.Module) -> list:
    """Names bound by the module-level imports of ``tree`` that it never
    reads as a name, an attribute base or an ``__all__`` entry."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_read(path):
    assert _unread_imports(ast.parse(path.read_text())) == []


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport json\nimport math\n"
                     "from os import path as p, sep\n__all__ = ['sep']\nx = math.pi\n")
    assert _unread_imports(tree) == ["json", "p"]
