"""Every name a module exports resolves, so a deletion cannot leave a stale
``__all__`` entry behind; and every definition in the package has a reader,
so code with no caller cannot stay behind either."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import coskew

MODULES = ["coskew"] + [f"coskew.{m.name}" for m in pkgutil.iter_modules(coskew.__path__)]

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coskew").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _definitions(tree):
    """(qualname, node) of each top-level function and class, and of each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{node.name}.{m.name}", m


def _click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_every_definition_has_a_reader():
    # a name counts where src code reads it (a name or an attribute; an
    # import or an __all__ string alone does not), or where README.md or
    # the benchmark's tracer names it; dunders and click commands are
    # called by Python and by click
    trees = {p.name: ast.parse(p.read_text()) for p in SRC}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    text = (ROOT / "README.md").read_text() + (ROOT / "perfbench" / "tracer.py").read_text()
    unread = [
        f"{module}:{qual}"
        for module, tree in trees.items()
        for qual, node in _definitions(tree)
        if not (node.name.startswith("__") or _click_command(node)
                or node.name in read or re.search(rf"\b{node.name}\b", text))
    ]
    assert unread == []
