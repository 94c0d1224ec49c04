"""Each module of the package uses the others through their public names."""

import ast
import importlib
from pathlib import Path

import pytest

import predsearch

MODULES = sorted(Path(predsearch.__file__).parent.glob("*.py"))

# Standard-library names that begin with an underscore but are public API.
_PUBLIC_UNDERSCORED = {"_exit", "_fields"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_into_a_sibling_private_name(path):
    # strategies once called oracle._walk, and verification imported the
    # cell grid's private helpers from nets.
    tree = ast.parse(path.read_text(), filename=str(path))
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            reached += [
                f"from .{node.module} import {a.name}" for a in node.names if _private(a.name)
            ]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                if node.attr not in _PUBLIC_UNDERSCORED:
                    reached.append(f"line {node.lineno}: .{node.attr}")
    assert reached == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "predsearch" if path.stem == "__init__" else f"predsearch.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert not any(_private(n) for n in exported)
