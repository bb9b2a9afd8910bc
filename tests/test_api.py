"""Every public name of the package has a user outside the tests.

A name in a module's ``__all__`` must be referenced in ``src/`` outside its
own definition, referenced in ``perfbench/*.py``, or named in README.md (whose
"Public API" list says why a name with no other user stays).
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mmregret

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mmregret").glob("*.py"))
PERFBENCH = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
README = (ROOT / "README.md").read_text()


def _public_names():
    for info in pkgutil.iter_modules(mmregret.__path__):
        module = importlib.import_module(f"mmregret.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name


def _references(tree: ast.AST, outside=()) -> set[str]:
    """Names read in the tree (as a name or an attribute), except inside the
    definitions of the names in ``outside``. Imports and ``__all__`` strings
    are not reads."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _references(node, outside + (node.name,))
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        found |= _references(node, outside)
    return found - set(outside)


SRC_REFERENCES = set().union(*(_references(ast.parse(p.read_text())) for p in SOURCES))
PUBLIC = sorted(set(_public_names()))


def test_every_module_declares_names():
    assert {module for module, _ in PUBLIC} >= {"engine", "missing", "rules", "sampling",
                                                 "states"}


@pytest.mark.parametrize("module,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_user(module, name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert (name in SRC_REFERENCES or word.search(PERFBENCH) or word.search(README)), (
        f"{module}.{name} is used only by tests: delete it, or list it in README.md's "
        "Public API with a reason")
