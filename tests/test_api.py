"""Every public name of the package has a user outside the tests, and the
package namespace resolves each of its names on first use.

A name in a module's ``__all__`` must be referenced in ``src/`` outside its
own definition, referenced in ``perfbench/*.py``, or listed in the bullet list
of README.md's "Public API" section, which says why a name with no other user
stays. A mention elsewhere in README.md does not count.
"""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmregret

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mmregret").glob("*.py"))
PERFBENCH = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
# the names that open the bullets of the Public API section, up to its next heading
API_SECTION = re.search(r"^### Public API\n(.*?)^#", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL).group(1)
API_LIST = set(re.findall(r"^- `(\w+)`", API_SECTION, re.MULTILINE))


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
    assert {module for module, _ in PUBLIC} >= {"asif", "engine", "missing", "rules",
                                                 "sampling", "states"}


@pytest.mark.parametrize("module,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_user(module, name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert name in SRC_REFERENCES or word.search(PERFBENCH) or name in API_LIST, (
        f"{module}.{name} is used only by tests: delete it, or list it in README.md's "
        "Public API list with a reason")


def test_public_api_list_names_public_names():
    assert API_LIST and API_LIST <= {name for _, name in PUBLIC}


# ---------------------------------------------------------------------------
# the lazy package namespace, each case in a fresh interpreter so that no
# submodule is loaded before it starts

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(mmregret.__path__))


def fresh(code: str):
    """The value of the last line's expression, printed by a fresh interpreter."""
    lines = code.strip().splitlines()
    program = "\n".join(["import sys", *lines[:-1], f"print(repr({lines[-1]}))"])
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert fresh("""
import mmregret
[m for m in sys.modules if m.startswith("mmregret.")]""") == []


def test_every_top_level_name_is_its_submodules_object():
    # each name of the package's __all__ is in the __all__ of exactly one submodule,
    # and attribute access gives that submodule's object, kept in the namespace
    assert fresh("""
import importlib, mmregret
homes = {name: [m for m in %r
                if name in getattr(importlib.import_module("mmregret." + m), "__all__", ())]
         for name in mmregret.__all__}
bad = [name for name in mmregret.__all__ if len(homes[name]) != 1 or getattr(mmregret, name)
       is not getattr(sys.modules["mmregret." + homes[name][0]], name)]
bad + [name for name in mmregret.__all__ if name not in vars(mmregret)]""" % SUBMODULES) == []


def test_package_all_is_the_union_of_the_submodules_all():
    # every public submodule's names, rules.RULES among them, and no other
    assert fresh("""
import importlib, mmregret
names = {n for m in %r for n in getattr(importlib.import_module("mmregret." + m), "__all__", ())}
sorted(mmregret.__all__) == sorted(names) and "RULES" in names""" % SUBMODULES) is True


def test_unknown_dunder_loads_no_submodule():
    assert fresh("""
import mmregret
try:
    mmregret.__no_such_dunder__
except AttributeError:
    pass
[m for m in sys.modules if m.startswith("mmregret.")]""") == []


def test_star_import_gives_every_name_of_all():
    assert fresh("""
import mmregret
names = {}
exec("from mmregret import *", names)
names.pop("__builtins__")
sorted(names) == sorted(mmregret.__all__) and all(names[n] is getattr(mmregret, n) for n in names)
""") is True


def test_every_submodule_resolves_as_an_attribute():
    assert fresh("""
import mmregret
[m for m in %r if getattr(mmregret, m) is not sys.modules["mmregret." + m]]""" % SUBMODULES) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mmregret.no_such_name
    with pytest.raises(ImportError):
        from mmregret import no_such_name  # noqa: F401
    assert "no_such_name" not in vars(mmregret)


def test_dir_lists_the_public_names_and_submodules():
    assert set(dir(mmregret)) >= set(mmregret.__all__) | set(SUBMODULES)
