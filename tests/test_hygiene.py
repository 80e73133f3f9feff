"""Static hygiene of the package: no dead imports, an exact ``__all__``.

Each module under ``src/spinchern`` is parsed with the standard ``ast``
module, so an import left behind when its last reader is deleted fails
here.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import spinchern

PACKAGE_DIR = Path(spinchern.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import statement binds, with its line."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    used = read | _exported_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_package_all_is_exactly_the_public_surface():
    exported = spinchern.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    namespace: dict = {}
    # raises AttributeError on an entry that does not resolve
    exec("from spinchern import *", namespace)
    public = {
        name
        for name, obj in vars(spinchern).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(exported) == public | {"__version__"}

