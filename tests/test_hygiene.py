"""Static hygiene of the package: no dead imports, an exact ``__all__``,
one eigensolver module and oracles that do not share it.

Each module under ``src/spinchern`` is parsed with the standard ``ast``
module, so an import left behind when its last reader is deleted fails
here.
"""

from __future__ import annotations

import ast
import inspect
import types
from pathlib import Path

import pytest

import spinchern
import spinchern.qcore as qcore

PACKAGE_DIR = Path(spinchern.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "_oracles.py"

# numpy's dense eigensolvers, which only qcore may call.
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}

# Package routes the oracles may not import: qcore's solver and
# propagator, and the cached solves and fast paths built on them.
SOLVER_ROUTES = {
    name
    for name, obj in vars(qcore).items()
    if inspect.isfunction(obj) and obj.__module__ == qcore.__name__
} | {"_sector_data", "_exchange_system", "_trotter_core", "pole_system"}


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _eigensolver_uses(tree: ast.Module) -> list[int]:
    """Lines that call ``<...>.linalg.<solver>`` or import a solver from
    ``numpy.linalg``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in EIGENSOLVERS for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_qcore_calls_a_dense_eigensolver():
    uses = {path.name: _eigensolver_uses(_parse(path)) for path in MODULES}
    assert uses.pop("qcore.py"), "qcore no longer calls np.linalg.eigh"
    stray = [f"{name} line {line}" for name, lines in uses.items() for line in lines]
    assert not stray, f"eigensolver outside qcore: {', '.join(stray)}"


def test_oracles_import_no_solver_from_the_package():
    assert SOLVER_ROUTES >= {"sector_eigh", "propagator"}
    shared = []
    for node in ast.walk(_parse(ORACLES)):
        if isinstance(node, ast.Import):
            shared += [a.name for a in node.names if a.name == "spinchern.qcore"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "spinchern.qcore":
                shared.append(node.module)
            elif node.module.startswith("spinchern"):
                routes = SOLVER_ROUTES | {"qcore"}
                shared += [a.name for a in node.names if a.name in routes]
    assert not shared, f"_oracles.py imports from the package: {', '.join(shared)}"
