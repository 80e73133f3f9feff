"""Static hygiene of the package: no dead imports, an exact ``__all__``,
one eigensolver module, oracles that do not share it, one module that
places spins on the bits and axes of a basis index, one ramp kernel with
one builder of its phases and of their exponentials, pole starts
gathered once per key, a shared cache list that holds every cached
function, a bound on each cache keyed by a value the caller chooses (a
ramp protocol, a grid count), no read of the environment and no process
pool, and one function that writes files.

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

from _oracles import CACHES

PACKAGE_DIR = Path(spinchern.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "_oracles.py"

# numpy's dense eigensolvers, which only qcore may call.
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}

# Package routes the oracles may not import: every qcore function, and
# the cached solves and fast paths built on them.
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


# What would let a run depend on its environment or spread over
# processes: reads of the environment and the process-pool modules.
ENV_READS = {"environ", "getenv"}
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _process_uses(tree: ast.Module) -> list[int]:
    """Lines that read ``os.environ`` or ``os.getenv``, or import a pool
    module or one of its submodules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
            if getattr(node.value, "id", None) == "os":
                lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [alias.name for alias in node.names]
            if module:
                if module == "os" and ENV_READS.intersection(names):
                    lines.append(node.lineno)
                names = [module] + [f"{module}.{name}" for name in names]
            if any(
                n == m or n.startswith(m + ".") for n in names for m in POOL_MODULES
            ):
                lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment_or_starts_processes():
    stray = [
        f"{path.name} line {line}"
        for path in MODULES
        for line in _process_uses(_parse(path))
    ]
    assert not stray, f"environment read or process pool: {', '.join(stray)}"


# What may create or change a file: an ``open`` mode holding one of these,
# and the pathlib methods that write a path whole.
WRITE_MODE_CHARS = set("wax+")
PATH_WRITERS = {"write_text", "write_bytes"}


def _open_mode(call: ast.Call):
    """The mode of an ``open`` call: ``mode=``, else the builtin's second
    argument or a method's (``Path.open``) first; None if not given."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    index = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[index] if len(call.args) > index else None


def _file_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """The enclosing top-level name and the line of each call that may
    write a file: ``os.open``, ``open`` with a mode that holds w, a, x or
    + or is not a literal, and ``write_text`` or ``write_bytes``."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = _name_of(node.func)
            if name == "open" and _name_of(getattr(node.func, "value", None)) == "os":
                writes = True
            elif name == "open":
                mode = _open_mode(node)
                writes = mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not WRITE_MODE_CHARS.intersection(mode.value)
                )
            else:
                writes = name in PATH_WRITERS
            if writes:
                found.append((owner, node.lineno))
    return found


def test_only_model_write_text_writes_a_file():
    # One writer overwrites a file in place, cuts it to length and never
    # leaves new bytes followed by old ones when a write fails.
    writes = {path.name: _file_writes(_parse(path)) for path in MODULES}
    owners = [owner for owner, _ in writes["model.py"]]
    assert "_write_text" in owners, "model._write_text no longer opens its file"
    stray = [
        f"{name} {owner} line {line}"
        for name, found in writes.items()
        for owner, line in found
        if (name, owner) != ("model.py", "_write_text")
    ]
    assert not stray, f"file written outside model._write_text: {', '.join(stray)}"


def _shift_lines(tree: ast.Module) -> list[int]:
    """Lines with a ``<<`` or ``>>`` operation, augmented or not."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, (ast.LShift, ast.RShift))
    ]


def test_only_model_shifts_bits():
    # Site k is bit n-1-k of a basis index: model's site table spells
    # that once, and every other module reads the table.
    uses = {path.name: _shift_lines(_parse(path)) for path in MODULES}
    assert uses.pop("model.py"), "model no longer builds the site table by shifts"
    stray = [f"{name} line {line}" for name, lines in uses.items() for line in lines]
    assert not stray, f"bit shift outside model: {', '.join(stray)}"


def _is_spin_axis(arg: ast.expr) -> bool:
    """A literal 2 or a ``2 ** k``, or a tuple holding one."""
    if isinstance(arg, ast.Tuple):
        return any(map(_is_spin_axis, arg.elts))
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Pow):
        arg = arg.left
    return isinstance(arg, ast.Constant) and type(arg.value) is int and arg.value == 2


def _spin_view_lines(tree: ast.Module) -> list[int]:
    """Lines that call ``reshape`` with a spin axis among its arguments."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "reshape"
        and any(map(_is_spin_axis, node.args))
    ]


def test_only_model_views_the_basis_by_spin():
    # Site k is axis k of a (2, ..., 2) view of a basis index, the bit
    # order of the site table: model's spin-axis views spell that, and
    # every other module calls them.
    uses = {path.name: _spin_view_lines(_parse(path)) for path in MODULES}
    in_model = uses.pop("model.py")
    stray = [f"{name} line {line}" for name, lines in uses.items() for line in lines]
    assert not stray, f"spin-axis reshape outside model: {', '.join(stray)}"
    assert in_model, "model no longer holds the spin-axis views"


def _called_names(node: ast.AST) -> set[str]:
    """The function or method name of each call inside ``node``."""
    return {
        getattr(call.func, "attr", getattr(call.func, "id", None))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_trotter_ramps_build_their_phases_in_one_place():
    # A single ramp's phase table and a stack's phases come from one
    # builder, so a ramp has the same bits alone or in a stack only as
    # long as no second copy of the expression exists.
    tree = _parse(PACKAGE_DIR / "quench.py")
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("_step_phases", "_ramp_state"):
        called = _called_names(functions[name])
        assert "exp" not in called, f"{name} builds a phase itself"
        assert "_rotation_phases" in called, f"{name} builds no phase"


def _functions(path: Path) -> dict:
    """The module-level functions of a package module, by name."""
    return {n.name: n for n in _parse(path).body if isinstance(n, ast.FunctionDef)}


def _name_of(node: ast.expr):
    """``x`` for a name ``x`` or an attribute ``a.x``, else None."""
    return getattr(node, "attr", getattr(node, "id", None))


# The fields of ``quench._MirrorSector`` that carry the sector's M_z
# labels: their magnitudes and gather index, and the readout weights c m.
_SECTOR_LABELS = ("spins", "lookup", "weights")


def _reads(node: ast.AST, attrs) -> bool:
    """Whether ``node`` reads an attribute named in ``attrs``."""
    return any(isinstance(n, ast.Attribute) and n.attr in attrs for n in ast.walk(node))


def _exponentiates_labels(node: ast.AST) -> bool:
    """Whether ``node`` calls ``exp`` on an argument that reads a mirror
    sector's labels."""
    return any(
        isinstance(n, ast.Call)
        and _name_of(n.func) == "exp"
        and any(_reads(arg, _SECTOR_LABELS) for arg in n.args)
        for n in ast.walk(node)
    )


def test_one_function_exponentiates_the_labels():
    # The label-wise phases, one exponential per label magnitude and a
    # gather, keep a ramp's bits only while no second copy exists, so
    # no other function of quench reads the sector's label index or
    # takes an exponential of its labels.  One spin's field core,
    # e^{i tau m} over the site table's labels, is not a rotation phase.
    functions = _functions(PACKAGE_DIR / "quench.py")
    builders = {
        name
        for name, node in functions.items()
        if _reads(node, ("spins", "lookup")) or _exponentiates_labels(node)
    }
    assert builders == {"_rotation_phases"}


def _start_gathers(node: ast.AST) -> list[int]:
    """Lines that gather a pole start per call: ``rank[mirror[...]]``,
    or ``enter[:, k]`` with k not a literal."""
    lines = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Subscript):
            continue
        owner, index = _name_of(sub.value), sub.slice
        if owner == "rank" and any(
            isinstance(n, ast.Subscript) and _name_of(n.value) == "mirror"
            for n in ast.walk(index)
        ):
            lines.append(sub.lineno)
        elif (
            owner == "enter"
            and isinstance(index, ast.Tuple)
            and len(index.elts) == 2
            and isinstance(index.elts[0], ast.Slice)
            and not isinstance(index.elts[1], ast.Constant)
        ):
            lines.append(sub.lineno)
    return lines


def test_pole_starts_are_gathered_only_by_their_cached_builder():
    # A start is fixed by the size, the ground block and the sign of J,
    # so its gathers run once per key, in _pole_start, and never per call.
    quench_path = PACKAGE_DIR / "quench.py"
    assert "_pole_start" in _cached_functions(_parse(quench_path))
    stray = []
    for path in (quench_path, PACKAGE_DIR / "pulsesim.py"):
        for name, node in _functions(path).items():
            lines = _start_gathers(node)
            if name == "_pole_start" and path == quench_path:
                assert lines, "_pole_start no longer gathers the start"
            else:
                stray += [f"{path.name} {name} line {line}" for line in lines]
    assert not stray, f"per-call start gathers: {', '.join(stray)}"


def _core_step_loops(tree: ast.AST) -> list[int]:
    """Lines of the loops in ``tree`` that multiply by a matrix named
    ``core``, by ``@`` or ``.dot``: the step loops of a ramp."""
    lines = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "dot":
                operands = [node.func.value, *node.args]
            else:
                continue
            names = (n for o in operands for n in ast.walk(o))
            if any(isinstance(n, ast.Name) and n.id == "core" for n in names):
                lines.append(loop.lineno)
                break
    return lines


def _reaches(graph: dict, start: str, target: str) -> bool:
    """Whether ``start`` calls ``target``, directly or through other
    functions of ``graph``, a map from each function to its calls."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == target:
            return True
        if name not in seen:
            seen.add(name)
            todo += graph.get(name, ())
    return False


def test_one_module_steps_every_ramp():
    # Exact ramps are the N = 1 run of the Trotter ramps' kernel, so one
    # module multiplies ramp steps and every ramp route reaches it.
    trees = {path.name: _parse(path) for path in MODULES}
    defined = {
        name: sorted(
            module
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name
        )
        for name in ("_step_product", "_ramp_state")
    }
    assert defined == {"_step_product": ["quench.py"], "_ramp_state": ["quench.py"]}
    loops = {name: _core_step_loops(tree) for name, tree in trees.items()}
    assert loops.pop("quench.py"), "quench no longer steps a ramp"
    stray = [f"{name} line {line}" for name, lines in loops.items() for line in lines]
    assert not stray, f"ramp step loop outside quench: {', '.join(stray)}"
    graph = {
        node.name: _called_names(node)
        for name in ("quench.py", "pulsesim.py")
        for node in trees[name].body
        if isinstance(node, ast.FunctionDef)
    }
    for route in ("_spin_readout", "simulate_protocol_trotter", "perturbed_fidelity"):
        assert _reaches(graph, route, "_ramp_state"), f"{route} has its own kernel"


def _cached_functions(tree: ast.Module) -> set[str]:
    """Functions decorated with ``functools.lru_cache`` or ``cache``."""
    caching = {"functools.lru_cache", "functools.cache", "lru_cache", "cache"}
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d).split("(")[0] in caching for d in node.decorator_list)
    }


def test_the_shared_cache_list_holds_every_cached_function():
    declared = {
        f"spinchern.{path.stem}.{name}"
        for path in MODULES
        for name in _cached_functions(_parse(path))
    }
    assert declared == {f"{c.__module__}.{c.__name__}" for c in CACHES}


# Cache key parameters whose values the chain size bounds: the size, a
# sector's parity, block index, end and ground sector M_g, and the
# coupling rows of a molecule's linear program.
SIZE_BOUNDED_KEYS = {"n_spins", "parity", "block", "top", "m_g", "pairs"}


def test_protocol_keyed_caches_have_a_finite_maxsize():
    # A cache keyed only by the chain size and what it bounds is bounded
    # by the size cap, but any rate and step count make a valid protocol
    # and any two counts a plaquette grid, so a cache keyed by a value the
    # caller chooses must drop its oldest entries.
    keyed = {
        f"{c.__module__}.{c.__name__}": c.cache_parameters()["maxsize"]
        for c in CACHES
        if set(inspect.signature(c.__wrapped__).parameters) - SIZE_BOUNDED_KEYS
    }
    assert set(keyed) == {
        "spinchern.quench._spin_readout",
        "spinchern.quench._step_phases",
        "spinchern.spectral._lattice_winding",
    }
    unbounded = sorted(name for name, size in keyed.items() if size is None)
    assert not unbounded, f"unbounded caller-keyed caches: {', '.join(unbounded)}"


def test_oracles_import_no_solver_from_the_package():
    assert SOLVER_ROUTES >= {"sector_eigh"}
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
