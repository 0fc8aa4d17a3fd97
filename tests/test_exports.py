"""Public names: every `__all__` entry exists and is re-exported or read in
the package, and the package re-exports only names that some module lists in
its `__all__`.  Leftovers: no module imports a name it never uses, and every
private module-level name is used somewhere in the package."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pulseforge


def modules():
    return [
        importlib.import_module(f"pulseforge.{info.name}")
        for info in pkgutil.iter_modules(pulseforge.__path__)
    ]


def test_every_all_name_exists():
    for module in modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names absent {missing}"


def test_package_exports_only_module_all_names():
    listed = set().union(*(getattr(m, "__all__", ()) for m in modules()))
    exported = {
        name
        for name, value in vars(pulseforge).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(exported - listed) == []


def sources():
    return {
        path.stem: ast.parse(path.read_text())
        for path in Path(pulseforge.__file__).parent.glob("*.py")
    }


def names_read(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for stem, tree in sources().items():
        if stem == "__init__":
            continue
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        if imported - names_read(tree):
            unused[stem] = sorted(imported - names_read(tree))
    assert unused == {}


def test_every_all_name_is_exported_or_read_in_the_package():
    # A public name that `__init__` does not re-export and no package code
    # reads, as a name or an attribute, serves only tests.
    trees = sources()
    read = set().union(*map(names_read, trees.values()))
    read |= {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    unused = [
        f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in modules()
        for name in getattr(module, "__all__", ())
        if name not in read and name not in vars(pulseforge)
    ]
    assert unused == []


def test_every_private_module_name_is_used():
    trees = sources()
    used = set().union(*map(names_read, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names}
    unused = {}
    for stem, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
        if private - used:
            unused[stem] = sorted(private - used)
    assert unused == {}


def identifiers(tree):
    """Every name, attribute, import alias and definition name in a tree."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield n.name


def test_no_eigensolver_or_exponential_in_the_package():
    # Every propagator is written out from the closed-form Lambda system
    # in `sequences._bin_exponentials`, and the target gate is
    # written out; no general eigensolver or matrix exponential remains.
    found = {
        f"{stem}: {name}"
        for stem, tree in sources().items()
        for name in identifiers(tree)
        if name in ("eig", "eigh", "eigvals", "eigvalsh") or name.startswith("expm")
    }
    assert found == set()


def test_error_kinds_read_only_in_error_pairs():
    # The engine takes (stretch, detuning) pairs; `sequences.error_pairs`
    # is the one place a one-axis kind becomes a column.
    readers = {
        f"{stem}.{getattr(node, 'name', '<module>')}"
        for stem, tree in sources().items()
        for node in tree.body
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and n.attr in ("PLE", "ORE")
        and isinstance(n.value, ast.Name)
        and n.value.id == "ErrorKind"
    }
    assert readers == {"sequences.error_pairs"}


def test_cos_and_sin_only_in_the_drive_map_and_the_eigensystem():
    # `sequences._drive_controls` is the one map from a drive's amplitude
    # and phase to controls; the only other trigonometry is the mixing
    # angle of the closed-form bin eigensystem, in `_bin_exponentials`.
    callers = {
        f"{stem}.{getattr(node, 'name', '<module>')}"
        for stem, tree in sources().items()
        for node in tree.body
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("cos", "sin")
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "np"
    }
    assert callers == {"sequences._drive_controls", "sequences._bin_exponentials"}


def test_sequences_multiplies_stacks_only_by_matmul3():
    # The engine keeps its 3x3 stacks matrix-first, (3, 3, ...), and every
    # product goes through `sequences._matmul3`: no `@`, no `np.matmul` and
    # no matrix-last transpose.
    found = set()
    for n in ast.walk(sources()["sequences"]):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            found.add(f"@ on line {n.lineno}")
        elif isinstance(n, ast.Attribute) and n.attr == "matmul":
            found.add(f"matmul on line {n.lineno}")
        elif (
            isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None)) == "swapaxes"
            and {ast.unparse(a) for a in n.args[-2:]} == {"-1", "-2"}
        ):
            found.add(f"swapaxes(..., -1, -2) on line {n.lineno}")
    assert found == set()


def test_linalg_forms_no_product_stack():
    # `gate_fidelity` and `_check_unitary` read a trace and a defect from
    # elementwise products: no `@`, no `matmul` and no `trace` in `linalg`.
    found = set()
    for n in ast.walk(sources()["linalg"]):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            found.add(f"@ on line {n.lineno}")
        elif getattr(n, "attr", getattr(n, "id", None)) in ("matmul", "trace"):
            found.add(f"{ast.unparse(n)} on line {n.lineno}")
    assert found == set()
