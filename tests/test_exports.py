"""Public names: every `__all__` entry exists, and the package re-exports
only names that some module lists in its `__all__`.  Leftovers: no module
imports a name it never uses, and every private module-level name is used
somewhere in the package."""

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


def test_eigh_only_in_the_checked_exponential():
    # Bin exponentials take the closed-form Lambda-system eigensystem; a
    # general eigensolver belongs only to `linalg.expm_unitary`.
    def uses_eigh(node):
        return any(
            (isinstance(n, ast.Attribute) and n.attr == "eigh")
            or (isinstance(n, ast.Name) and n.id == "eigh")
            or (isinstance(n, ast.alias) and n.name == "eigh")
            for n in ast.walk(node)
        )

    users = {
        f"{stem}.{getattr(node, 'name', '<module>')}"
        for stem, tree in sources().items()
        for node in tree.body
        if uses_eigh(node)
    }
    assert users == {"linalg.expm_unitary"}
