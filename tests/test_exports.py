"""Public names: every `__all__` entry exists, and the package re-exports
only names that some module lists in its `__all__`."""

import importlib
import inspect
import pkgutil

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
