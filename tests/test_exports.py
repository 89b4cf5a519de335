"""Every exported name resolves: each module's ``__all__`` and the package namespace."""

import importlib
import inspect
import pkgutil

import pytest

import stable_sysid

MODULES = sorted(f"stable_sysid.{info.name}" for info in pkgutil.iter_modules(stable_sysid.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_import(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []


def test_package_names_are_their_modules_exports():
    """A public name of the package is the object of that name in the module
    that defines it, and is in that module's ``__all__`` where it has one."""
    public = {
        name: value for name, value in vars(stable_sysid).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public
    for name, value in public.items():
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name
        assert name in getattr(module, "__all__", [name]), name
