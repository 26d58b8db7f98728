"""Every exported name resolves, so a deleted definition cannot linger in ``__all__``."""

import importlib
import pkgutil
import types

import pytest

import asynclocal

MODULES = [
    "asynclocal",
    "asynclocal.algorithms",
    "asynclocal.cli",
    "asynclocal.coverfree",
    "asynclocal.engine",
    "asynclocal.graphs",
    "asynclocal.schedulers",
    "asynclocal.verify",
    "asynclocal.wsb",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_the_module_list_covers_the_package():
    found = {f"asynclocal.{m.name}" for m in pkgutil.iter_modules(asynclocal.__path__)}
    assert found | {"asynclocal"} == set(MODULES)


def test_every_public_name_of_the_package_is_exported():
    public = {
        name
        for name, value in vars(asynclocal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(asynclocal.__all__)) == []
