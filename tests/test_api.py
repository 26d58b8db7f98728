"""Every exported name resolves, so a deleted definition cannot linger in ``__all__``;
every algorithm writes its rule on views."""

import importlib
import inspect
import pkgutil
import re
import types

import pytest

import asynclocal
from asynclocal.algorithms import Algorithm, Composed

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


@pytest.mark.parametrize("module_name", [m for m in MODULES if m != "asynclocal.engine"])
def test_only_the_engine_reads_how_a_space_stores_configurations(module_name):
    # a space's stores are ``keys`` and ``successors``; ``.keys(`` is a dict method call
    source = inspect.getsource(importlib.import_module(module_name))
    assert re.findall(r"\.(?:keys|successors)\b(?!\s*\()", source) == []


def test_every_rule_is_written_on_views():
    # ``Algorithm.next`` is the one place that takes views of states, and
    # ``Composed.next`` its one override; every other algorithm writes ``next_views``
    classes = {
        cls
        for module_name in MODULES
        for cls in vars(importlib.import_module(module_name)).values()
        if isinstance(cls, type) and issubclass(cls, Algorithm)
    }
    assert len(classes) >= 12
    assert {cls for cls in classes if "next" in cls.__dict__} == {Algorithm, Composed}
    rules = classes - {Algorithm, Composed}
    assert sorted(cls.__name__ for cls in rules if "next_views" not in cls.__dict__) == []
