"""The package export list: one name per module __all__, resolved lazily."""

import importlib
import pkgutil

import pytest

import gammashell


def test_package_exports_the_union_of_the_module_export_lists():
    owners = {}
    for info in pkgutil.iter_modules(gammashell.__path__):
        module = importlib.import_module(f"gammashell.{info.name}")
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name].__name__} too"
            owners[name] = module
    assert sorted(gammashell.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(gammashell, name) is getattr(module, name)
    namespace = {}
    exec("from gammashell import *", namespace)
    for name, module in owners.items():
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError):
        gammashell.no_such_name
