"""Every name that ``sconv`` or one of its modules lists in ``__all__`` exists,
so a removed class or function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import sconv

MODULES = ["sconv"] + [f"sconv.{m.name}" for m in pkgutil.iter_modules(sconv.__path__)
                       if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
