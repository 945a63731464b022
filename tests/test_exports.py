"""Every name that ``sconv`` or one of its modules lists in ``__all__`` exists,
so a removed class or function cannot linger in an export list; none of them
takes a tolerance as an argument, and none takes both a rate and a variant."""

import importlib
import inspect
import pkgutil

import pytest

import sconv

MODULES = ["sconv"] + [f"sconv.{m.name}" for m in pkgutil.iter_modules(sconv.__path__)
                       if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _exported_signatures(module):
    """``(name, signature)`` of every callable in ``module.__all__``, and of the
    methods, classmethods and staticmethods of every exported class."""
    for name in module.__all__:
        obj = getattr(module, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{k}", getattr(obj, k)) for k, v in vars(obj).items()
                        if inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod))]
        for qual, fn in members:
            if callable(fn):
                yield qual, inspect.signature(fn)


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_callable_takes_a_tolerance(name):
    # the tolerances are named module constants: no parameter may override one
    module = importlib.import_module(name)
    found = [f"{qual}({param})" for qual, sig in _exported_signatures(module)
             for param in sig.parameters if param.endswith("_tol")]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_callable_takes_both_a_rate_and_a_variant(name):
    # a caller who wants another curve passes its rate; a variant beside it is ignored
    module = importlib.import_module(name)
    found = [qual for qual, sig in _exported_signatures(module)
             if {"rate", "variant"} <= set(sig.parameters)]
    assert found == []
