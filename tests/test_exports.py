"""Every name that ``sconv`` or one of its modules lists in ``__all__`` exists,
so a removed class or function cannot linger in an export list; none of them
takes a tolerance as an argument, none takes both a rate and a variant, and
all but two have a user outside the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sconv

MODULES = ["sconv"] + [f"sconv.{m.name}" for m in pkgutil.iter_modules(sconv.__path__)
                       if not m.name.startswith("_")]
ROOT = Path(__file__).resolve().parents[1]


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


def _names_read(*dirs):
    """Every name that the Python files under ``dirs`` read: a bare name loaded
    or an attribute looked up.  An import, an ``__all__`` entry and a definition
    read nothing, so a name that is only defined and re-exported is not here."""
    names = set()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_exported_name_but_two_has_a_user_outside_the_tests():
    # what only the tests call lives in tests/helpers.py; the two exceptions
    # are kept for ROADMAP items 3 (the direct sup of the anti-divergence) and
    # 13 (the large-deviation route on the pinched qubit family)
    exported = {n for name in MODULES for n in importlib.import_module(name).__all__}
    idle = exported - _names_read("src", "demos", "perfbench")
    assert idle == {"sc_lower_bound_curve", "pinched_pair_sequence"}
