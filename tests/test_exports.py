"""Every name a module exports resolves, so a deletion cannot leave a stale
``__all__`` entry behind."""

import importlib
import pkgutil

import pytest

import coskew

MODULES = ["coskew"] + [f"coskew.{m.name}" for m in pkgutil.iter_modules(coskew.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
