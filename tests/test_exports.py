import importlib
import pkgutil

import pytest

import agestruct

MODULES = sorted(m.name for m in pkgutil.iter_modules(agestruct.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"agestruct.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"agestruct.{name}.__all__ names {missing}"
