"""The public surface: every name that an ``__all__`` lists exists."""

import importlib
import pkgutil

import pytest

import nmoptomech

# __main__ runs the command line on import
_MODULES = ["nmoptomech"] + [f"nmoptomech.{m.name}"
                             for m in pkgutil.iter_modules(nmoptomech.__path__)
                             if m.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
