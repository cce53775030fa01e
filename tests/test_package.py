"""The public surface: every name that an ``__all__`` lists exists, and
every call that the benchmark tracer wraps is still there."""

import importlib
import inspect
import pkgutil
import types
from pathlib import Path

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


def _bench_spans():
    """``bench/spans.py`` (standard library only), executed from its text
    so that nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    module = types.ModuleType("bench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_bench_tracer_targets_resolve():
    # the tracer patches these names by path at run time; a renamed or
    # moved function would stop the traced benchmark, not the tests
    spans = _bench_spans()
    targets = {}
    for layer, call, module_name, attr in spans.TIMED_CALLS:
        owner = importlib.import_module(f"nmoptomech.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        targets[f"{layer}.{call}"] = owner
    for name, (_, factor) in spans.STEP_COUNTERS.items():
        params = inspect.signature(targets[name]).parameters
        assert "grid" in params, f"{name} no longer takes grid"
        assert factor is None or factor in params, f"{name} no longer takes {factor}"
