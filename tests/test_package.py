"""The public surface: every name that an ``__all__`` lists exists, every
call that the benchmark tracer wraps is still there, and no oracle ships."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nmoptomech

# __main__ runs the command line on import
_MODULES = ["nmoptomech"] + [f"nmoptomech.{m.name}"
                             for m in pkgutil.iter_modules(nmoptomech.__path__)
                             if m.name != "__main__"]
_SRC = Path(nmoptomech.__file__).resolve().parents[1]


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


def test_import_loads_no_scipy():
    # scipy is a test dependency only
    code = ("import sys, nmoptomech; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", _MODULES)
def test_single_path_route_and_oracles_are_gone(module):
    # the oracles, the per-path trajectory route and the stored two-time
    # fields live in tests/oracles.py
    gone = ("propagate_trajectory", "NoisePath", "sample_noise_path", "integrate_lindblad",
            "consistency_residual", "midpoint_values", "midpoint_derivative",
            "min_symplectic_eigenvalue", "pt_min_symplectic_eigenvalue",
            "two_mode_squeezed_covariance", "trace_distance",
            "propagate_paths", "StatePath", "TwoTimeField")
    module = importlib.import_module(module)
    assert [n for n in gone if hasattr(module, n)] == []
    assert not hasattr(getattr(module, "MomentTrajectory", None), "en_at")
    assert not hasattr(getattr(module, "RhoTrajectory", None), "rho_at")
    series = getattr(module, "OCoefficientSeries", None)
    assert not hasattr(series, "batch")
    assert series is None or "fields" not in {f.name for f in dataclasses.fields(series)}
    grid_march = getattr(module, "solve_two_time_grid", None)
    assert grid_march is None or "store_fields" not in inspect.signature(grid_march).parameters
    thermal = getattr(module, "ThermalOCoefficients", None)
    assert not hasattr(thermal, "X1") and not hasattr(thermal, "X2")
