"""Batched scans: the points of a scan march together through one closed
coefficient march and one moment march, and agree with the same points
solved one at a time."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoptomech.cli_runner import _scan, main, parse_config
from nmoptomech.kernel import DeltaKernel, OUKernel
from nmoptomech.moments import integrate_moments, vacuum
from nmoptomech.ocoeff import solve_ocoeff, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid

# vectorizing changes rounding; the batched path must stay this close
TOL = 1e-12
GRID = TimeGrid(dt=0.01, t_final=10.0)
VAC = vacuum()


def _coefficients(F):
    return (F.F1, F.F2, F.F3, F.F4, F.F5)


def _assert_agrees(batched, points, grid):
    """``batched`` holds (F, moments, En) per point; ``points`` (kernel, system)."""
    for (F, moments, en), (k, s) in zip(batched, points, strict=True):
        Fp = solve_ocoeff(k, s, grid)
        tp = integrate_moments(Fp, s, VAC, grid)
        for got, want in zip(_coefficients(F), _coefficients(Fp)):
            assert np.abs(got - want).max() <= TOL
        assert np.abs(moments - tp.values).max() <= TOL
        assert np.abs(en - tp.en_series(monitor=False)).max() <= TOL


def _batch(kernels, systems, grid):
    F = solve_ou_closed(kernels, systems, grid)
    traj = integrate_moments(F, systems, VAC, grid)
    return [(F.point(p), traj.point(p).values, traj.point(p).en_series(monitor=False))
            for p in range(len(kernels))]


def test_environment_frequency_scan_matches_per_point():
    # fig4-like: the kernel's central frequency varies, the system is fixed
    kernels = [OUKernel(Gamma=0.4, gamma=1.0, Omega=w)
               for w in np.round(np.arange(0.0, 2.0001, 0.25), 10)]
    systems = [LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)] * len(kernels)
    got = _batch(kernels, systems, GRID)
    _assert_agrees(got, list(zip(kernels, systems)), GRID)


@pytest.mark.parametrize("include_f5", [True, False])
def test_closed_series_does_not_depend_on_batching(include_f5):
    # every point of a fig4-like batch has bitwise the series it has alone
    grid = TimeGrid(dt=0.01, t_final=4.0)
    kernels = [OUKernel(Gamma=0.4, gamma=1.0, Omega=w)
               for w in np.round(np.arange(0.0, 2.0001, 0.1), 10)]
    systems = [LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)] * len(kernels)
    batch = solve_ou_closed(kernels, systems, grid, include_f5=include_f5)
    for p, (k, s) in enumerate(zip(kernels, systems)):
        alone = solve_ou_closed(k, s, grid, include_f5=include_f5)
        assert (alone.F5 is None) == (not include_f5)
        for got, want in zip(_coefficients(batch.point(p)), _coefficients(alone)):
            assert got is want is None or np.array_equal(got, want)


def test_detuning_scan_matches_per_point():
    # fig5-like: one kernel, the detuning varies
    systems = [LinearizedSystem(omega_m=1.0, Delta=d, G=0.1)
               for d in np.round(np.arange(1.0, 3.0001, 0.25), 10)]
    kernels = [OUKernel(Gamma=4.0, gamma=1.5)] * len(systems)
    got = _batch(kernels, systems, GRID)
    _assert_agrees(got, list(zip(kernels, systems)), GRID)


def test_memory_rate_scan_with_markov_point_matches_per_point():
    # fig3-like, through the scan helper of the command line: the Markov
    # point has its own coefficient solve and joins the one moment march
    cfg = parse_config("[grid]\nt_final = 10.0\n", scenario="fig3")
    s = cfg.system()
    kernels = [cfg.bath_kernel(gamma=g) for g in (0.3, 0.6, 1.2)]
    kernels.append(DeltaKernel(cfg.decay))
    points = [(s, k, 0.0) for k in kernels]
    with pytest.warns(RuntimeWarning, match="dip at 1 of 4 scan points"):
        got = [(F, res.moments, res.en) for F, res in _scan(cfg, GRID, points)]
    assert got[-1][0].provenance == "markov-delta"
    _assert_agrees(got, [(k, s) for k in kernels], GRID)


_SPLIT_GRID = TimeGrid(dt=0.01, t_final=2.0)
_SPLIT_SYSTEMS = [LinearizedSystem(omega_m=1.0, Delta=d, G=0.1)
                  for d in (1.0, 1.4, 1.8, 2.2, 2.6)]
_SPLIT_KERNELS = [OUKernel(Gamma=2.0, gamma=0.6, Omega=w)
                  for w in (0.0, 0.3, 0.0, 0.6, 0.2)]


@functools.cache
def _whole_scan_en():
    return [en for _, _, en in _batch(_SPLIT_KERNELS, _SPLIT_SYSTEMS, _SPLIT_GRID)]


@settings(max_examples=8, deadline=None)
@given(st.lists(st.booleans(), min_size=4, max_size=4))
def test_scan_en_does_not_depend_on_how_points_are_batched(cuts):
    # cuts[i] ends a batch after point i
    bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [len(_SPLIT_SYSTEMS)]
    en = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        en += [e for _, _, e in _batch(_SPLIT_KERNELS[lo:hi], _SPLIT_SYSTEMS[lo:hi],
                                       _SPLIT_GRID)]
    for got, want in zip(en, _whole_scan_en(), strict=True):
        assert np.abs(got - want).max() <= TOL


def test_batched_moments_need_one_system_per_point():
    systems = _SPLIT_SYSTEMS[:2]
    F = solve_ou_closed(_SPLIT_KERNELS[:2], systems, _SPLIT_GRID)
    with pytest.raises(ValueError, match="one system per point"):
        integrate_moments(F, systems[:1], VAC, _SPLIT_GRID)


_DIP = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
decay = 2.0
gamma = 0.6
[run]
out = {out}
"""


def _dip_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    return [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning) and "physicality dip" in str(w.message)]


def test_scan_reports_a_physicality_dip_once(tmp_path):
    # at Gamma=2, gamma=0.6 the smallest symplectic eigenvalue dips to 1 - 1.5e-5;
    # both points of the sweep dip, and the run warns once for both
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_DIP.format(out=tmp_path / "sweep")
                   + "[sweep]\nparameter = omega_env\nvalues = 0.0, 0.05\n")
    (msg,) = _dip_warnings(["run", "--scenario", "custom", "--config", str(cfg)])
    assert msg.startswith("covariance physicality dip at 2 of 2 scan points: "
                          "min symplectic eigenvalue 0.9999")
    cfg.write_text(_DIP.format(out=tmp_path / "single"))
    (msg,) = _dip_warnings(["run", "--scenario", "custom", "--config", str(cfg)])
    assert msg.startswith("covariance physicality dip: min symplectic eigenvalue 0.99998")
