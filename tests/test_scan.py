"""Batched scans: the points of a scan march together through one closed
coefficient march and one moment march, and agree with the same points
solved one at a time."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoptomech.cli_runner import _scan, main, parse_config
from nmoptomech.errors import NumericalFailure
from nmoptomech.kernel import DeltaKernel, OUKernel, TabulatedKernel
from nmoptomech.moments import integrate_moments, occupations, vacuum
from nmoptomech.ocoeff import OCoefficientSeries, solve_ocoeff, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid

# vectorizing changes rounding; the batched path must stay this close
TOL = 1e-12
GRID = TimeGrid(dt=0.01, t_final=10.0)
VAC = vacuum()


def _coefficients(F):
    return (F.F1, F.F2, F.F3, F.F4, F.F5)


def _en(traj):
    """En of a march; a physicality dip is not what these tests check."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "covariance physicality dip", RuntimeWarning)
        return traj.en_series()


def _assert_agrees(batched, points, grid):
    """``batched`` holds (F, moments, En) per point; ``points`` (kernel, system)."""
    for (F, moments, en), (k, s) in zip(batched, points, strict=True):
        Fp = solve_ocoeff(k, s, grid)
        tp = integrate_moments(Fp, s, VAC, grid)
        for got, want in zip(_coefficients(F), _coefficients(Fp)):
            assert np.abs(got - want).max() <= TOL
        assert np.abs(moments - tp.values).max() <= TOL
        assert np.abs(en - _en(tp)).max() <= TOL


def _batch(kernels, systems, grid):
    F = solve_ou_closed(kernels, systems, grid)
    traj = integrate_moments(F, systems, VAC, grid)
    return [(F.point(p), traj.point(p).values, _en(traj.point(p)))
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
        got = _scan(cfg, GRID, points, keep=True)
    assert got[-1][0].provenance == "markov-delta"
    for (F, res), k in zip(got, kernels, strict=True):
        Fp = solve_ocoeff(k, s, GRID)
        tp = integrate_moments(Fp, s, VAC, GRID)
        for a, b in zip(_coefficients(F), _coefficients(Fp)):
            assert np.abs(a - b).max() <= TOL
        for a, b in zip((res.n_cavity, res.n_mirror), occupations(tp.values)):
            assert np.abs(a - b).max() <= TOL
        assert np.abs(res.en - _en(tp)).max() <= TOL


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


_CUSTOM = "[system]\ndelta = 1.0\ncoupling = 0.1\n"
_LAGS = np.round(np.arange(0.0, 1.0, 0.01), 10)
_BATCHES = {
    # the bath of the dip test above dips at every point; the other points
    # keep the closed march in the stream
    "ou": [OUKernel(Gamma=2.0, gamma=0.6, Omega=w) for w in (0.0, 0.2, 0.4)],
    "tabulated": [OUKernel(Gamma=2.0, gamma=0.6),
                  TabulatedKernel(_LAGS, OUKernel(2.0, 0.6).alpha(_LAGS))],
    "delta": [OUKernel(Gamma=2.0, gamma=0.6), DeltaKernel(2.0),
              OUKernel(Gamma=1.0, gamma=1.2, Omega=0.3)],
}


def _recorded(run):
    """(result, [(message, filename) of each physicality-dip warning])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [(str(w.message), w.filename) for w in caught
                 if "physicality dip" in str(w.message)]


@pytest.mark.parametrize("batch", _BATCHES)
@pytest.mark.parametrize("t_final", [0.02, 30.0])
def test_streamed_scan_equals_the_stored_route(batch, t_final):
    # 3 nodes (fewer than the 4-node stencil) and 3,001 (not a multiple of
    # the block length, and long enough to dip); the stored route keeps
    # every point's series and moments and reads En out at the end
    grid = TimeGrid(dt=0.01, t_final=t_final)
    cfg = parse_config(_CUSTOM, scenario="custom")
    kernels = _BATCHES[batch]
    systems = [LinearizedSystem(omega_m=1.0, Delta=1.0 + 0.3 * p, G=0.1)
               for p in range(len(kernels))]
    points = [(s, k, 0.0) for s, k in zip(systems, kernels)]
    series = OCoefficientSeries.batch([solve_ocoeff(k, s, grid) for k, s in zip(kernels, systems)])
    traj = integrate_moments(series, systems, VAC, grid)
    want, want_dips = _recorded(traj.en_series)
    n_cav, n_mec = occupations(np.moveaxis(traj.values, 1, 2))
    assert (len(want_dips) == 1) == (t_final > 1.0)
    for keep in (False, True):
        got, dips = _recorded(lambda: _scan(cfg, grid, points, keep=keep))
        assert dips == [(msg, __file__) for msg, _ in want_dips]
        for p, (F, res) in enumerate(got):
            assert np.array_equal(res.times, grid.times())
            assert np.array_equal(res.en, want[:, p])
            if keep:
                assert np.array_equal(F.F1, series.F1[:, p])
                assert np.array_equal(res.n_cavity, n_cav[:, p])
                assert np.array_equal(res.n_mirror, n_mec[:, p])
            else:
                assert F is res.n_cavity is res.n_mirror is None


def test_streamed_scan_raises_the_closed_failure_before_a_solved_point_fails():
    # as in a whole solve, the closed march's stiffness comes first; a
    # tabulated point on a grid it diverges on fails alone otherwise
    grid = TimeGrid(dt=0.01, t_final=4.0)
    cfg = parse_config(_CUSTOM, scenario="custom")
    s = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    lags = np.round(np.arange(0.0, 4.0, 0.01), 10)
    wild = TabulatedKernel(lags, 2e4 * OUKernel(2.0, 0.6).alpha(lags))
    with pytest.raises(NumericalFailure) as alone:
        solve_ocoeff(wild, s, grid)
    for stiff, message in ((OUKernel(2.0, 1.0, Omega=1.0), "closed coefficient system is stiff"),
                           (OUKernel(2.0, 0.6), str(alone.value))):
        for keep in (False, True):
            with pytest.raises(NumericalFailure, match=message):
                _scan(cfg, grid, [(s, wild, 0.0), (s, stiff, 0.0)], keep=keep)


def test_streamed_fig4_scan_keeps_no_per_point_history():
    # 21 points x 3,001 nodes: the stored route held 192 B a node a point
    # (12.1 MB); the streamed scan holds En and a block of each stage
    cfg = parse_config("", scenario="fig4")
    grid, s = cfg.grid(), cfg.system()
    points = [(s, cfg.bath_kernel(omega_env=w), 0.0)
              for w in np.round(np.arange(0.0, 2.0001, 0.1), 10)]
    assert (len(points), grid.n_points) == (21, 3001)
    tracemalloc.start()
    try:
        _scan(cfg, grid, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
