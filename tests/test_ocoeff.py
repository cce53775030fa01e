"""Coefficient solvers: closed exponential route, two-time grid route,
Markov constants, and the defining integro-differential relations."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nmoptomech.ocoeff as oc
from nmoptomech import fock, thermal
from nmoptomech.errors import NumericalFailure
from nmoptomech.fock import basis_state, build_operators, propagate_ensemble
from nmoptomech.kernel import DeltaKernel, OUKernel, TabulatedKernel
import nmoptomech
from nmoptomech.ocoeff import (
    _SLAB_BUDGET,
    _row_matrix,
    markov_series,
    solve_ocoeff,
    solve_ou_closed,
    solve_two_time_grid,
)
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid
from nmoptomech.thermal import _half_transforms, _solve_thermal_grid
from oracles import (
    _row_rhs,
    boundary_residual,
    consistency_residual,
    reference_thermal_grid,
    reference_two_time_grid,
)

SYS = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
OU = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0)
_SRC = Path(nmoptomech.__file__).resolve().parents[1]


def ivp_oracle(k, sys_, grid):
    # independent integration of the same closed system with scipy
    a0, mu = k.alpha0, k.mu
    wm, de, g = sys_.omega_m, sys_.Delta, sys_.G

    def rhs(_, y):
        f1, f2, f3, f4, f5 = y
        return [
            a0 + (1j * wm - mu + f1) * f1 + 1j * g * (f3 - f4),
            (-1j * wm - mu + f1) * f2 + 1j * g * (f3 - f4) - f5,
            (-1j * de - mu + f1) * f3 + 1j * g * (f1 - f2),
            (1j * de - mu + f1) * f4 + 1j * g * (f1 - f2),
            a0 * f2 + (f1 - 2 * mu) * f5,
        ]

    sol = solve_ivp(rhs, (0.0, grid.t_final), np.zeros(5, complex),
                    t_eval=grid.times(), rtol=1e-10, atol=1e-12)
    return sol.y


def test_markov_series_constants():
    grid = TimeGrid(dt=0.1, t_final=2.0)
    F = markov_series(3.0, grid)
    assert np.all(F.F1 == 1.5)
    for other in (F.F2, F.F3, F.F4, F.F5):
        assert np.all(other == 0)
    assert F.provenance == "markov-delta"


def test_closed_solver_against_scipy():
    grid = TimeGrid(dt=0.01, t_final=10.0)
    F = solve_ou_closed(OU, SYS, grid)
    ref = ivp_oracle(OU, SYS, grid)
    for got, want in zip((F.F1, F.F2, F.F3, F.F4, F.F5), ref):
        assert np.max(np.abs(got - want)) < 1e-7


def test_closed_solver_oscillating_kernel():
    grid = TimeGrid(dt=0.01, t_final=8.0)
    k = OUKernel(Gamma=1.0, gamma=0.8, Omega=1.5)
    F = solve_ou_closed(k, SYS, grid)
    ref = ivp_oracle(k, SYS, grid)
    for got, want in zip((F.F1, F.F2, F.F3, F.F4, F.F5), ref):
        assert np.max(np.abs(got - want)) < 1e-7


def test_decoupled_cavity_terms_stay_zero():
    # G = 0 leaves the cavity rows unsourced
    grid = TimeGrid(dt=0.01, t_final=5.0)
    sys0 = LinearizedSystem(omega_m=1.0, Delta=0.7, G=0.0)
    F = solve_ou_closed(OU, sys0, grid)
    assert np.max(np.abs(F.F3)) == 0.0
    assert np.max(np.abs(F.F4)) == 0.0
    assert np.max(np.abs(F.F1)) > 0.1


def test_grid_solver_matches_closed_route():
    grid = TimeGrid(dt=0.01, t_final=6.0)
    Fc = solve_ou_closed(OU, SYS, grid)
    Fg = solve_two_time_grid(OU, SYS, grid)
    for a, b in ((Fc.F1, Fg.F1), (Fc.F2, Fg.F2), (Fc.F3, Fg.F3),
                 (Fc.F4, Fg.F4), (Fc.F5, Fg.F5)):
        scale = max(np.max(np.abs(a)), 1e-12)
        assert np.max(np.abs(a - b)) / scale < 1e-3


def test_grid_solver_handles_tabulated_kernel():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    lags = np.linspace(0.0, 4.0, 4001)
    spec = TabulatedKernel(lags, OU.alpha(lags))
    Fg = solve_two_time_grid(spec, SYS, grid)
    Fc = solve_ou_closed(OU, SYS, grid)
    assert np.max(np.abs(Fg.F1 - Fc.F1)) < 2e-3


def test_two_time_field_boundary_conditions():
    grid = TimeGrid(dt=0.02, t_final=3.0)
    _, fields = reference_two_time_grid(OU, SYS, grid, store_fields=True)
    res = boundary_residual(fields)
    assert res < 1e-12


def test_consistency_residual_small():
    # trapezoid re-quadrature of the stored field reproduces the series;
    # the check itself is lower order than the solver, hence the bound
    grid = TimeGrid(dt=0.01, t_final=3.0)
    F, fields = reference_two_time_grid(OU, SYS, grid, store_fields=True)
    assert consistency_residual(F, fields, SYS) < 1e-5


def test_dispatcher_routes_by_variant():
    grid = TimeGrid(dt=0.01, t_final=2.0)
    assert solve_ocoeff(OU, SYS, grid).provenance \
        == "closed-ou"
    assert solve_ocoeff(DeltaKernel(1.0), SYS, grid).provenance \
        == "markov-delta"
    lags = np.linspace(0.0, 2.0, 501)
    tab = TabulatedKernel(lags, OU.alpha(lags))
    assert solve_ocoeff(tab, SYS, grid).provenance == "two-time-grid"


def test_include_f5_false_omits_memory_column():
    grid = TimeGrid(dt=0.01, t_final=3.0)
    F = solve_ou_closed(OU, SYS, grid, include_f5=False)
    assert F.F5 is None
    # F2 is then sourced only through the coupling G
    sys0 = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    F0 = solve_ou_closed(OU, sys0, grid, include_f5=False)
    assert np.max(np.abs(F0.F2)) == 0.0


def test_stiffness_guard_raises():
    # bath resonant with the mirror at strong coupling: the coefficient
    # system passes through a pole and the fixed-step march must refuse
    grid = TimeGrid(dt=0.01, t_final=5.0)
    k = OUKernel(Gamma=2.0, gamma=1.0, Omega=1.0)
    with pytest.raises(NumericalFailure):
        solve_ou_closed(k, SYS, grid)


def test_two_time_storage_guard_raises_before_allocating():
    # the smallest grid whose n x n complex slab exceeds the budget; one
    # node fewer fits, but that side would allocate about 2 GB
    n = math.isqrt(_SLAB_BUDGET // 16) + 1
    assert 16 * (n - 1) ** 2 <= _SLAB_BUDGET < 16 * n ** 2
    grid = TimeGrid(dt=1.0, t_final=float(n - 1))
    assert grid.n_points == n
    tracemalloc.start()
    try:
        with pytest.raises(NumericalFailure, match=f"two-time storage would need "
                           f"{16 * n * n / 1e9:.1f} GB"):
            solve_two_time_grid(OU, SYS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_markov_limit_of_large_gamma():
    # stiff-memory kernels approach the delta-kernel constants
    grid = TimeGrid(dt=0.002, t_final=3.0)
    k = OUKernel(Gamma=2.0, gamma=200.0, Omega=0.0)
    F = solve_ou_closed(k, SYS, grid)
    late = slice(grid.n_points // 2, None)
    assert np.max(np.abs(F.F1[late] - 1.0)) < 0.02
    assert np.max(np.abs(F.F5[late])) < 1e-3


def _support_table(t_final, dt, support, tail=0.0, scale=1.0):
    # OU samples on the march's lag grid (so node lags hit table lags
    # exactly) up to ``support``, then ``tail`` out past t_final
    lags = np.arange(int(round(t_final / dt)) + 2) * dt
    values = scale * OU.alpha(lags)
    values[lags > support + 0.5 * dt] = tail
    return TabulatedKernel(lags, values)


@pytest.mark.parametrize("steps", [2 * oc._DELAY + oc._DELAY // 2 + 3, oc._DELAY // 2 - 1])
@pytest.mark.parametrize("finite", [False, True])
def test_delayed_slab_update_matches_per_step_fold(monkeypatch, steps, finite):
    # pending pairs left at the end (steps not a multiple of _DELAY), and a
    # grid shorter than one delay block; the finite table is also windowed
    grid = TimeGrid(dt=0.02, t_final=0.02 * steps)
    k = _support_table(grid.t_final, grid.dt, 0.6) if finite else OU
    runs = []
    for delay in (oc._DELAY, 1):
        monkeypatch.setattr(oc, "_DELAY", delay)
        runs.append(solve_two_time_grid(k, SYS, grid))
    F, G = runs
    for name in ("F1", "F2", "F3", "F4", "F5"):
        assert np.max(np.abs(getattr(F, name) - getattr(G, name))) <= 1e-13
    # the column writes, which both runs share: F5 follows the closed route
    # (1.5% apart at 15 steps; without the writes F5 stays zero).  The
    # reference march checks them on these grids too
    if not finite:
        Fc = solve_ou_closed(OU, SYS, grid)
        assert np.max(np.abs(F.F5 - Fc.F5)) < 0.05 * np.max(np.abs(Fc.F5))


def _assert_rows_agree(fast, ref, tol=1e-13):
    # every row relative to its own scale
    for a, b in zip(fast, ref, strict=True):
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


_SUPPORT_GRIDS = {
    # steps and support: the slide, pending pairs at the end and a partial
    # read block; a grid shorter than one fold block; a window longer than a
    # fold block; a window shorter than a read block
    "slide-fold": (2 * oc._DELAY + oc._DELAY // 2 + 3, 0.6),
    "short": (oc._DELAY // 2 - 1, 0.6),
    "long-window": (4 * oc._DELAY + 9, 1.0),
    "short-window": (2 * oc._DELAY + 5, 0.1),
}


@pytest.mark.parametrize("case", ["ou", "ou-no-f5", "ou-slide-fold", "ou-short",
                                  *_SUPPORT_GRIDS])
def test_grid_march_matches_the_reference_march(case):
    # the windowed march with its delayed, blocked slab reads and folds
    # against the per-step march over every s-row and the whole slab
    steps, support = _SUPPORT_GRIDS.get(case.removeprefix("ou-"), (300, None))
    grid = TimeGrid(dt=0.02, t_final=0.02 * steps)
    k = OU
    if not case.startswith("ou"):
        k = _support_table(grid.t_final, grid.dt, support)
        n, m = grid.n_points, _memory_nodes(k, grid)
        if case != "short":
            assert sum(L > m for L in range(oc._DELAY, n, oc._DELAY)) >= 1
            assert (n - 1) % oc._DELAY % (oc._DELAY // oc._READS)
    include_f5 = case != "ou-no-f5"
    F = solve_two_time_grid(k, SYS, grid, include_f5=include_f5)
    R, _ = reference_two_time_grid(k, SYS, grid, include_f5=include_f5)
    names = ("F1", "F2", "F3", "F4", "F5")[:5 if include_f5 else 4]
    _assert_rows_agree([getattr(F, f) for f in names], [getattr(R, f) for f in names])
    assert (F.F5 is None) is (not include_f5)


@pytest.mark.parametrize("windowed", [True, False])
def test_thermal_grid_march_matches_the_reference_march(windowed):
    # two baths of different support slide one window; with an exponential
    # partner the march keeps every row
    grid = TimeGrid(dt=0.02, t_final=0.02 * (4 * oc._DELAY + 9))
    first = _support_table(grid.t_final, grid.dt, 1.0)
    second = (_support_table(grid.t_final, grid.dt, 0.6, scale=0.3) if windowed
              else OUKernel(Gamma=0.6, gamma=0.9, Omega=0.5))
    X = _solve_thermal_grid((first, second), SYS, grid).X
    R = reference_thermal_grid((first, second), SYS, grid)
    _assert_rows_agree(X.reshape(len(X), -1).T, R.reshape(len(R), -1).T)


def test_row_coupling_product_matches_the_elementwise_equations():
    # the march's derivative K(F) @ rows, less F5' on the f2 row, against
    # the elementwise row equations, with F varying from row to row and
    # with one F for all rows through the march's own product
    rng = np.random.default_rng(11)
    rows, F = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((4, 300), (300, 4)))
    f5p = rng.normal(size=300) + 1j * rng.normal(size=300)
    wm, delta, g = 1.3, 0.7, 0.2
    d = np.einsum("ljk,kl->jl", _row_matrix(F, wm, delta, g), rows)
    d[1] -= f5p
    ref = _row_rhs(rows, F.T, f5p, wm, delta, g)
    assert np.max(np.abs(d - ref)) <= 1e-15 * np.max(np.abs(ref))
    d = np.einsum("jk,ikl->ijl", _row_matrix(F[0], wm, delta, g), rows[None])[0]
    d[1] -= f5p
    ref = _row_rhs(rows, F[0], f5p, wm, delta, g)
    assert np.max(np.abs(d - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("support, blocks, extra", [(0.1, 2, 5), (0.4, 3, 23), (1.0, 4, 9)])
def test_block_slab_reads_match_per_step_reads(monkeypatch, support, blocks, extra):
    # each read block (a quarter of a fold block) reads the slab once; one
    # step per block (_DELAY = 1) is the per-step read.  The windows: m
    # shorter than a read block (every window column of a step is written
    # inside its block), between a read block and a fold block, and longer
    # than a fold block.  Every run slides its window after a fold, and its
    # last read block is only partly full
    grid = TimeGrid(dt=0.02, t_final=0.02 * (blocks * oc._DELAY + extra))
    k = _support_table(grid.t_final, grid.dt, support)
    n, m, read = grid.n_points, _memory_nodes(k, grid), oc._DELAY // oc._READS
    assert [m < read, read < m < oc._DELAY, oc._DELAY < m] == [support == s for s in (0.1, 0.4, 1.0)]
    assert sum(L > m for L in range(oc._DELAY, n, oc._DELAY)) >= 2
    assert extra % read
    runs = []
    for delay in (oc._DELAY, 1):
        monkeypatch.setattr(oc, "_DELAY", delay)
        runs.append(solve_two_time_grid(k, SYS, grid))
    # relative to each series' scale: F5 of the shortest window is 1e-9
    for name in ("F1", "F2", "F3", "F4", "F5"):
        a, b = getattr(runs[0], name), getattr(runs[1], name)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    assert np.max(np.abs(runs[0].F5)) > 0.0


def _memory_nodes(k, grid):
    # the march's window m: one past the last lag with a nonzero sample
    t = grid.times()
    return 1 + max(np.flatnonzero(k.alpha(tau)).max() for tau in (t, t + 0.5 * grid.dt))


@pytest.mark.parametrize("t_final, support", [(3.0, 1.0), (8.0, 0.5), (1.2, 0.6)])
def test_window_of_finite_support_matches_full_memory(t_final, support):
    # a zero tail replaced by 1e-300 keeps every lag live, so that run
    # marches every row; the window must not change F by more than rounding.
    # The cases: the slab buffer moves 3 and 12 times, and once with a
    # buffer as large as the grid; n - m is never a multiple of _DELAY
    grid = TimeGrid(dt=0.02, t_final=t_final)
    short = _support_table(grid.t_final, grid.dt, support)
    full = _support_table(grid.t_final, grid.dt, support, tail=1e-300)
    n, m = grid.n_points, _memory_nodes(short, grid)
    moves = sum(L > m for L in range(oc._DELAY, n, oc._DELAY))
    assert moves >= 1 and (moves >= 3 or m + oc._DELAY + 1 >= n)
    assert (n - m) % oc._DELAY
    Fw = solve_two_time_grid(short, SYS, grid)
    Ff = solve_two_time_grid(full, SYS, grid)
    for name in ("F1", "F2", "F3", "F4", "F5"):
        assert np.max(np.abs(getattr(Fw, name) - getattr(Ff, name))) <= 1e-12
    # two baths of different support, no slab: the window is the longer one
    pair_w = (short, _support_table(grid.t_final, grid.dt, 0.6 * support, scale=0.3))
    pair_f = (full, _support_table(grid.t_final, grid.dt, 0.6 * support, tail=1e-300,
                                   scale=0.3))
    Xw = _solve_thermal_grid(pair_w, SYS, grid).X
    Xf = _solve_thermal_grid(pair_f, SYS, grid).X
    assert np.max(np.abs(Xw - Xf)) <= 1e-12


def test_slab_buffer_lifts_the_storage_guard_for_finite_support(monkeypatch):
    # with the budget just below one n x n slab, a table of finite support
    # still solves in its (m + _DELAY + 1)-square buffer, to the same bits,
    # while the exponential kernel's full memory is refused as before
    grid = TimeGrid(dt=0.02, t_final=6.0)
    n = grid.n_points
    table = _support_table(grid.t_final, grid.dt, 1.0)
    free = solve_two_time_grid(table, SYS, grid)
    monkeypatch.setattr(oc, "_SLAB_BUDGET", 16 * n * n - 1)
    tight = solve_two_time_grid(table, SYS, grid)
    for name in ("F1", "F2", "F3", "F4", "F5"):
        assert np.array_equal(getattr(tight, name), getattr(free, name))
    with pytest.raises(NumericalFailure, match=re.escape(
            f"two-time storage would need {16 * n * n / 1e9:.1f} GB, over the "
            f"{(16 * n * n - 1) / 1e9:.1f} GB budget; coarsen the grid or drop f5")):
        solve_two_time_grid(OU, SYS, grid)


def test_finite_support_march_keeps_a_window_sized_slab():
    # support 0.2 at dt 0.01 reaches back m = 21 nodes of 1,001: the solve
    # holds an M = 54 square slab (47 kB), not the 16 MB n x n one
    grid = TimeGrid(dt=0.01, t_final=10.0)
    table = _support_table(grid.t_final, grid.dt, 0.2)
    assert _memory_nodes(table, grid) == 21
    tracemalloc.start()
    try:
        F = solve_two_time_grid(table, SYS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(F.F5))
    assert peak < 2_000_000


@pytest.mark.parametrize("Gamma, dt, t_final, diverges_at", [
    (200.0, 0.1, 20.0, "0.500"), (25.0, 0.1, 20.0, None), (200.0, 0.01, 1.0, None)])
def test_grid_march_divergence_guard(Gamma, dt, t_final, diverges_at):
    # a kernel too sharp for the grid overflows the march within a few
    # steps; a weaker bath or a finer step marches through.  The overflow
    # is reported by the guard alone, with no RuntimeWarning on the way
    grid = TimeGrid(dt=dt, t_final=t_final)
    lags = np.arange(2 * grid.n_steps + 1) * (0.5 * dt)
    k = TabulatedKernel(lags, OUKernel(Gamma, 0.6).alpha(lags))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if diverges_at is None:
            F = solve_two_time_grid(k, SYS, grid)
            assert all(np.all(np.isfinite(getattr(F, f))) for f in ("F1", "F2", "F3", "F4", "F5"))
        else:
            with pytest.raises(NumericalFailure,
                               match=f"coefficient march diverged at t={diverges_at};"):
                solve_two_time_grid(k, SYS, grid)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_window_weights_are_built_once_per_window(monkeypatch):
    # past the first full window (lo > 1) the trapezoid weights repeat
    # every step: they are built twice a step only until then, and once
    # more for the last node, however long the grid
    real, calls = oc.trapezoid_weights, []
    monkeypatch.setattr(oc, "trapezoid_weights", lambda *a: calls.append(a) or real(*a))
    for t_final in (4.0, 8.0):
        grid = TimeGrid(dt=0.02, t_final=t_final)
        k = _support_table(grid.t_final, grid.dt, 1.0)
        m = _memory_nodes(k, grid)
        calls.clear()
        solve_two_time_grid(k, SYS, grid)
        assert m + 1 < grid.n_steps
        assert len(calls) == 2 * (m + 1) + 1


# the entries under the one BLAS rule, as the set-up and the call of a
# fresh process: the grid march's slab reads and folds, the thermal lag
# transforms, and the ensemble fold, whose (36, 256) @ (256, 36) products at
# dims (6,6) are large enough for OpenBLAS to split
_GUARDED = {
    "grid-march": (
        "from nmoptomech import LinearizedSystem, OUKernel, TabulatedKernel, TimeGrid\n"
        "from nmoptomech.ocoeff import solve_two_time_grid\n"
        "lags = np.arange(1001) * 0.005\n"
        "k = TabulatedKernel(lags, OUKernel(Gamma=2.0, gamma=0.6).alpha(lags))\n"
        "sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)\n",
        "solve_two_time_grid(k, sys_, TimeGrid(dt=0.01, t_final=6.0))"),
    "lag-transforms": (
        "from nmoptomech import OUKernel\n"
        "from nmoptomech.thermal import effective_kernels\n",
        "effective_kernels(OUKernel(Gamma=0.4, gamma=2.0), 0.1, fit=True)"),
    "ensemble-fold": (
        "from nmoptomech import LinearizedSystem, OUKernel, TimeGrid\n"
        "from nmoptomech.fock import basis_state, build_operators, propagate_ensemble\n"
        "from nmoptomech.ocoeff import solve_ou_closed\n"
        "sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)\n"
        "k, grid = OUKernel(Gamma=2.0, gamma=0.6), TimeGrid(dt=0.01, t_final=2.0)\n"
        "F, ops = solve_ou_closed(k, sys_, grid), build_operators((6, 6), sys_)\n",
        "propagate_ensemble(F, ops, k, basis_state((6, 6)), grid, 256, 7, store_every=1)"),
}


@pytest.mark.parametrize("entry", list(_GUARDED))
def test_guarded_entries_leave_no_blas_worker_busy(entry):
    # in a fresh process: CPU of threads other than the caller's, which an
    # OpenBLAS worker spends on a split product and on spinning after it.
    # The entry's products run on the caller, and no worker spins after them
    setup, call = _GUARDED[entry]
    code = ("import resource, time\n"
            "import numpy as np\n"
            f"{setup}"
            "def cpu():\n"
            "    r = resource.getrusage(resource.RUSAGE_SELF)\n"
            "    return r.ru_utime + r.ru_stime\n"
            "p, t = cpu(), time.thread_time()\n"
            f"{call}\n"
            "t = time.thread_time() - t\n"
            "print(cpu() - p - t, t)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(_SRC)})
    other, own = map(float, out.stdout.split())
    assert other < 0.02 + 0.1 * own, (other, own)


def _grid_march_calls():
    grid = TimeGrid(dt=0.1, t_final=20.0)
    lags = np.arange(2 * grid.n_steps + 1) * (0.5 * grid.dt)

    def march(Gamma):  # marches through at 25; diverges at t = 0.5 at 200
        return lambda: solve_two_time_grid(
            TabulatedKernel(lags, OUKernel(Gamma, 0.6).alpha(lags)), SYS, grid)

    return oc, march(25.0), march(200.0)


def _lag_transform_calls():
    omega = np.linspace(0.1, 20.0, 400)
    lags = np.linspace(0.0, 6.0, 41)
    return (thermal, lambda: _half_transforms(lags, omega, omega, omega),
            lambda: _half_transforms(lags, omega, omega[1:], omega))  # g1 too short


def _ensemble_fold_calls():
    dims, grid = (2, 2), TimeGrid(dt=0.05, t_final=1.0)
    F, ops = solve_ou_closed(OU, SYS, grid), build_operators(dims, SYS)
    return (fock,
            lambda: propagate_ensemble(F, ops, OU, basis_state(dims), grid, 8, 3),
            lambda: fock._ProjectorSum(1, 4).fold(0, 0, np.ones((3, 8))))  # psi not 4-dim


_GUARDED_CALLS = {"grid-march": _grid_march_calls, "lag-transforms": _lag_transform_calls,
                  "ensemble-fold": _ensemble_fold_calls}


@pytest.mark.parametrize("entry", list(_GUARDED_CALLS))
def test_guarded_entries_restore_the_blas_thread_count(entry, monkeypatch):
    # one thread inside each guarded call, in every OpenBLAS loaded (numpy's
    # and scipy's); the caller's counts after it, also when the call raises
    calls = oc._openblas_threads()
    if not calls:
        pytest.skip("no OpenBLAS is loaded")

    def counts():
        return [get() for get, _ in calls]

    module, run, fail = _GUARDED_CALLS[entry]()
    real, seen = oc._blas_on_caller, []

    @contextmanager
    def spy():
        with real():
            seen.append(counts())
            yield
            seen.append(counts())

    monkeypatch.setattr(module, "_blas_on_caller", spy)
    before = counts()
    run()
    assert counts() == before
    with pytest.raises((NumericalFailure, ValueError)):
        fail()
    assert counts() == before
    assert seen and all(c == [1] * len(calls) for c in seen)
