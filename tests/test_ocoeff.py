"""Coefficient solvers: closed exponential route, two-time grid route,
Markov constants, and the defining integro-differential relations."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nmoptomech.errors import NumericalFailure
from nmoptomech.kernel import KernelSpec, OUKernel
from nmoptomech.ocoeff import (
    _SLAB_BUDGET,
    consistency_residual,
    markov_series,
    solve_ocoeff,
    solve_ou_closed,
    solve_two_time_grid,
)
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid

SYS = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
OU = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0)


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
    Fg = solve_two_time_grid(KernelSpec(variant="ou", ou=OU), SYS, grid)
    for a, b in ((Fc.F1, Fg.F1), (Fc.F2, Fg.F2), (Fc.F3, Fg.F3),
                 (Fc.F4, Fg.F4), (Fc.F5, Fg.F5)):
        scale = max(np.max(np.abs(a)), 1e-12)
        assert np.max(np.abs(a - b)) / scale < 1e-3


def test_grid_solver_handles_tabulated_kernel():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    lags = np.linspace(0.0, 4.0, 4001)
    spec = KernelSpec.tabulated(lags, OU.alpha(lags))
    Fg = solve_two_time_grid(spec, SYS, grid)
    Fc = solve_ou_closed(OU, SYS, grid)
    assert np.max(np.abs(Fg.F1 - Fc.F1)) < 2e-3


def test_two_time_field_boundary_conditions():
    grid = TimeGrid(dt=0.02, t_final=3.0)
    F = solve_two_time_grid(KernelSpec(variant="ou", ou=OU), SYS, grid,
                            store_fields=True)
    res = F.fields.boundary_residual()
    assert res < 1e-12


def test_consistency_residual_small():
    # trapezoid re-quadrature of the stored field reproduces the series;
    # the check itself is lower order than the solver, hence the bound
    grid = TimeGrid(dt=0.01, t_final=3.0)
    F = solve_two_time_grid(KernelSpec(variant="ou", ou=OU), SYS, grid,
                            store_fields=True)
    assert consistency_residual(F, F.fields, KernelSpec(variant="ou", ou=OU),
                                SYS) < 1e-5


def test_dispatcher_routes_by_variant():
    grid = TimeGrid(dt=0.01, t_final=2.0)
    assert solve_ocoeff(KernelSpec(variant="ou", ou=OU), SYS, grid).provenance \
        == "closed-ou"
    assert solve_ocoeff(KernelSpec.markov(1.0), SYS, grid).provenance \
        == "markov-delta"
    lags = np.linspace(0.0, 2.0, 501)
    tab = KernelSpec.tabulated(lags, OU.alpha(lags))
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


@pytest.mark.parametrize("store_fields, include_f5, arrays", [
    (False, True, 1), (True, True, 6), (True, False, 4)])
def test_two_time_storage_guard_raises_before_allocating(store_fields, include_f5,
                                                         arrays):
    # the smallest grid whose n x n complex arrays exceed the budget; one
    # node fewer fits, but that side would allocate about 2 GB
    n = math.isqrt(_SLAB_BUDGET // (16 * arrays)) + 1
    assert 16 * arrays * (n - 1) ** 2 <= _SLAB_BUDGET < 16 * arrays * n ** 2
    grid = TimeGrid(dt=1.0, t_final=float(n - 1))
    assert grid.n_points == n
    tracemalloc.start()
    try:
        with pytest.raises(NumericalFailure, match=f"two-time storage would need "
                           f"{16 * arrays * n * n / 1e9:.1f} GB"):
            solve_two_time_grid(KernelSpec(variant="ou", ou=OU), SYS, grid,
                                include_f5=include_f5, store_fields=store_fields)
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
