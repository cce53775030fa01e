"""Finite-temperature layer: occupation law, effective kernel pair,
two-bath coefficient system, and the two-bath master equation."""

import numpy as np
import pytest
from scipy.integrate import quad

from nmoptomech import thermal
from nmoptomech.errors import NumericalFailure, TruncationError
from nmoptomech.fock import (
    _thermal_generator,
    basis_state,
    build_operators,
    integrate_master,
    integrate_thermal_master,
    projector,
)
from nmoptomech.kernel import DeltaKernel, OUKernel, TabulatedKernel
from nmoptomech.ocoeff import solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid, rk4_step
from nmoptomech.thermal import (
    _fit_exponential,
    _half_transforms,
    _solve_thermal_closed,
    _solve_thermal_grid,
    EffectiveKernels,
    ThermalOCoefficients,
    effective_kernels,
    solve_thermal_ocoeff,
    thermal_occupation,
)
from oracles import midpoint_values, rho_at

SYS = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)


def test_occupation_values():
    assert thermal_occupation(1.0, 0.0) == 0.0
    # w/T = ln 2 puts exactly one quantum in the mode
    assert thermal_occupation(np.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)
    # classical limit T/w - 1/2 + O(w/T)
    assert thermal_occupation(0.1, 1.0) == pytest.approx(9.5083, abs=1e-4)
    got = thermal_occupation(np.array([1.0, 2.0]), 1.0)
    assert got.shape == (2,)
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -0.5)


def test_effective_kernels_zero_t_bypass():
    base = OUKernel(Gamma=1.5, gamma=0.9, Omega=0.4)
    a1, a2 = effective_kernels(base, 0.0)
    assert a1 == base
    assert a2.Gamma == 0.0
    assert a2.alpha(1.3 - 0.2) == 0.0
    with pytest.raises(ValueError):
        effective_kernels(base, -1.0)


def test_effective_kernels_match_quadrature_oracle():
    base = OUKernel(Gamma=2.0, gamma=0.6, Omega=1.0)
    T = 0.8
    ek = effective_kernels(base, T)
    assert isinstance(ek.alpha1, TabulatedKernel)
    lo, hi = ek.omega_window

    def dens(w):
        return (base.Gamma * base.gamma**2 / (2 * np.pi)) / (
            (w - base.Omega) ** 2 + base.gamma**2)

    for tau in (0.0, 0.35, 1.2):
        want1 = (
            quad(lambda w: dens(w) * (thermal_occupation(w, T) + 1)
                 * np.cos(w * tau), lo, hi, limit=400)[0]
            - 1j * quad(lambda w: dens(w) * (thermal_occupation(w, T) + 1)
                        * np.sin(w * tau), lo, hi, limit=400)[0])
        want2 = (
            quad(lambda w: dens(w) * thermal_occupation(w, T)
                 * np.cos(w * tau), lo, hi, limit=400)[0]
            + 1j * quad(lambda w: dens(w) * thermal_occupation(w, T)
                        * np.sin(w * tau), lo, hi, limit=400)[0])
        assert abs(ek.alpha1.alpha(tau) - want1) < 1e-10
        assert abs(ek.alpha2.alpha(tau) - want2) < 1e-10


def test_effective_kernels_hermitian():
    ek = effective_kernels(OUKernel(Gamma=2.0, gamma=0.6, Omega=1.0), 0.8)
    for k in ek:
        v = k.alpha(0.3 - 0.7)
        assert abs(v - np.conj(k.alpha(0.7 - 0.3))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 41])
def test_lag_transform_rounds_every_lag_as_one_product(n):
    # chunks of 2..4 lags: no lag goes through a one-row product
    rng = np.random.default_rng(n)
    omega = np.sort(rng.uniform(0.01, 40.0, 300))
    g1, g2 = rng.random(300), rng.random(300)
    lags = np.linspace(0.0, 6.0, n)
    e = np.exp(np.multiply.outer(lags, -1j * omega))
    a1, a2 = _half_transforms(lags, omega, g1, g2)
    np.testing.assert_array_equal(a1, e @ g1)
    np.testing.assert_array_equal(a2, np.conj(e @ g2))


def test_exponential_fit_recovers_detuned_bath():
    # far-detuned bath at low occupation: alpha1 is nearly the bare
    # kernel and the single-exponential reduction must find it
    base = OUKernel(Gamma=2.0, gamma=0.6, Omega=8.0)
    ek = effective_kernels(base, 1.0, fit=True)
    assert isinstance(ek.alpha1, OUKernel)
    assert ek.fit_residuals[0] < 0.05
    f = ek.alpha1
    assert f.Gamma == pytest.approx(2.0, rel=0.05)
    assert f.gamma == pytest.approx(0.6, rel=0.05)
    assert f.Omega == pytest.approx(8.0, rel=1e-3)
    # absorption kernel weight stays at the occupation scale
    a2 = ek.alpha2
    assert a2.Gamma * a2.gamma / 2 < 0.02


def test_fit_transforms_only_the_lags_it_reads(monkeypatch):
    # the fit reads the lags up to 5/gamma and the probe 17 strided lags:
    # only those are transformed, and the fitted pair keeps every bit of
    # the fit of the whole table
    J, T = OUKernel(Gamma=0.4, gamma=2.0), 0.1
    counts = []
    monkeypatch.setattr(thermal, "_half_transforms",
                        lambda lags, *a: counts.append(len(lags)) or _half_transforms(lags, *a))
    full = effective_kernels(J, T)
    ek = effective_kernels(J, T, fit=True)
    lags = full.alpha1.lags
    read = np.count_nonzero(lags <= 5.0 / J.gamma)
    assert counts == [len(lags), 17, read + np.count_nonzero(lags[::250] > 5.0 / J.gamma), 17]
    assert read < 0.5 * len(lags)
    for got, table, r, label in zip(ek, full, ek.fit_residuals, ("alpha1", "alpha2")):
        assert (got, r) == _fit_exponential(lags, table.values, 5.0 / J.gamma, label)


def test_kernel_pair_rejects_unphysical_zero_lag():
    lags = np.linspace(0.0, 5.0, 64)
    good = TabulatedKernel(lags, np.exp(-lags) + 0j)
    bad = TabulatedKernel(lags, -np.exp(-lags) + 0j)
    with pytest.raises(ValueError, match=r"alpha2\(0\) must be real and nonnegative"):
        EffectiveKernels(alpha1=good, alpha2=bad)
    with pytest.raises(ValueError, match=r"alpha1\(0\) must be real"):
        EffectiveKernels(alpha1=TabulatedKernel(lags, 1j * np.exp(-lags)),
                         alpha2=good)


def test_zero_temperature_coefficients_have_silent_second_bath():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    pair = effective_kernels(OUKernel(Gamma=1.0, gamma=0.8, Omega=0.0), 0.0)
    X = solve_thermal_ocoeff(pair, SYS, grid)
    assert np.max(np.abs(X.X[:, 1])) == 0.0
    assert np.max(np.abs(X.X[:, 0])) > 0.01


def test_closed_stiffness_guard_raises_and_refining_clears_it():
    # a strongly coupled bath (Gamma=20): at dt=0.01 the full step and the
    # two half steps part by more than the guard allows; the advised
    # refinement of dt then marches through
    pair = effective_kernels(OUKernel(Gamma=20.0, gamma=1.0, Omega=0.0), 0.0)
    with pytest.raises(NumericalFailure, match="closed thermal system is stiff"):
        solve_thermal_ocoeff(pair, SYS, TimeGrid(dt=0.01, t_final=1.0))
    X = solve_thermal_ocoeff(pair, SYS, TimeGrid(dt=0.002, t_final=1.0))
    assert np.all(np.isfinite(X.X))


def test_markov_pair_short_circuits_to_constants():
    grid = TimeGrid(dt=0.01, t_final=2.0)
    nbar = thermal_occupation(1.0, 1.0)
    pair = (DeltaKernel(0.4 * (nbar + 1)), DeltaKernel(0.4 * nbar))
    X = solve_thermal_ocoeff(pair, SYS, grid)
    assert X.provenance == "markov-delta"
    assert np.max(np.abs(X.X - X.X[0])) == 0.0
    assert X.series(1, 3)[0] == pytest.approx(0.31639534137386527, abs=1e-15)
    assert np.allclose(X.X[0, 0], 0.5 * 0.4 * (nbar + 1) * np.array([1, 0, 1, 0]))
    assert np.allclose(X.X[0, 1], 0.5 * 0.4 * nbar * np.array([0, 1, 0, 1]))


def test_closed_and_grid_solvers_agree():
    grid = TimeGrid(dt=0.01, t_final=5.0)
    pair = (OUKernel(1.2, 0.8, 0.0), OUKernel(0.5, 1.1, 0.3))
    Xc = _solve_thermal_closed(pair, SYS, grid)
    Xg = _solve_thermal_grid(pair, SYS, grid)
    assert Xc.provenance == "closed-exponential"
    assert Xg.provenance == "two-time-grid"
    assert np.max(np.abs(Xc.X - Xg.X)) < 5e-4


def test_thermal_solver_follows_the_kernel_pair():
    grid = TimeGrid(dt=0.02, t_final=1.0)
    ek = effective_kernels(OUKernel(Gamma=2.0, gamma=0.6, Omega=1.0), 0.8)
    assert solve_thermal_ocoeff(ek, SYS, grid).provenance == "two-time-grid"
    pair = (OUKernel(1.2, 0.8, 0.0), DeltaKernel(0.3))
    assert solve_thermal_ocoeff(pair, SYS, grid).provenance == "closed-exponential"


def test_thermal_master_preserves_trace_and_hermiticity():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    pair = (OUKernel(0.8, 1.0, 0.0), OUKernel(0.3, 1.2, 0.5))
    X = solve_thermal_ocoeff(pair, SYS, grid)
    dims = (6, 6)
    ops = build_operators(dims, SYS)
    rt = integrate_thermal_master(X, ops, projector(basis_state(dims)), grid,
                                  store_every=100, leak_tol=1e-2)
    assert np.max(np.abs(rt.traces - 1.0)) < 1e-12
    assert np.max(np.abs(rt.final - rt.final.conj().T)) < 1e-12


def test_mirror_only_channel_reproduces_single_bath_dynamics():
    # with the cavity rows of the coefficient tensor silenced, the
    # two-bath state equation must collapse onto the single-bath one
    sys0 = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    grid = TimeGrid(dt=0.01, t_final=4.0)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys0, grid,
                        include_f5=False)
    n = grid.n_points
    Xs = np.zeros((n, 2, 4), dtype=complex)
    Xs[:, 0, 2] = F.F1
    Xs[:, 0, 3] = F.F2
    Xij = ThermalOCoefficients(grid=grid, X=Xs, provenance="constructed")
    dims = (4, 6)
    ops = build_operators(dims, sys0)
    rho0 = projector(basis_state(dims))
    ra = integrate_thermal_master(Xij, ops, rho0, grid, store_every=50)
    rb = integrate_master(F, ops, rho0, grid, store_every=50)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(ra.rhos, rb.rhos))
    assert worst < 1e-6
    assert np.max(np.abs(ra.moments - rb.moments)) < 1e-6


def dense_thermal_generator(ops, x):
    """The two-bath generator as dense d x d products (test oracle)."""
    H = ops.H
    L = ops.a + ops.b
    Ld = L.conj().T
    basis = (ops.a, ops.ad, ops.b, ops.bd)
    dag_basis = (ops.ad, ops.a, ops.bd, ops.b)
    o1 = sum(c * m for c, m in zip(x[0:4], basis))
    o1d = sum(np.conj(c) * m for c, m in zip(x[0:4], dag_basis))
    o2 = sum(c * m for c, m in zip(x[4:8], basis))
    o2d = sum(np.conj(c) * m for c, m in zip(x[4:8], dag_basis))

    def gen(rho):
        p1, q1, p2, q2 = rho @ o1d, o1 @ rho, rho @ o2d, o2 @ rho
        return (-1j * (H @ rho - rho @ H)
                + (L @ p1 - p1 @ L) + (q1 @ Ld - Ld @ q1)
                + (Ld @ p2 - p2 @ Ld) + (q2 @ L - L @ q2))

    return gen


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (10, 10)])
def test_band_thermal_generator_matches_dense_formula(dims):
    # with one slot the state has no cross-parity entries, which the
    # compact round trip drops
    rng = np.random.default_rng(sum(dims))
    ops = build_operators(dims, SYS)
    for lay in (ops._parity_layout(k) for k in (1, 2) for _ in range(3)):
        m = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
        rho = lay.expand(lay.compact(m + m.conj().T))
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        got = lay.expand(_thermal_generator(ops, lay, x)(lay.compact(rho)))
        want = dense_thermal_generator(ops, x)(rho)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(rho)


def _two_bath_coefficients(grid):
    pair = (OUKernel(0.8, 1.0, 0.0), OUKernel(0.3, 1.2, 0.5))
    return solve_thermal_ocoeff(pair, SYS, grid)


def test_thermal_march_matches_dense_generator_march():
    # (|0,0> + |1,1>)/sqrt 2 marches in one slot; (|0,0> + |1,2>)/sqrt 2, a
    # mixed-parity start, in two; the odd d = 15 pads its parity lists (it
    # leaks, as such a small basis must)
    for dims, leak_tol, start in (((6, 6), 1e-2, (1, 1)), ((6, 6), 1e-2, (1, 2)),
                                  ((3, 5), 1.0, (1, 1)), ((3, 5), 1.0, (1, 2))):
        _thermal_march_against_dense(dims, leak_tol, start)


def _thermal_march_against_dense(dims, leak_tol, start):
    grid = TimeGrid(dt=0.01, t_final=2.0)
    X = _two_bath_coefficients(grid)
    ops = build_operators(dims, SYS)
    rho0 = projector((basis_state(dims) + basis_state(dims, *start)) / np.sqrt(2))
    rt = integrate_thermal_master(X, ops, rho0, grid, store_every=50,
                                  leak_tol=leak_tol)
    assert set(ops._layouts) == {1 if start == (1, 1) else 2}
    nodes = [X.X[:, i, j] for i in range(2) for j in range(4)]
    mids = [midpoint_values(r) for r in nodes]
    rho = rho0
    worst = 0.0
    for k in range(grid.n_steps):
        if k in rt.store_idx:
            worst = max(worst, np.max(np.abs(rho_at(rt, k) - rho)))
        rho = rk4_step(rho, grid.dt,
                       *(dense_thermal_generator(ops, [r[j] for r in rows])
                         for rows, j in ((nodes, k), (mids, k), (nodes, k + 1))))
    worst = max(worst, np.max(np.abs(rt.final - rho)))
    assert grid.n_steps == 200
    assert worst < 1e-12


def test_thermal_guards_fire_at_their_thresholds():
    grid = TimeGrid(dt=0.01, t_final=0.2)
    X = _two_bath_coefficients(grid)
    dims = (4, 4)
    ops = build_operators(dims, SYS)
    vac = projector(basis_state(dims))
    tol = 1e-6
    with pytest.raises(NumericalFailure, match=r"trace drifted .* at t=0\.000"):
        integrate_thermal_master(X, ops, (1 + 1.01 * tol) * vac, grid, trace_tol=tol)
    integrate_thermal_master(X, ops, (1 + 0.99 * tol) * vac, grid, trace_tol=tol)
    leak = 1e-3
    top = projector(basis_state(dims, 3, 0))
    with pytest.raises(TruncationError) as info:
        integrate_thermal_master(X, ops, (1 - 1.01 * leak) * vac + 1.01 * leak * top,
                                 grid, leak_tol=leak)
    assert info.value.suggested_dims == (8, 8)
    integrate_thermal_master(X, ops, (1 - 0.99 * leak) * vac + 0.99 * leak * top,
                             grid, leak_tol=leak)
