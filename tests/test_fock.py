"""Truncated number-basis oracle: operators, master equation,
trajectory unraveling, and ensemble averaging."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from nmoptomech import fock, kernel
from nmoptomech.errors import NumericalFailure, TruncationError
from nmoptomech.fock import (
    _master_generator,
    _propagate_states,
    _store_nodes,
    average_trajectories,
    basis_state,
    build_operators,
    integrate_master,
    moments_from_rho,
    projector,
    propagate_ensemble,
    propagate_paths,
)
from nmoptomech.kernel import (
    DeltaKernel,
    OUKernel,
    TabulatedKernel,
    _noise_blocks,
    path_seed,
)
from nmoptomech.moments import MOMENT_LABELS
from nmoptomech.ocoeff import markov_series, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid, rk4_step
from oracles import (
    dense_operator_products,
    integrate_lindblad,
    midpoint_values,
    to_quadratures,
    trace_distance,
    whole_noise_batch,
)

SYS = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
OU_MAIN = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0)


def test_ladder_commutator_structure():
    ops = build_operators((5, 4), SYS)
    comm = ops.a @ ops.ad - ops.ad @ ops.a
    # canonical on the retained levels, broken only at the cutoff
    na, nb = 5, 4
    diag = np.diag(comm).real.reshape(na, nb)
    assert np.allclose(diag[: na - 1], 1.0)
    assert np.allclose(diag[na - 1], 1.0 - na)
    assert np.allclose(comm - np.diag(np.diag(comm)), 0.0)


def test_number_operator_spectrum():
    ops = build_operators((3, 3), SYS)
    nb = ops.bd @ ops.b
    want = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=float)
    assert np.allclose(np.diag(nb).real, want)


def test_build_operators_validates_dims():
    with pytest.raises(ValueError):
        build_operators((1, 4), SYS)


def test_basis_state_and_moments():
    psi = basis_state((4, 4), na=1, nb=2)
    rho = projector(psi)
    ops = build_operators((4, 4), SYS)
    m = moments_from_rho(rho, ops)
    lab = MOMENT_LABELS.index
    assert m.dtype == np.float64
    # <n> = (<q^2> + <p^2>)/4 - 1/2 for each mode
    assert (m[lab("q1q1")] + m[lab("p1p1")]) / 4.0 - 0.5 == pytest.approx(1.0)
    assert (m[lab("q2q2")] + m[lab("p2p2")]) / 4.0 - 0.5 == pytest.approx(2.0)
    assert m[lab("q1")] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        basis_state((3, 3), na=3, nb=0)


def test_hamiltonian_matches_definition():
    ops = build_operators((4, 4), SYS)
    want = (
        -SYS.Delta * ops.ad @ ops.a
        + SYS.omega_m * ops.bd @ ops.b
        + SYS.G * (ops.ad + ops.a) @ (ops.bd + ops.b)
    )
    assert np.allclose(ops.H, want, atol=1e-14)
    assert np.allclose(ops.H, ops.H.conj().T, atol=1e-14)


def test_markov_master_equals_lindblad():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    dims = (6, 6)
    ops = build_operators(dims, SYS)
    rho0 = projector(basis_state(dims))
    F = markov_series(1.2, grid)
    r_m = integrate_master(F, ops, rho0, grid, store_every=20)
    r_l = integrate_lindblad(ops, 1.2, rho0, grid, store_every=20)
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(r_m.rhos, r_l.rhos))
    assert worst < 1e-12


def test_one_phonon_markov_decay():
    # G = 0: survival probability of |0,1> decays exactly at rate Gamma
    grid = TimeGrid(dt=0.005, t_final=4.0)
    sys0 = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    dims = (2, 4)
    ops = build_operators(dims, sys0)
    rho0 = projector(basis_state(dims, na=0, nb=1))
    Gamma = 0.7
    rt = integrate_lindblad(ops, Gamma, rho0, grid)
    n = (rt.moments[:, MOMENT_LABELS.index("q2q2")]
         + rt.moments[:, MOMENT_LABELS.index("p2p2")]) / 4.0 - 0.5
    want = np.exp(-Gamma * grid.times())
    assert np.max(np.abs(n - want)) < 1e-9


def test_master_preserves_trace_and_hermiticity():
    grid = TimeGrid(dt=0.01, t_final=6.0)
    dims = (7, 7)
    ops = build_operators(dims, SYS)
    F = solve_ou_closed(OU_MAIN, SYS, grid)
    rt = integrate_master(F, ops, projector(basis_state(dims)), grid)
    assert np.max(np.abs(rt.traces - 1.0)) < 1e-8
    rho = rt.final
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_truncation_guard_raises_with_hint():
    grid = TimeGrid(dt=0.01, t_final=12.0)
    dims = (4, 4)
    ops = build_operators(dims, SYS)
    F = solve_ou_closed(OU_MAIN, SYS, grid)
    with pytest.raises(TruncationError) as info:
        integrate_master(F, ops, projector(basis_state(dims)), grid)
    assert info.value.suggested_dims == (8, 8)


def test_zero_noise_trajectory_is_schroedinger():
    # silent bath, F = 0: the march must reproduce exp(-i H t)
    grid = TimeGrid(dt=0.002, t_final=2.0)
    dims = (5, 5)
    sysb = LinearizedSystem(omega_m=1.0, Delta=0.6, G=0.3)
    ops = build_operators(dims, sysb)
    silent = OUKernel(0.0, 0.5, 0.0)
    F = solve_ou_closed(silent, sysb, grid)
    psi0 = (basis_state(dims, 0, 0) + basis_state(dims, 1, 1)) / np.sqrt(2)
    path = propagate_paths(F, ops, silent, psi0, grid, 1, 3)
    want = expm(-1j * ops.H * grid.t_final) @ psi0
    assert np.max(np.abs(path.final[0] - want)) < 1e-8


def test_trajectory_norm_cap_fires_at_its_threshold():
    # the march is linear in psi0, so scaling psi0 moves the largest checked
    # amplitude (after the first and the last step) onto the 1e6 cap
    grid = TimeGrid(dt=0.05, t_final=0.15)
    dims = (3, 3)
    ops = build_operators(dims, SYS)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, SYS, grid)
    psi0 = basis_state(dims, 1, 0)
    unit = propagate_paths(F, ops, k, psi0, grid, 1, 7, store_every=1).states[0]
    worst = max(np.abs(unit[1]).max(), np.abs(unit[-1]).max())
    with pytest.raises(NumericalFailure, match="heavy-tailed norm"):
        propagate_paths(F, ops, k, psi0 * (1e6 / worst) * (1 + 1e-6), grid, 1, 7)
    path = propagate_paths(F, ops, k, psi0 * (1e6 / worst) * (1 - 1e-6), grid, 1, 7)
    assert np.abs(path.final).max() < 1e6


def _small_ensemble(dims, k):
    """Grid, operators and F series of the small ensemble tests."""
    grid = TimeGrid(dt=0.05, t_final=1.0)
    return grid, build_operators(dims, SYS), solve_ou_closed(k, SYS, grid)


def test_ensemble_mean_approaches_master():
    grid = TimeGrid(dt=0.02, t_final=4.0)
    dims = (6, 6)
    ops = build_operators(dims, SYS)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, SYS, grid)
    psi0 = basis_state(dims)
    avg = propagate_ensemble(F, ops, k, psi0, grid, 600, 4242, store_every=50)
    ref = integrate_master(F, ops, projector(psi0), grid, store_every=50)
    pairs = zip(avg.rhos, (ref.rho_at(i) for i in avg.node_indices))
    dists = [trace_distance(a, b) for a, b in pairs]
    assert dists[0] < 1e-12
    assert dists[-1] < 0.06
    assert np.all(avg.trace_se >= 0)


def test_ensemble_is_deterministic_for_fixed_seed():
    dims, k = (4, 4), OUKernel(1.0, 0.8, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    psi0 = basis_state(dims)
    a = propagate_ensemble(F, ops, k, psi0, grid, 64, 99, batch_size=64)
    b = propagate_ensemble(F, ops, k, psi0, grid, 64, 99, batch_size=64)
    # identical call: bitwise reproducible
    assert np.array_equal(a.rhos, b.rhos)
    # split batches reuse the same per-path noise streams; only the
    # round-off of the batch sums differs with batch width
    c = propagate_ensemble(F, ops, k, psi0, grid, 64, 99, batch_size=7)
    assert np.max(np.abs(a.rhos - c.rhos)) < 1e-12


def test_trace_distance_known_values():
    rho = projector(basis_state((3, 3), 0, 0))
    sig = projector(basis_state((3, 3), 1, 1))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-12)




def dense_master_generator(ops, fv):
    """The master-equation generator as dense d x d products (test oracle)."""
    H, a, ad, b, bd = ops.H, ops.a, ops.ad, ops.b, ops.bd
    od = (np.conj(fv[0]) * bd + np.conj(fv[1]) * b
          + np.conj(fv[2]) * ad + np.conj(fv[3]) * a)

    def gen(rho):
        p = rho @ od
        d = b @ p - p @ b
        return -1j * (H @ rho - rho @ H) + d + d.conj().T

    return gen


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (10, 10)])
def test_band_generator_matches_dense_formula(dims):
    rng = np.random.default_rng(sum(dims))
    ops = build_operators(dims, SYS)
    for _ in range(3):
        rho = random_hermitian(ops.dim, rng)
        fv = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = _master_generator(ops, fv)(rho)
        want = dense_master_generator(ops, fv)(rho)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(rho)


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (6, 4), (10, 10)])
@pytest.mark.parametrize("sys_", [SYS, LinearizedSystem(omega_m=1.3, Delta=-0.7, G=0.45)])
def test_single_mode_setup_equals_dense_products(dims, sys_):
    # H, the moment matrices and the drift products are krons of
    # single-mode products: against the dense d x d products only the signs
    # of zeros may differ (array_equal counts -0 as 0), and the band and
    # gather tables, which read nonzeros only, see the same entries
    ops = build_operators(dims, sys_)
    H, moments, drift = dense_operator_products(ops, sys_)
    for got, want in ((ops.H, H), (ops.moment_matrices, moments)):
        assert np.array_equal(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(np.nonzero(got), np.nonzero(want)))
    basis = dict(ops._drift_basis)
    for term, m in enumerate(drift, start=1):
        rows, cols = np.nonzero(m)
        assert set(np.unique(cols - rows).tolist()) <= set(basis)
        for o, diagonals in basis.items():
            assert np.array_equal(diagonals[term], np.diagonal(m, o))


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (10, 10)])
def test_band_moment_readout_matches_trace_contraction(dims):
    rng = np.random.default_rng(7)
    ops = build_operators(dims, SYS)
    rho = random_hermitian(ops.dim, rng)
    want = np.einsum("mij,ji->m", ops.moment_matrices, rho)
    got = ops.moment_vector(rho)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(rho)


def test_moment_vector_is_the_ladder_traces_in_quadratures():
    # the truncated quadrature products differ from the ladder moments on
    # the top levels; the read-out keeps the ladder identities
    rng = np.random.default_rng(34)
    ops = build_operators((3, 4), SYS)
    a, ad, b, bd = ops.a, ops.ad, ops.b, ops.bd
    ladder = [a, ad, b, bd, a @ a, a @ ad, a @ b, a @ bd,
              ad @ ad, ad @ b, ad @ bd, b @ b, b @ bd, bd @ bd]
    for _ in range(3):
        rho = random_hermitian(ops.dim, rng)
        rho /= np.trace(rho).real
        want = to_quadratures(np.array([np.trace(m @ rho) for m in ladder]))
        assert np.abs(want.imag).max() <= 1e-13
        got = ops.moment_vector(rho)
        assert np.abs(got - want.real).max() <= 1e-13 * np.linalg.norm(rho)


def test_master_march_matches_dense_generator_march():
    grid = TimeGrid(dt=0.01, t_final=2.0)
    dims = (6, 6)
    ops = build_operators(dims, SYS)
    F = solve_ou_closed(OU_MAIN, SYS, grid)
    rho0 = projector((basis_state(dims) + basis_state(dims, 1, 2)) / np.sqrt(2))
    rt = integrate_master(F, ops, rho0, grid, store_every=50)
    nodes = (F.F1, F.F2, F.F3, F.F4)
    mids = [midpoint_values(r) for r in nodes]
    rho = rho0
    worst = 0.0
    for k in range(grid.n_steps):
        if k in rt.store_idx:
            worst = max(worst, np.max(np.abs(rt.rho_at(k) - rho)))
        rho = rk4_step(rho, grid.dt,
                       *(dense_master_generator(ops, [r[j] for r in rows])
                         for rows, j in ((nodes, k), (mids, k), (nodes, k + 1))))
    worst = max(worst, np.max(np.abs(rt.final - rho)))
    assert grid.n_steps == 200
    assert worst < 1e-12


def _mixture(dims, p, na, nb):
    """(1 - p)|0,0><0,0| + p|na,nb><na,nb|."""
    return ((1 - p) * projector(basis_state(dims))
            + p * projector(basis_state(dims, na, nb)))


def test_master_guards_fire_at_their_thresholds():
    grid = TimeGrid(dt=0.01, t_final=0.2)
    dims = (4, 4)
    ops = build_operators(dims, SYS)
    F = solve_ou_closed(OU_MAIN, SYS, grid)
    rho0 = projector(basis_state(dims))
    tol = 1e-6
    with pytest.raises(NumericalFailure, match=r"trace drifted .* at t=0\.000"):
        integrate_master(F, ops, (1 + 1.01 * tol) * rho0, grid, trace_tol=tol)
    integrate_master(F, ops, (1 + 0.99 * tol) * rho0, grid, trace_tol=tol)
    leak = 1e-4
    with pytest.raises(TruncationError) as info:
        integrate_master(F, ops, _mixture(dims, 1.01 * leak, 0, 3), grid,
                         leak_tol=leak)
    assert info.value.suggested_dims == (8, 8)
    integrate_master(F, ops, _mixture(dims, 0.99 * leak, 0, 3), grid,
                     leak_tol=leak)


def test_density_matrix_marches_reject_non_hermitian_state():
    grid = TimeGrid(dt=0.01, t_final=0.1)
    dims = (3, 3)
    ops = build_operators(dims, SYS)
    rho0 = projector(basis_state(dims))
    rho0[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        integrate_master(markov_series(1.0, grid), ops, rho0, grid)
    with pytest.raises(ValueError, match="Hermitian"):
        integrate_lindblad(ops, 1.0, rho0, grid)


def dense_trajectory_rhs(ops, fv, z):
    """The trajectory drift as dense d x d products (test oracle):
    (-iH - sum_j F_j b^dag X_j + z b) psi, X = (b, b^dag, a, a^dag)."""
    bd = ops.bd
    amat = -1j * ops.H
    for c, x in zip(fv, (ops.b, ops.bd, ops.a, ops.ad)):
        amat = amat - c * (bd @ x)
    amat = amat + z * ops.b
    return lambda psi: amat @ psi


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (6, 6)])
def test_band_drift_march_matches_dense_drift_march(dims):
    grid = TimeGrid(dt=0.02, t_final=0.4)
    ops = build_operators(dims, SYS)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, SYS, grid)
    Z = whole_noise_batch(k, grid.refine(), [path_seed(11, sum(dims))])
    psi0 = (basis_state(dims) + basis_state(dims, 1, 1)) / np.sqrt(2)
    states = []
    _propagate_states(F, ops, [Z], psi0[:, None], grid,
                      _store_nodes(grid.n_points, 1),
                      lambda i, psi: states.append(psi[:, 0].copy()))
    nodes = (F.F1, F.F2, F.F3, F.F4)
    mids = [midpoint_values(r) for r in nodes]
    z = Z[:, 0]
    psi = psi0
    worst = np.max(np.abs(states[0] - psi))
    for s in range(grid.n_steps):
        psi = rk4_step(psi, grid.dt,
                       *(dense_trajectory_rhs(ops, [r[j] for r in rows], z[zi])
                         for rows, j, zi in ((nodes, s, 2 * s),
                                             (mids, s, 2 * s + 1),
                                             (nodes, s + 1, 2 * s + 2))))
        worst = max(worst, np.max(np.abs(states[s + 1] - psi))
                    / np.max(np.abs(psi)))
    assert grid.n_steps == 20
    assert worst < 1e-13


def test_ensemble_mean_is_bitwise_independent_of_batch_width():
    dims, k = (4, 4), OUKernel(1.0, 0.8, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    psi0 = basis_state(dims)
    m = 96
    runs = [average_trajectories(propagate_paths(
        F, ops, k, psi0, grid, m, 99, batch_size=b, store_every=5))
        for b in (7, 64, m)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].rhos, other.rhos)
        assert np.array_equal(runs[0].trace_mean, other.trace_mean)
        assert np.array_equal(runs[0].trace_se, other.trace_se)


def test_single_trajectory_equals_its_ensemble_path():
    # path j of an ensemble consumes the stream seeded by (master seed, j),
    # whatever batch it falls in, so path j marched alone is path j
    dims, k = (3, 4), OUKernel(2.0, 0.6, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    psi0 = basis_state(dims, 1, 0)
    paths = propagate_paths(F, ops, k, psi0, grid, 40, 5, batch_size=16,
                            store_every=4)
    alone = propagate_paths(F, ops, k, psi0, grid, 40, 5, batch_size=1,
                            store_every=4)
    assert np.array_equal(alone.node_indices, paths.node_indices)
    assert np.array_equal(alone.states, paths.states)


def test_empty_ensemble_has_no_mean(monkeypatch):
    dims, k = (3, 4), OUKernel(2.0, 0.6, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    empty = propagate_paths(F, ops, k, basis_state(dims), grid, 0, 5)
    assert empty.states.shape == (0, 2, ops.dim)
    with pytest.raises(ValueError, match="at least one trajectory"):
        average_trajectories(empty)
    # the streamed route fails before it draws any noise
    draws = []
    monkeypatch.setattr(fock, "_noise_blocks",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="at least one trajectory"):
        propagate_ensemble(F, ops, k, basis_state(dims), grid, 0, 5)
    assert draws == []


@pytest.mark.parametrize("route", [propagate_ensemble, propagate_paths])
def test_ensemble_rejects_an_f_series_on_another_grid(route, monkeypatch):
    grid = TimeGrid(dt=0.02, t_final=1.0)
    dims = (3, 4)
    ops = build_operators(dims, SYS)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, SYS, TimeGrid(dt=0.01, t_final=1.0))
    draws = []
    monkeypatch.setattr(fock, "_noise_blocks",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="must share one grid"):
        route(F, ops, k, basis_state(dims), grid, 8, 5)
    assert draws == []


@pytest.mark.parametrize("route", [propagate_ensemble, propagate_paths])
@pytest.mark.parametrize("batch_size", [0, -1])
def test_ensemble_rejects_a_batch_width_below_one(route, batch_size):
    # a negative width would march no batch and leave the result unset
    dims, k = (3, 4), OUKernel(2.0, 0.6, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    with pytest.raises(ValueError, match="batch_size"):
        route(F, ops, k, basis_state(dims), grid, 8, 5, batch_size=batch_size)


def test_ensemble_mean_matches_outer_product_mean():
    dims, k = (3, 4), OUKernel(2.0, 0.6, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    paths = propagate_paths(F, ops, k, basis_state(dims, 1, 0), grid, 50,
                            5, batch_size=16, store_every=4)
    avg = average_trajectories(paths)
    for j in range(len(avg.node_indices)):
        block = paths.states[:, j]
        want = np.einsum("pi,pj->pij", block, block.conj()).mean(axis=0)
        rho = avg.rhos[j]
        assert np.max(np.abs(rho - want)) <= 1e-14 * np.linalg.norm(want)
        norms = np.linalg.norm(block, axis=1) ** 2
        assert avg.trace_mean[j] == pytest.approx(norms.mean(), rel=1e-14)
        assert avg.trace_se[j] == pytest.approx(
            norms.std(ddof=1) / np.sqrt(len(paths.states)), rel=1e-12)


def test_streamed_mean_matches_per_path_mean_at_any_batch_width():
    dims, k = (4, 4), OUKernel(1.0, 0.8, 0.0)
    grid, ops, F = _small_ensemble(dims, k)
    psi0 = basis_state(dims)
    m = 96
    want = average_trajectories(propagate_paths(F, ops, k, psi0, grid, m, 99,
                                                store_every=5))
    for b in (7, 64, m):
        got = propagate_ensemble(F, ops, k, psi0, grid, m, 99, batch_size=b,
                                 store_every=5)
        assert np.array_equal(got.node_indices, want.node_indices)
        for rho, ref in zip(got.rhos, want.rhos):
            assert np.max(np.abs(rho - ref)) <= 1e-14 * np.linalg.norm(ref)
        np.testing.assert_allclose(got.trace_mean, want.trace_mean, rtol=1e-14)
        np.testing.assert_allclose(got.trace_se, want.trace_se, rtol=1e-12)


def test_streamed_ensemble_keeps_no_path_history():
    # every path's states at the 101 stored nodes would take
    # 1000 * 101 * 16 complex numbers, 25.9 MB
    grid = TimeGrid(dt=0.01, t_final=1.0)
    dims = (4, 4)
    ops = build_operators(dims, SYS)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, SYS, grid)
    tracemalloc.start()
    try:
        propagate_ensemble(F, ops, k, basis_state(dims), grid, 1000, 3,
                           store_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


_LAGS = np.linspace(0.0, 2.0, 41)


@pytest.mark.parametrize("k", [OU_MAIN, DeltaKernel(2.0),
                               TabulatedKernel(_LAGS, OU_MAIN.alpha(_LAGS))],
                         ids=["ou", "delta", "tabulated"])
def test_march_on_noise_blocks_equals_march_on_the_whole_array(k, monkeypatch):
    # blocks of 7 half-nodes against the oracle's whole array as one block
    monkeypatch.setattr(kernel, "_NOISE_BLOCK", 7)
    dims = (3, 3)
    grid, ops, F = _small_ensemble(dims, OU_MAIN)
    seeds = [path_seed(4, i) for i in range(5)]
    psi0 = np.repeat(basis_state(dims, 1, 0)[:, None], len(seeds), axis=1)
    store_idx = _store_nodes(grid.n_points, 3)
    runs = []
    for noise in (_noise_blocks(k, grid.refine(), seeds),
                  [whole_noise_batch(k, grid.refine(), seeds)]):
        states = []
        _propagate_states(F, ops, noise, psi0, grid, store_idx,
                          lambda i, psi: states.append(psi.copy()))
        runs.append(np.array(states))
    assert runs[0].shape == (len(store_idx), ops.dim, len(seeds))
    assert np.array_equal(runs[0], runs[1])


def test_streamed_ensemble_keeps_no_noise_history():
    # the whole-grid noise of one 32-path batch on 2,001 half-nodes, drawn
    # and coloured, would take 2 * 2001 * 32 * 16 B = 2.05 MB
    grid = TimeGrid(dt=0.02, t_final=20.0)
    dims = (2, 2)
    ops = build_operators(dims, SYS)
    F = solve_ou_closed(OU_MAIN, SYS, grid)
    psi0 = basis_state(dims)
    # a first short march, so that one-time set-up is not counted
    short = TimeGrid(dt=0.02, t_final=0.1)
    propagate_ensemble(solve_ou_closed(OU_MAIN, SYS, short), ops, OU_MAIN,
                       psi0, short, 32, 3)
    tracemalloc.start()
    try:
        propagate_ensemble(F, ops, OU_MAIN, psi0, grid, 32, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_number_basis_dip_warning_names_the_caller():
    # RhoTrajectory.en_series reads out through the moment engine; the
    # warning's location is the caller of the public read-out, not the package
    grid = TimeGrid(dt=0.1, t_final=1.0)
    moments = np.zeros((grid.n_points, 14))
    moments[:, [MOMENT_LABELS.index(x) for x in ("q1q1", "p1p1", "q2q2", "p2p2")]] = 0.9
    traj = fock.RhoTrajectory(grid=grid, store_idx=np.array([0]), rhos=np.zeros((1, 1, 1)),
                              moments=moments, traces=np.ones(grid.n_points))
    with pytest.warns(RuntimeWarning, match="physicality dip") as caught:
        traj.en_series()
    assert [w.filename for w in caught] == [__file__]
