"""Second-moment evolution and the covariance extraction."""

import warnings

import numpy as np
import pytest

from nmoptomech.gaussian_ent import (
    log_negativity,
    symplectic_readout,
    two_mode_squeezed_covariance,
)
from nmoptomech.kernel import OUKernel
from nmoptomech.moments import (
    DIP_TOL,
    MOMENT_LABELS,
    MomentTrajectory,
    _affine_basis,
    _moment_rhs,
    coherent,
    conjugation_residual,
    covariances,
    integrate_moments,
    vacuum,
)
from nmoptomech.ocoeff import OCoefficientSeries, markov_series, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid


def test_vacuum_moments():
    v = vacuum()
    assert v[MOMENT_LABELS.index("aad")] == 1.0
    assert v[MOMENT_LABELS.index("bbd")] == 1.0
    assert np.count_nonzero(v) == 2
    assert conjugation_residual(v) == 0.0


def test_coherent_moments_factorize():
    v = coherent(0.3 + 0.4j, -0.2j)
    lab = MOMENT_LABELS.index
    assert v[lab("a")] == pytest.approx(0.3 + 0.4j)
    assert v[lab("ab")] == pytest.approx((0.3 + 0.4j) * (-0.2j))
    assert v[lab("aad")] == pytest.approx(abs(0.3 + 0.4j) ** 2 + 1.0)
    assert v[lab("adb")] == pytest.approx((0.3 - 0.4j) * (-0.2j))
    assert conjugation_residual(v) < 1e-15


def test_vacuum_covariance_is_identity():
    V = covariances(vacuum())
    assert np.allclose(V, np.eye(4), atol=1e-14)


def test_two_mode_squeezed_moments_covariance():
    # build the ladder moments of a two-mode squeezed state by hand and
    # compare with the quadrature-side constructor
    r = 0.45
    ch, sh = np.cosh(r), np.sinh(r)
    v = np.zeros(14, dtype=complex)
    lab = MOMENT_LABELS.index
    v[lab("aad")] = ch ** 2
    v[lab("bbd")] = ch ** 2
    v[lab("ab")] = ch * sh
    v[lab("adbd")] = ch * sh
    V = covariances(v)
    assert np.allclose(V, two_mode_squeezed_covariance(r), atol=1e-12)


def test_thermal_mirror_covariance_block():
    # n = 0.5 in the mirror: B block is (2 n + 1) I
    v = np.zeros(14, dtype=complex)
    v[MOMENT_LABELS.index("aad")] = 1.0
    v[MOMENT_LABELS.index("bbd")] = 1.5
    V = covariances(v)
    assert np.allclose(V[2:4, 2:4], np.diag([2.0, 2.0]), atol=1e-14)
    assert np.allclose(V[0:2, 0:2], np.eye(2), atol=1e-14)
    assert np.allclose(V[0:2, 2:4], 0.0, atol=1e-14)


def test_free_evolution_preserves_vacuum():
    grid = TimeGrid(dt=0.01, t_final=4.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=0.8, G=0.0)
    k = OUKernel(Gamma=0.0, gamma=0.5, Omega=0.0)
    F = solve_ou_closed(k, sys_, grid)
    traj = integrate_moments(F, sys_, vacuum(), grid)
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-12
    assert np.max(traj.en_series()) == 0.0


def test_markov_damping_of_coherent_amplitude():
    # G = 0, delta kernel: <b>(t) = beta exp((-i wm - Gamma/2) t)
    grid = TimeGrid(dt=0.005, t_final=5.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    Gamma = 0.8
    F = markov_series(Gamma, grid)
    beta = 0.7 - 0.2j
    traj = integrate_moments(F, sys_, coherent(0.0, beta), grid)
    t = grid.times()
    got = traj.values[:, MOMENT_LABELS.index("b")]
    want = beta * np.exp((-1j * sys_.omega_m - Gamma / 2) * t)
    assert np.max(np.abs(got - want)) < 1e-9


def test_markov_phonon_decay():
    # occupation decays at rate Gamma from a thermal-like start
    grid = TimeGrid(dt=0.005, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    Gamma = 0.5
    F = markov_series(Gamma, grid)
    init = vacuum()
    init[MOMENT_LABELS.index("bbd")] = 1.0 + 0.8
    traj = integrate_moments(F, sys_, init, grid)
    n = traj.values[:, MOMENT_LABELS.index("bbd")].real - 1.0
    want = 0.8 * np.exp(-Gamma * grid.times())
    assert np.max(np.abs(n - want)) < 1e-9


def test_conjugation_residual_of_a_stack_is_row_by_row():
    pairs = [(1, 0), (3, 2), (8, 4), (10, 6), (9, 7), (13, 11)]

    def one(v):
        r = max(abs(v[i] - v[j].conjugate()) for i, j in pairs)
        return max(r, abs(v[5].imag), abs(v[12].imag))

    rng = np.random.default_rng(14)
    stack = rng.standard_normal((6, 14)) + 1j * rng.standard_normal((6, 14))
    stack[0] = coherent(0.3j, 0.1)
    stack[1] = coherent(0.3j, 0.1)
    stack[1, MOMENT_LABELS.index("bbd")] += 0.25j  # <b^dag b> not real
    got = conjugation_residual(stack)
    assert got.shape == (6,)
    assert got[0] == 0.0
    assert got[1] == 0.25
    assert np.array_equal(got, [conjugation_residual(v) for v in stack])
    # numpy's array hypot may round the last bit apart from Python's abs
    assert np.allclose(got, [one(v) for v in stack], rtol=4 * np.finfo(float).eps, atol=0)


def test_initial_moment_vector_is_checked():
    grid = TimeGrid(dt=0.01, t_final=1.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = markov_series(0.5, grid)
    for bad in (vacuum()[:13], vacuum()[None], np.concatenate([vacuum(), [0.0]])):
        with pytest.raises(ValueError, match=r"need a \(14,\) initial moment vector"):
            integrate_moments(F, sys_, bad, grid)
    unpaired = vacuum()
    unpaired[MOMENT_LABELS.index("a")] = 0.1  # <a> != conj <a^dag>
    with pytest.raises(ValueError, match="conjugation pairing"):
        integrate_moments(F, sys_, unpaired, grid)


def test_conjugation_structure_preserved():
    grid = TimeGrid(dt=0.01, t_final=8.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys_, grid)
    traj = integrate_moments(F, sys_, vacuum(), grid)
    for idx in (0, grid.n_points // 2, grid.n_points - 1):
        assert conjugation_residual(traj.values[idx]) < 1e-10


def test_en_series_matches_pointwise():
    grid = TimeGrid(dt=0.01, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys_, grid)
    traj = integrate_moments(F, sys_, vacuum(), grid)
    en = traj.en_series()
    for idx in (0, 150, 599):
        assert en[idx] == pytest.approx(traj.en_at(idx), abs=1e-12)


def _scaled_vacuum(nu, grid):
    # zero means and <a a^dag> = <b b^dag> = (nu + 1)/2 give V = nu * I
    values = np.zeros((grid.n_points, 14), dtype=complex)
    values[:, MOMENT_LABELS.index("aad")] = 0.5 * (nu + 1.0)
    values[:, MOMENT_LABELS.index("bbd")] = 0.5 * (nu + 1.0)
    return MomentTrajectory(grid=grid, values=values)


def test_physicality_monitor_fires_at_its_threshold():
    grid = TimeGrid(dt=0.1, t_final=3.0)
    below = _scaled_vacuum(1.0 - 2.0 * DIP_TOL, grid)
    assert np.allclose(below.covariance(0), (1.0 - 2.0 * DIP_TOL) * np.eye(4))
    with pytest.warns(RuntimeWarning, match="physicality dip"):
        below.en_series()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _scaled_vacuum(1.0 - 0.5 * DIP_TOL, grid).en_series()


def test_physicality_monitor_checks_every_node():
    # one dipping node between the nodes that a monitor sampling every
    # n // 24 nodes would visit
    grid = TimeGrid(dt=0.1, t_final=24.0)
    traj = _scaled_vacuum(1.0, grid)
    stride = grid.n_points // 24
    traj.values[stride // 2] = _scaled_vacuum(1.0 - 2.0 * DIP_TOL, grid).values[0]
    assert stride // 2 % stride != 0
    with pytest.warns(RuntimeWarning, match="physicality dip"):
        traj.en_series()


def test_affine_basis_reproduces_the_moment_equations():
    # the march relies on the right-hand side being affine in the means and
    # linear in each parameter; random complex means and coefficients on a batch
    rng = np.random.default_rng(2007)
    P = 7
    m = rng.standard_normal((14, P)) + 1j * rng.standard_normal((14, P))
    f = 3.0 * (rng.standard_normal((4, P)) + 1j * rng.standard_normal((4, P)))
    wm, delta, g = rng.uniform(-3.0, 3.0, (3, P))
    par = np.concatenate([f, f.conj(), [wm, delta, g]]).T
    op = par @ _affine_basis()
    got = (op[:, :196].reshape(P, 14, 14) @ m.T[..., None])[..., 0] + op[:, 196:]
    want = np.array(_moment_rhs(m, *f, *f.conj(), wm, delta, g)).T
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_single_point_march_is_a_batch_of_one():
    grid = TimeGrid(dt=0.01, t_final=5.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.3, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.2), sys_, grid)
    init = coherent(0.2 - 0.1j, 0.3j)
    one = integrate_moments(F, sys_, init, grid)
    batch = integrate_moments(OCoefficientSeries.batch([F]), [sys_], init, grid)
    assert batch.values.shape == one.values.shape + (1,)
    assert np.array_equal(one.values, batch.values[..., 0])


def test_trajectory_readout_is_nan_where_log_negativity_raises():
    # the loose-tolerance read-out of the trajectories engine, row by row
    grid = TimeGrid(dt=0.01, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys_, grid)
    rows = integrate_moments(F, sys_, vacuum(), grid).values[::40].copy()
    bad = 5
    rows[bad] = vacuum()
    rows[bad, MOMENT_LABELS.index("aad")] = 0.5  # cavity block A = 0: det V = 0
    en = symplectic_readout(covariances(rows), tol=1e-6).en
    assert np.isnan(en[bad])
    with pytest.raises(ValueError, match="positive determinant"):
        log_negativity(covariances(rows[bad]), tol=1e-6)
    for k in np.flatnonzero(np.arange(len(rows)) != bad):
        assert en[k] == log_negativity(covariances(rows[k]), tol=1e-6).En
    assert np.max(en[1:bad]) > 0.0
