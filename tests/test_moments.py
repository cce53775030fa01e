"""Second-moment evolution and the covariance extraction."""

import warnings

import numpy as np
import pytest

from nmoptomech import moments
from nmoptomech.errors import NumericalFailure
from nmoptomech.gaussian_ent import log_negativity, symplectic_readout
from nmoptomech.kernel import OUKernel
from nmoptomech.moments import (
    _TRIU,
    DIP_TOL,
    MOMENT_LABELS,
    EnReadout,
    MomentTrajectory,
    _affine_basis,
    _moment_rhs,
    coherent,
    covariances,
    integrate_moments,
    occupations,
    vacuum,
)
from nmoptomech.ocoeff import OCoefficientSeries, markov_series, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid
from oracles import LADDER_LABELS, ladder_rhs, to_quadratures, two_mode_squeezed_covariance

lab = MOMENT_LABELS.index


def test_vacuum_moments():
    v = vacuum()
    assert v.dtype == np.float64
    for name in ("q1q1", "p1p1", "q2q2", "p2p2"):
        assert v[lab(name)] == 1.0
    assert np.count_nonzero(v) == 4
    assert occupations(v) == (0.0, 0.0)


def test_coherent_moments_factorize():
    alpha, beta = 0.3 + 0.4j, -0.2j
    v = coherent(alpha, beta)
    assert v[lab("q1")] == pytest.approx(0.6)
    assert v[lab("p1")] == pytest.approx(0.8)
    assert v[lab("p2")] == pytest.approx(-0.4)
    assert v[lab("q1p2")] == pytest.approx(0.6 * -0.4)
    assert v[lab("q1q1")] == pytest.approx(0.6 ** 2 + 1.0)
    assert occupations(v) == pytest.approx((abs(alpha) ** 2, abs(beta) ** 2))
    # the ladder moments of the same state, carried over to quadratures
    a, b = alpha, beta
    ac, bc = a.conjugate(), b.conjugate()
    ladder = np.array([a, ac, b, bc, a * a, a * ac + 1.0, a * b, a * bc,
                       ac * ac, ac * b, ac * bc, b * b, b * bc + 1.0, bc * bc])
    assert np.abs(to_quadratures(ladder) - v).max() < 1e-15


def test_vacuum_covariance_is_identity():
    V = covariances(vacuum())
    assert np.allclose(V, np.eye(4), atol=1e-14)


def test_two_mode_squeezed_moments_covariance():
    # build the ladder moments of a two-mode squeezed state by hand and
    # compare with the quadrature-side constructor
    r = 0.45
    ch, sh = np.cosh(r), np.sinh(r)
    m = np.zeros(14, dtype=complex)
    m[LADDER_LABELS.index("aad")] = ch ** 2
    m[LADDER_LABELS.index("bbd")] = ch ** 2
    m[LADDER_LABELS.index("ab")] = ch * sh
    m[LADDER_LABELS.index("adbd")] = ch * sh
    x = to_quadratures(m)
    assert np.abs(x.imag).max() == 0.0
    V = covariances(x.real)
    assert np.allclose(V, two_mode_squeezed_covariance(r), atol=1e-12)


def test_thermal_mirror_covariance_block():
    # n = 0.5 in the mirror: B block is (2 n + 1) I
    v = vacuum()
    v[lab("q2q2")] = v[lab("p2p2")] = 2.0
    assert occupations(v) == (0.0, 0.5)
    V = covariances(v)
    assert np.allclose(V[2:4, 2:4], np.diag([2.0, 2.0]), atol=1e-14)
    assert np.allclose(V[0:2, 0:2], np.eye(2), atol=1e-14)
    assert np.allclose(V[0:2, 2:4], 0.0, atol=1e-14)


def test_covariance_subtracts_the_means():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((5, 14))
    V = covariances(x)
    for k in range(5):
        S = np.empty((4, 4))
        S[np.triu_indices(4)] = x[k, 4:]
        S = np.triu(S) + np.triu(S, 1).T
        assert np.array_equal(V[k], V[k].T)
        assert np.abs(V[k] - (S - np.outer(x[k, :4], x[k, :4]))).max() < 1e-15


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
    got = 0.5 * (traj.values[:, lab("q2")] + 1j * traj.values[:, lab("p2")])
    want = beta * np.exp((-1j * sys_.omega_m - Gamma / 2) * t)
    assert np.max(np.abs(got - want)) < 1e-9


def test_markov_phonon_decay():
    # occupation decays at rate Gamma from a thermal-like start
    grid = TimeGrid(dt=0.005, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    Gamma = 0.5
    F = markov_series(Gamma, grid)
    init = vacuum()
    init[lab("q2q2")] = init[lab("p2p2")] = 1.0 + 2.0 * 0.8
    traj = integrate_moments(F, sys_, init, grid)
    n = occupations(traj.values)[1]
    want = 0.8 * np.exp(-Gamma * grid.times())
    assert np.max(np.abs(n - want)) < 1e-9


def test_initial_moment_vector_is_checked():
    grid = TimeGrid(dt=0.01, t_final=1.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = markov_series(0.5, grid)
    for bad in (vacuum()[:13], vacuum()[None], np.concatenate([vacuum(), [0.0]])):
        with pytest.raises(ValueError, match=r"need a \(14,\) initial moment vector"):
            integrate_moments(F, sys_, bad, grid)
    # a complex vector is refused, not cast: even with zero imaginary parts
    for bad in (vacuum().astype(complex), vacuum() + 0.1j):
        with pytest.raises(ValueError, match="moment vector is real"):
            integrate_moments(F, sys_, bad, grid)


def test_en_series_matches_pointwise():
    grid = TimeGrid(dt=0.01, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys_, grid)
    traj = integrate_moments(F, sys_, vacuum(), grid)
    en = traj.en_series()
    for idx in (0, 150, 599):
        assert en[idx] == pytest.approx(log_negativity(traj.covariance(idx)).En,
                                        abs=1e-12)


def _scaled_vacuum(nu, grid):
    # zero means and S = nu * I give V = nu * I
    values = np.zeros((grid.n_points, 14))
    values[:, [lab("q1q1"), lab("p1p1"), lab("q2q2"), lab("p2p2")]] = nu
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
    # linear in each parameter; random means and coefficients on a batch
    rng = np.random.default_rng(2007)
    P = 7
    x = rng.standard_normal((P, 14))
    f = 3.0 * (rng.standard_normal((P, 4)) + 1j * rng.standard_normal((P, 4)))
    par = np.concatenate([f.real, f.imag, rng.uniform(-3.0, 3.0, (P, 3))], axis=1)
    op = par @ _affine_basis()
    got = (op[:, :196].reshape(P, 14, 14) @ x[..., None])[..., 0] + op[:, 196:]
    want = np.array([_moment_rhs(xp, *pp) for xp, pp in zip(x, par)])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _pulled_ladder_basis():
    """Affine basis of the complex ladder equations in the quadrature
    variables x = T m + t0, probed over the 11 real parameters."""
    t0 = to_quadratures(np.zeros(14, dtype=complex))
    T = np.stack([to_quadratures(e) - t0 for e in np.eye(14, dtype=complex)], axis=1)
    T_inv = np.linalg.inv(T)

    def rhs(x, p):
        f = p[:4] + 1j * p[4:8]
        return T @ np.array(ladder_rhs(T_inv @ (x - t0), *f, *f.conj(), *p[8:]))

    basis = np.empty((11, 210), dtype=complex)
    for j, p in enumerate(np.eye(11)):
        c = rhs(np.zeros(14), p)
        basis[j, :196] = np.stack([rhs(e, p) - c for e in np.eye(14)], axis=1).ravel()
        basis[j, 196:] = c
    return basis


def test_affine_basis_is_the_ladder_equations_in_quadratures():
    # the Lyapunov form against the 14 complex ladder equations, an
    # independent route carried through the change of variables
    want = _pulled_ladder_basis()
    assert np.abs(want.imag).max() <= 1e-15
    assert np.abs(_affine_basis() - want.real).max() <= 1e-15


def test_single_point_march_is_a_batch_of_one():
    grid = TimeGrid(dt=0.01, t_final=5.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.3, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.2), sys_, grid)
    init = coherent(0.2 - 0.1j, 0.3j)
    one = integrate_moments(F, sys_, init, grid)
    batch = integrate_moments(OCoefficientSeries.batch([F]), [sys_], init, grid)
    assert one.values.dtype == batch.values.dtype == np.float64
    assert batch.values.shape == one.values.shape + (1,) == (grid.n_points, 14, 1)
    assert np.array_equal(one.values, batch.values[..., 0])


def test_trajectory_readout_is_nan_where_log_negativity_raises():
    # the loose-tolerance read-out of the trajectories engine, row by row
    grid = TimeGrid(dt=0.01, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), sys_, grid)
    rows = integrate_moments(F, sys_, vacuum(), grid).values[::40].copy()
    bad = 5
    rows[bad] = vacuum()
    rows[bad, [lab("q1q1"), lab("p1p1")]] = 0.0  # cavity block A = 0: det V = 0
    en = symplectic_readout(covariances(rows), tol=1e-6).en
    assert np.isnan(en[bad])
    with pytest.raises(ValueError, match="positive determinant"):
        log_negativity(covariances(rows[bad]), tol=1e-6)
    for k in np.flatnonzero(np.arange(len(rows)) != bad):
        assert en[k] == log_negativity(covariances(rows[k]), tol=1e-6).En
    assert np.max(en[1:bad]) > 0.0


def _node_blocks(F, size):
    """(nodes, 4, P) blocks of F1..F4 of a batched series, ``size`` nodes each."""
    rows = np.stack([F.F1, F.F2, F.F3, F.F4], axis=1)
    return [rows[lo:lo + size] for lo in range(0, len(rows), size)]


@pytest.mark.parametrize("t_final", [0.02, 6.0])
@pytest.mark.parametrize("size", [1, 7, 256])
def test_moment_march_on_node_blocks_equals_the_stored_march(t_final, size):
    # 3 nodes (the two-node midpoint) and 601 (a short last block of the
    # sink); coefficient blocks of 1, 7 and 256 nodes
    grid = TimeGrid(dt=0.01, t_final=t_final)
    systems = [LinearizedSystem(omega_m=1.0, Delta=d, G=0.1) for d in (1.0, 1.7)]
    F = solve_ou_closed([OUKernel(2.0, 0.6, 0.0), OUKernel(1.0, 1.2, 0.4)], systems, grid)
    stored = integrate_moments(F, systems, vacuum(), grid)
    got = []
    out = integrate_moments(_node_blocks(F, size), systems, vacuum(), grid,
                            sink=lambda k0, states: got.append((k0, states.copy())))
    assert out is None
    assert [k0 for k0, _ in got] == list(range(0, grid.n_points, moments._BLOCK))
    states = np.concatenate([x for _, x in got])
    assert np.array_equal(np.moveaxis(states, 1, 2), stored.values)


def test_moment_march_that_blows_up_stops_feeding_the_sink():
    # a nan coefficient at node 300 spoils the second block of states: both
    # routes raise once the march is through, and the sink saw block 0 only
    grid = TimeGrid(dt=0.01, t_final=6.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    F = solve_ou_closed([OUKernel(2.0, 0.6)], [sys_], grid)
    F.F1[300] = np.nan
    with pytest.raises(NumericalFailure, match="moment integration blew up") as stored:
        integrate_moments(F, [sys_], vacuum(), grid)
    seen = []
    with pytest.raises(NumericalFailure) as streamed:
        integrate_moments(_node_blocks(F, 7), [sys_], vacuum(), grid,
                          sink=lambda k0, states: seen.append(k0))
    assert str(streamed.value) == str(stored.value)
    assert seen == [0]


# a covariance whose partial transpose has a negative discriminant, and one
# with det V < 0 (nonpositive nu_minus^2)
_NEGATIVE = np.array([[0.126, -0.334, -0.032, -1.11], [-0.334, 0.362, 0.019, 0.364],
                      [-0.032, 0.019, -0.623, -0.602], [-1.11, 0.364, -0.602, -0.732]])
_NONPOSITIVE = np.diag([1.0, 1.0, 1.0, -1.0])


@pytest.mark.parametrize("defects, message", [
    ([], None),
    ([(1, 520, _NONPOSITIVE), (2, 300, _NEGATIVE)], "nonpositive nu_minus^2"),
    ([(2, 700, _NEGATIVE), (2, 300, _NONPOSITIVE), (2, 450, _NEGATIVE)],
     "unphysical covariance matrix at node 450 "),
    ([(0, 255, _NEGATIVE), (0, 256, _NEGATIVE)], "unphysical covariance matrix at node 255 "),
    ([(1, 256, 0.5 * np.eye(4)), (2, 3, 0.9 * np.eye(4))], "dip at 2 of 3"),
])
def test_readout_in_blocks_raises_and_warns_as_the_whole_read_out(defects, message):
    # the first point in point order with a failure decides the message, a
    # negative discriminant (at its first node) before a nonpositive
    # nu_minus^2, whatever block each defect falls in
    n, P = 800, 3
    values = np.zeros((n, 14, P))
    values[:, 4:] = np.eye(4)[_TRIU][:, None]
    for p, node, V in defects:
        values[node, 4:, p] = V[_TRIU]
    states = np.moveaxis(values, 2, 1)

    def outcome(read):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                en = read()
            except NumericalFailure as exc:
                return str(exc), [], None
        return None, [(str(w.message), w.filename) for w in caught], en

    def blocks():
        readout = EnReadout(n, P)
        for lo in range(0, n, 256):
            readout(lo, states[lo:lo + 256])
        return readout.finish()

    whole = outcome(MomentTrajectory(TimeGrid(dt=0.01, t_final=7.99), values).en_series)
    streamed = outcome(blocks)
    assert whole[:2] == streamed[:2]
    failure, caught, en = whole
    if message is None:
        assert failure is None and caught == []
        assert np.array_equal(en, streamed[2])
    elif message.startswith("dip"):
        ((text, filename),) = caught
        assert message in text and filename == __file__
    else:
        assert failure.startswith(message)
