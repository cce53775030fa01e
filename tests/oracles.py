"""Independent routes and fixtures that the tests share; no run of the
package calls them.

``ladder_rhs`` (the 14 complex ladder moments of ``LADDER_LABELS``) with
``to_quadratures`` is a second route to the real Lyapunov equations of
the moment engine; the eigenvalue routes cross-check the closed-form
symplectic read-out, the whole-series midpoint stencils the step-wise
``half_node_values`` and that the block stencil of
``stepping.block_half_nodes``, the elementwise row equations of
``_row_rhs`` the coupling product of the grid march, the per-step
``reference_march`` (every s-row from node 0 and the whole n x n f5 slab
each step, driven by ``_row_rhs`` or, for a thermal pair, by
``thermal._coupling_matrix``) the windowed, delayed-fold grid march of
``ocoeff`` and ``thermal``, ``consistency_residual`` and
``boundary_residual`` the two-time rows that the reference march stores,
the dense ``integrate_lindblad`` (run through the compact parity layout of
the march) the band generators, ``propagate_paths`` with its per-path
``StatePath`` (run on the sink hook ``fock._march_batches``) and
``fock.average_trajectories`` the streamed ensemble mean, the whole-array
``whole_noise_batch`` the blocked noise sampler,
``dense_operator_products`` the single-mode set-up of the number basis,
and the step-by-step guard of ``stepwise_doubled`` the block guard of
``stepping.doubled_blocks``.  ``rho_at`` reads a stored node of a
density-matrix march.  The value-by-value ``_fmt`` and ``_heat_color``
check the array writers of the command line's CSV and heat-map files.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from nmoptomech.cli_runner import _HEAT_STOPS
from nmoptomech.errors import NumericalFailure
from nmoptomech.fock import (
    FockOperators,
    RhoTrajectory,
    _march_batches,
    _run_rho,
    _store_nodes,
)
from nmoptomech.gaussian_ent import _as_covariance
from nmoptomech.kernel import DeltaKernel, TabulatedKernel, _cholesky_factor
from nmoptomech.ocoeff import _BC, OCoefficientSeries
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import (
    TimeGrid,
    _MID_INTERIOR,
    _MID_LEFT,
    _MID_RIGHT,
    rk4_step,
    trapezoid_weights,
)
from nmoptomech.thermal import _BC as _THERMAL_BC, _coupling_matrix

LADDER_LABELS = (
    "a", "ad", "b", "bd",
    "aa", "aad", "ab", "abd",
    "adad", "adb", "adbd",
    "bb", "bbd", "bdbd",
)


def ladder_rhs(m, f1, f2, f3, f4, f1c, f2c, f3c, f4c, wm, delta, g):
    """d/dt of the 14 complex ladder moments ``m``."""
    (a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd) = m
    ig = 1j * g
    return (
        1j * delta * a - ig * (b + bd),
        -1j * delta * ad + ig * (b + bd),
        -1j * wm * b - ig * (a + ad) - (f1 * b + f2 * bd + f3 * a + f4 * ad),
        1j * wm * bd + ig * (a + ad) - (f1c * bd + f2c * b + f3c * ad + f4c * a),
        2j * delta * aa - 2.0 * ig * (abd + ab),
        ig * (abd + ab - adbd - adb),
        1j * (delta - wm) * ab - ig * (aad + bbd - 1.0 + aa + bb)
        - (f1 * ab + f2 * abd + f3 * aa + f4 * aad),
        1j * (delta + wm) * abd - ig * (bdbd + bbd - aad - aa)
        - (f1c * abd + f2c * ab + f3c * (aad - 1.0) + f4c * aa),
        -2j * delta * adad + 2.0 * ig * (adbd + adb),
        -1j * (delta + wm) * adb - ig * (adad + aad - bbd - bb)
        - (f1 * adb + f2 * adbd + f3 * (aad - 1.0) + f4 * adad),
        1j * (wm - delta) * adbd + ig * (aad + bbd - 1.0 + adad + bdbd)
        - (f1c * adbd + f2c * adb + f3c * adad + f4c * aad),
        -2j * wm * bb - 2.0 * ig * (adb + ab)
        - 2.0 * (f1 * bb + f2 * bbd + f3 * ab + f4 * adb),
        -ig * (adbd + abd - adb - ab)
        - (f1c * (bbd - 1.0) + f2c * bb + f3c * adb + f4c * ab)
        - (f1 * (bbd - 1.0) + f2 * bdbd + f3 * abd + f4 * adbd),
        2j * wm * bdbd + 2.0 * ig * (abd + adbd)
        - 2.0 * (f1c * bdbd + f2c * bbd + f3c * adbd + f4c * abd),
    )


def to_quadratures(m):
    """The quadrature state (q1, p1, q2, p2, triu S) of ladder moments
    ``m``, moment axis first; uses <a^dag a> = <a a^dag> - 1 and likewise
    for b.  Affine in ``m``, and real for a Hermitian pairing."""
    a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd = m
    return np.array([
        a + ad, -1j * (a - ad), b + bd, -1j * (b - bd),
        aa + adad + 2.0 * aad - 1.0,
        -1j * (aa - adad),
        ab + abd + adb + adbd,
        -1j * (ab - abd + adb - adbd),
        2.0 * aad - 1.0 - aa - adad,
        -1j * (ab + abd - adb - adbd),
        -(ab - abd - adb + adbd),
        bb + bdbd + 2.0 * bbd - 1.0,
        -1j * (bb - bdbd),
        2.0 * bbd - 1.0 - bb - bdbd,
    ])


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_M = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
# Partial transpose of mode 2 flips the sign of p2.
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def min_symplectic_eigenvalue(V):
    """Smallest modulus among the eigenvalues of i M V.

    For a physical state this is >= 1; the eigenvalue route to the
    physical nu_- of :func:`gaussian_ent.symplectic_readout`.
    """
    V = _as_covariance(V)
    if not np.all(np.isfinite(V)):
        raise ValueError("covariance matrix has non-finite entries")
    eig = np.linalg.eigvals(1j * _M @ V)
    return float(np.min(np.abs(eig)))


def pt_min_symplectic_eigenvalue(V):
    """Eigenvalue route to nu_minus: smallest |eig| of i M (P V P).

    Independent of the closed Sigma formula; P flips the momentum of the
    second mode (partial transposition at covariance level).
    """
    return min_symplectic_eigenvalue(_PT @ _as_covariance(V) @ _PT)


def two_mode_squeezed_covariance(r):
    """Covariance matrix of the standard two-mode squeezed vacuum.

    A = B = cosh(2r) I, C = diag(sinh 2r, -sinh 2r); En equals 2r.
    """
    ch = np.cosh(2.0 * r)
    sh = np.sinh(2.0 * r)
    V = np.diag([ch, ch, ch, ch])
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V


def random_physical_covariance(rng, nu=None, strength=1.0):
    """Random physical two-mode covariance matrix.

    Built as S diag(nu1, nu1, nu2, nu2) S^T with S = expm(M Q) for a random
    symmetric Q, which is symplectic for the form M.  Symplectic spectra
    ``nu`` default to random values in [1, 3].
    """
    if nu is None:
        nu = 1.0 + 2.0 * rng.random(2)
    nu1, nu2 = nu
    if nu1 < 1.0 or nu2 < 1.0:
        raise ValueError("symplectic eigenvalues must be >= 1")
    q = rng.standard_normal((4, 4)) * strength
    q = 0.5 * (q + q.T)
    s = expm(_M @ q)
    d = np.diag([nu1, nu1, nu2, nu2])
    V = s @ d @ s.T
    return 0.5 * (V + V.T)


_DMID_INTERIOR = np.array([1.0, -27.0, 27.0, -1.0]) / 24.0
_DMID_LEFT = np.array([-23.0, 21.0, 3.0, -1.0]) / 24.0
_DMID_RIGHT = np.array([1.0, -3.0, -21.0, 23.0]) / 24.0


def _apply_mid_stencil(values, interior, left, right):
    v = np.asarray(values)
    n = v.shape[0]
    if n < 4:
        raise ValueError("midpoint stencils need at least four nodes")
    out_shape = (n - 1,) + v.shape[1:]
    out = np.empty(out_shape, dtype=v.dtype)
    out[0] = np.tensordot(left, v[0:4], axes=(0, 0))
    out[-1] = np.tensordot(right, v[n - 4 : n], axes=(0, 0))
    # windows v[k-1..k+2] for midpoints k = 1..n-3
    stacked = np.stack([v[0 : n - 3], v[1 : n - 2], v[2 : n - 1], v[3:n]])
    out[1:-1] = np.tensordot(interior, stacked, axes=(0, 0))
    return out


def midpoint_values(values):
    """Fourth-order interpolation of a grid series onto step midpoints.

    ``values`` has the time index first; the result has length one less
    along that axis.
    """
    return _apply_mid_stencil(values, _MID_INTERIOR, _MID_LEFT, _MID_RIGHT)


def midpoint_derivative(values, h):
    """Fourth-order derivative of a grid series at step midpoints."""
    return _apply_mid_stencil(values, _DMID_INTERIOR, _DMID_LEFT, _DMID_RIGHT) / h



def _half_node(nodes, n, j):
    """Half-node ``j`` of an ``n``-node grid from ``nodes(lo, hi)``, the
    rows of nodes lo..hi-1."""
    k, odd = divmod(j, 2)
    if not odd:
        return [r[0] for r in nodes(k, k + 1)]
    if n < 4:
        return [0.5 * (r[0] + r[1]) for r in nodes(k, k + 2)]
    w = _MID_LEFT if k == 0 else _MID_RIGHT if k == n - 2 else _MID_INTERIOR
    i = min(max(k - 1, 0), n - 4)
    return [w @ r for r in nodes(i, i + 4)]


def half_node_values(rows, j):
    """Values of each coefficient row at half-node ``j`` of the refined
    grid: node j/2 at even j, the 4th-order midpoint past node (j-1)/2 at
    odd j, one step's stencil at a time.

    Grids with fewer than four nodes fall back to the two-node average.
    """
    return _half_node(lambda lo, hi: [r[lo:hi] for r in rows], rows[0].shape[0], j)


def _row_rhs(rows, fj, f5p, wm, delta, g):
    f1, f2, f3, f4 = rows
    F1v, F2v, F3v, F4v = fj
    c34 = 1j * g * (f3 - f4)
    c12 = 1j * g * (f1 - f2)
    d1 = 1j * wm * f1 + c34 + f1 * F1v
    d2 = -1j * wm * f2 + c34 - f2 * F1v + 2.0 * f1 * F2v - f4 * F3v + f3 * F4v
    if f5p is not None:
        d2 = d2 - f5p
    d3 = -1j * delta * f3 + c12 + f1 * F3v
    d4 = 1j * delta * f4 + c12 + f1 * F4v
    return np.stack([d1, d2, d3, d4])


@dataclass(frozen=True)
class TwoTimeField:
    """Stored two-time solution f_j(t_k, s_l), l <= k, plus F5'(t_k, s_l).

    ``f5_slab`` is the n x n (s, s') slab at the final time; both are None
    without f5.  Row k of each f_j holds s-nodes 0..k, zero past them.
    """

    grid: TimeGrid
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    f5_prime: np.ndarray
    f5_slab: np.ndarray


def reference_march(row_rhs, bc, kernels, grid, with_slab=False, store_fields=False):
    """The per-step two-time grid march of B baths with boundary rows
    ``bc`` (B, 4), the reference for ``ocoeff._two_time_march``.

    ``row_rhs(y, x, v)`` is the time derivative of the s-rows ``y``
    (B, 4, L) at the kernel averages ``x`` (B, 4) and the F5' row ``v``.
    Each step is one :func:`rk4_step` over every s-row since node 0; the
    stage averages are re-quadratured from the stage rows with half-node
    kernel weights plus the exact boundary-node contribution.  With
    ``with_slab`` (one bath) the stages record their (f1 row, F5' row)
    pairs and the n x n f5 slab takes their weighted outer products once
    per step, and each step reads the whole slab.  Returns the node
    averages (n, B, 4), F5 (None without the slab), and with
    ``store_fields`` the (n, n) rows of every bath in order, the F5' rows
    and the last slab.
    """
    n = grid.n_points
    dt = grid.dt
    nb = len(kernels)
    t = grid.times()
    lag = [np.asarray(k.alpha(t), dtype=complex) for k in kernels]
    half = [np.asarray(k.alpha(t + 0.5 * dt), dtype=complex) for k in kernels]
    bw2 = np.array([0.25 * dt * a[0] * b for a, b in zip(lag, bc)])
    bw4 = np.array([0.5 * dt * a[0] * b for a, b in zip(lag, bc)])
    wgt = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])

    def average(y, kw):
        return np.array([y[i] @ kw[i] for i in range(nb)])

    Y = np.zeros((nb, 4, n), dtype=complex)
    Y[:, :, 0] = bc
    X = np.zeros((n, nb, 4), dtype=complex)
    F5 = S = f5p = f5p_hist = None
    if with_slab:
        F5, f5p, S = np.zeros(n, complex), np.zeros(n, complex), np.zeros((n, n), complex)
    if store_fields:
        rows_hist = np.zeros((nb, 4, n, n), dtype=complex)
        rows_hist[:, :, 0, 0] = bc
        f5p_hist = np.zeros((n, n), dtype=complex) if with_slab else None
    for kk in range(n - 1):
        L = kk + 1
        w = trapezoid_weights(L, dt)
        kw2 = [np.append(w[:-1], w[-1] + 0.25 * dt) * h[kk::-1] for h in half]
        kw4 = [np.append(w[:-1], w[-1] + 0.5 * dt) * a[kk + 1:0:-1] for a in lag]
        us, vs = [], []
        b_half, b_end = (np.vstack([kw2[0], kw4[0]]) @ S[:L, :L] if with_slab
                         else (None, None))

        def stage(kw=None, bw=None, b=None, c=None):
            # kw None: the step's first stage, at the node
            def f(y):
                x = X[kk] if kw is None else average(y, kw) + bw
                v = None
                if with_slab:
                    v = f5p[:L].copy() if kw is None else b + c * (kw[0] @ us[-1]) * vs[-1]
                    us.append(y[0, 0])
                    vs.append(v)
                return row_rhs(y, x, v)
            return f

        step = rk4_step(Y[:, :, :L], dt, stage(), stage(kw2, bw2, b_half, 0.5 * dt),
                        stage(kw4, bw4, b_end, dt))
        if with_slab:
            S[:L, :L] += (np.stack(us, axis=1) * wgt) @ np.stack(vs, axis=0)
        Y[:, :, :L] = step
        Y[:, :, L] = bc
        kw1 = [trapezoid_weights(L + 1, dt) * a[kk + 1::-1] for a in lag]
        X[kk + 1] = average(Y[:, :, :L + 1], kw1)
        if with_slab:
            S[:L, L] = Y[0, 1, :L]
            f5p[:L + 1] = kw1[0] @ S[:L + 1, :L + 1]
            F5[kk + 1] = f5p[:L + 1] @ kw1[0]
        if store_fields:
            rows_hist[:, :, kk + 1, :L + 1] = Y[:, :, :L + 1]
            if with_slab:
                f5p_hist[kk + 1, :L + 1] = f5p[:L + 1]
    return X, F5, (*rows_hist.reshape(4 * nb, n, n), f5p_hist, S) if store_fields else None


def reference_two_time_grid(k, sys: LinearizedSystem, grid: TimeGrid,
                            include_f5=True, store_fields=False):
    """The reference march of one bath on the elementwise row equations
    of :func:`_row_rhs`: the F series and, with ``store_fields``, the
    stored :class:`TwoTimeField` (else None)."""
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    X, F5, stored = reference_march(
        lambda y, x, v: _row_rhs(y[0], x[0], v, wm, delta, g)[None],
        _BC[None], [k], grid, include_f5, store_fields)
    F = X[:, 0].T
    series = OCoefficientSeries(grid=grid, F1=F[0], F2=F[1], F3=F[2], F4=F[3], F5=F5,
                                provenance="two-time-grid")
    return series, TwoTimeField(grid, *stored) if store_fields else None


def reference_thermal_grid(pair, sys: LinearizedSystem, grid: TimeGrid):
    """The reference march of both baths of a thermal pair through
    ``thermal._coupling_matrix``: the averages X (n, 2, 4)."""
    wm, delta, g = sys.omega_m, sys.Delta, sys.G

    def row_rhs(rows, x, _):
        return np.einsum("jk,ikl->ijl", _coupling_matrix(x, wm, delta, g), rows)

    return reference_march(row_rhs, _THERMAL_BC, pair, grid)[0]


def consistency_residual(series: OCoefficientSeries, fields: TwoTimeField,
                         sys: LinearizedSystem) -> float:
    """Max-norm residual of the coefficient equations at off-grid midpoints.

    About 16 evenly strided columns of the stored two-time solution
    (fixed s, running t) are interpolated to panel midpoints with
    4th-order stencils; the midpoint derivative is compared against the
    equation right-hand side.  The delta-kernel series is constant and
    satisfies its reduced equation identically.
    """
    if series.provenance == "markov-delta":
        return 0.0
    if fields is None:
        raise ValueError("residual evaluation needs stored fields")
    grid = series.grid
    n = grid.n_points
    dt = grid.dt
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    fmid = [midpoint_values(x) for x in
            (series.F1, series.F2, series.F3, series.F4)]
    stride = max(1, n // 16)
    worst = 0.0
    for l in range(0, n - 4, stride):
        cols = np.stack([fields.f1[l:, l], fields.f2[l:, l],
                         fields.f3[l:, l], fields.f4[l:, l]])
        mids = np.stack([midpoint_values(c) for c in cols])
        dots = np.stack([midpoint_derivative(c, dt) for c in cols])
        f5p_mid = None
        if fields.f5_prime is not None and series.F5 is not None:
            f5p_mid = midpoint_values(fields.f5_prime[l:, l])
        fj = tuple(x[l:] for x in fmid)
        rhs = _row_rhs(mids, fj, f5p_mid, wm, delta, g)
        worst = max(worst, np.abs(dots - rhs).max())
    return float(worst)


def boundary_residual(fields: TwoTimeField) -> float:
    """Max deviation of the enforced boundary rows; zero by construction."""
    n = fields.grid.n_points
    d = np.diag_indices(n)
    r = max(
        np.abs(fields.f1[d] - 1.0).max(),
        np.abs(fields.f2[d]).max(),
        np.abs(fields.f3[d]).max(),
        np.abs(fields.f4[d]).max(),
    )
    if fields.f5_slab is not None:
        # last slab: row s = t vanishes, column s' = t equals f2(t, s)
        r = max(r, np.abs(fields.f5_slab[-1, :]).max())
        r = max(r, np.abs(fields.f5_slab[:, -1] - fields.f2[-1, :]).max())
    return float(r)


def integrate_lindblad(ops: FockOperators, Gamma, rho0, grid: TimeGrid,
                       store_every=0, trace_tol=1e-6, leak_tol=1e-4):
    """Memoryless reference equation
    drho/dt = -i[H, rho] + Gamma/2 ([b, rho b^dag] + [b rho, b^dag]),
    on dense matrices, independent of the band generators."""
    H, b, bd = ops.H, ops.b, ops.bd
    half = 0.5 * Gamma

    def gen(rho):
        p = rho @ bd
        q = b @ rho
        return (-1j * (H @ rho - rho @ H)
                + half * ((b @ p - p @ b) + (q @ bd - bd @ q)))

    def rhs_at(lay, _):
        # the march state is compact; the formula sees the full matrix
        return lambda x: lay.compact(gen(lay.expand(x)))

    return _run_rho(rhs_at, grid, rho0, ops, store_every, trace_tol, leak_tol)


def rho_at(traj: RhoTrajectory, node):
    """The stored density matrix of ``traj`` at grid node ``node``."""
    pos = np.searchsorted(traj.store_idx, node)
    if pos == len(traj.store_idx) or traj.store_idx[pos] != node:
        raise KeyError(f"node {node} was not stored")
    return traj.rhos[pos]


def trace_distance(r1, r2):
    """Half the trace norm of the difference of two Hermitian matrices."""
    d = np.asarray(r1) - np.asarray(r2)
    d = 0.5 * (d + d.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(d)).sum())


@dataclass(frozen=True)
class StatePath:
    """Stored (unnormalized) state vectors of an ensemble at
    ``node_indices``, shape (paths, nodes, d)."""

    grid: TimeGrid
    dims: tuple
    node_indices: np.ndarray
    states: np.ndarray

    @property
    def final(self):
        return self.states[..., -1, :]


def propagate_paths(F: OCoefficientSeries, ops: FockOperators,
                    k, psi0, grid: TimeGrid, n_paths,
                    master_seed, batch_size=512, store_every=0) -> StatePath:
    """Propagate ``n_paths`` trajectories with per-path counter-based seeds
    and keep every path's states.

    Returns one StatePath whose states have shape (paths, nodes, d).
    Path i always consumes the stream seeded by (master_seed, i), so for
    an exponential or delta kernel the states are bitwise the same for
    any ``batch_size``; a tabulated kernel's noise colouring rounds with
    the batch width (see :func:`kernel._noise_blocks`), so its states
    agree across batch sizes to rounding.  :func:`propagate_ensemble` gives
    the mean with memory independent of the path count; this route and
    :func:`average_trajectories` are its independent check.
    """
    store_idx = _store_nodes(grid.n_points, store_every)
    # paths first: a batch touches only its own slice of the array
    states = np.empty((n_paths, len(store_idx), ops.dim), dtype=complex)

    def write(lo, i, psi):
        states[lo:lo + psi.shape[1], i] = psi.T

    _march_batches(F, ops, k, psi0, grid, n_paths, master_seed, batch_size,
                   store_idx, write)
    return StatePath(grid=grid, dims=ops.dims, node_indices=store_idx, states=states)


def _standard_draws(grid, seeds):
    """One column of circular standard complex normals per seed."""
    n = grid.n_points
    out = np.empty((n, len(seeds)), dtype=complex)
    for j, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        out[:, j] = np.sqrt(0.5) * (rng.standard_normal(n)
                                    + 1j * rng.standard_normal(n))
    return out


def whole_noise_batch(k, grid: TimeGrid, seeds):
    """Realizations of z*_t for each seed, as columns of an (n, m) array,
    drawn and coloured over the whole grid at once (the reference for
    ``kernel.sample_noise_batch``)."""
    if not isinstance(grid, TimeGrid):
        raise TypeError("grid must be a TimeGrid")
    n, m = grid.n_points, len(seeds)
    if isinstance(k, TabulatedKernel):
        return _cholesky_factor(k, grid) @ _standard_draws(grid, seeds)
    if k.Gamma == 0.0:
        return np.zeros((n, m), dtype=complex)
    if isinstance(k, DeltaKernel):
        return np.sqrt(k.Gamma / grid.dt) * _standard_draws(grid, seeds)
    w = _standard_draws(grid, seeds)
    z = np.empty((n, m), dtype=complex)
    z[0] = np.sqrt(k.alpha0) * w[0]
    decay = np.exp(-k.mu * grid.dt)
    sigma = np.sqrt(k.alpha0 * (1.0 - np.exp(-2.0 * k.gamma * grid.dt)))
    for kk in range(1, n):
        z[kk] = decay * z[kk - 1] + sigma * w[kk]
    return z


def dense_operator_products(ops: FockOperators, sys_: LinearizedSystem):
    """H, the 14 moment matrices and the four drift products b^dag X_j,
    X = (b, b^dag, a, a^dag), as dense d x d products of the product-space
    ladders: the set-up that ``fock`` builds from single-mode products."""
    a, ad, b, bd = ops.a, ops.ad, ops.b, ops.bd
    one = np.eye(ops.dim)
    H = (-sys_.Delta * (ad @ a) + sys_.omega_m * (bd @ b)
         + sys_.G * ((ad + a) @ (bd + b)))
    q1, p1, q2, p2 = a + ad, -1j * (a - ad), b + bd, -1j * (b - bd)
    aa, adad, bb, bdbd = a @ a, ad @ ad, b @ b, bd @ bd
    na, nb = 2.0 * a @ ad - one, 2.0 * b @ bd - one
    moments = np.stack([
        q1, p1, q2, p2,
        aa + adad + na, -1j * (aa - adad), q1 @ q2, q1 @ p2,
        na - aa - adad, p1 @ q2, p1 @ p2,
        bb + bdbd + nb, -1j * (bb - bdbd), nb - bb - bdbd,
    ])
    return H, moments, [bd @ x for x in (b, bd, a, ad)]


def stepwise_doubled(rhs, y0, grid: TimeGrid, what):
    """Step-doubling march with its guard taken after every step: the full
    step and two half steps from the same node, the finer one kept."""
    dt = grid.dt
    y = np.asarray(y0, dtype=complex)
    out = np.empty((grid.n_points,) + y.shape, dtype=complex)
    out[0] = y
    for kk in range(grid.n_steps):
        coarse = rk4_step(y, dt, rhs)
        y = rk4_step(rk4_step(y, 0.5 * dt, rhs), 0.5 * dt, rhs)
        err = np.abs(coarse - y).max(axis=0)
        scale = np.maximum(1.0, np.abs(y).max(axis=0))
        if not np.all(np.isfinite(err)) or np.any(err > 1e-2 * scale):
            raise NumericalFailure(f"{what} is stiff at t={dt * (kk + 1):.3f} "
                                   "for this step size; refine dt")
        out[kk + 1] = y
    return out


def _fmt(x):
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _heat_color(u):
    pos = min(max(u, 0.0), 1.0) * (len(_HEAT_STOPS) - 1)
    i = min(int(pos), len(_HEAT_STOPS) - 2)
    f = pos - i
    rgb = [a + f * (b - a) for a, b in zip(_HEAT_STOPS[i], _HEAT_STOPS[i + 1])]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)
