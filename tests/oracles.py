"""Independent routes and fixtures that the tests share; no run of the
package calls them.

``ladder_rhs`` (the 14 complex ladder moments of ``LADDER_LABELS``) with
``to_quadratures`` is a second route to the real Lyapunov equations of
the moment engine; the eigenvalue routes cross-check the closed-form
symplectic read-out, the whole-series midpoint stencils the step-wise
``stepping.half_node_values``, ``consistency_residual`` and
``boundary_residual`` the stored two-time rows, the dense
``integrate_lindblad`` (run through the compact parity layout of the
march) the band generators, the whole-array
``whole_noise_batch`` the blocked noise sampler,
``dense_operator_products`` the single-mode set-up of the number basis,
and the step-by-step guard of ``stepwise_doubled`` the block guard of
``stepping.doubled_blocks``.  ``rho_at`` reads a stored node of a
density-matrix march.
"""

import numpy as np
from scipy.linalg import expm

from nmoptomech.errors import NumericalFailure
from nmoptomech.fock import FockOperators, RhoTrajectory, _run_rho
from nmoptomech.gaussian_ent import _as_covariance
from nmoptomech.kernel import DeltaKernel, TabulatedKernel, _cholesky_factor
from nmoptomech.ocoeff import OCoefficientSeries, TwoTimeField, _row_rhs
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid, _MID_INTERIOR, _MID_LEFT, _MID_RIGHT, rk4_step

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
