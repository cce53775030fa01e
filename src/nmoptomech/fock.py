"""Truncated two-mode number-basis oracle.

Everything downstream of the Gaussian machinery can be cross-checked
here: the memory-carrying master equation

    drho/dt = -i[H_S, rho] + [b, rho Obar^dag] + h.c.,
    Obar(t) = F1 b + F2 b^dag + F3 a + F4 a^dag,

its memoryless limit (the standard damped-mirror Lindblad form), the
two-bath equation of ``thermal`` and the linear stochastic unraveling

    d|psi>/dt = (-i H_S + b z*_t - b^dag Obar(t)) |psi>,

whose unnormalized projectors average to rho.  States live on a
(N_a, N_b) product of truncated ladders; a leakage monitor guards the
truncation.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailure, TruncationError
from .kernel import path_seed, sample_noise_batch, NoisePath
from .moments import MomentTrajectory
from .ocoeff import OCoefficientSeries
from .params import LinearizedSystem
from .stepping import TimeGrid, half_node_values, march_driven
from .thermal import ThermalOCoefficients

__all__ = [
    "FockOperators",
    "build_operators",
    "basis_state",
    "projector",
    "moments_from_rho",
    "RhoTrajectory",
    "integrate_master",
    "integrate_lindblad",
    "integrate_thermal_master",
    "StatePath",
    "propagate_trajectory",
    "propagate_ensemble",
    "average_trajectories",
    "trace_distance",
]


def _ladder(n):
    m = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n)
    m[idx - 1, idx] = np.sqrt(idx)
    return m


def _bands(m):
    """Nonzero diagonals of ``m`` as (offset, np.diagonal(m, offset))."""
    rows, cols = np.nonzero(m)
    return [(int(o), np.diagonal(m, o).copy()) for o in np.unique(cols - rows)]


def _lmul(bands, x, out=None):
    """B @ x in O(d^2) for the band list of B, added into ``out`` if given.

    A diagonal may carry one weight per column of ``x`` as a second axis.
    """
    d = x.shape[0]
    for o, w in bands:
        lo, hi = max(-o, 0), d - max(o, 0)
        w = w.reshape(hi - lo, -1)
        if out is None:
            out = np.empty_like(x)
            out[:lo] = 0.0
            out[hi:] = 0.0
            np.multiply(w, x[lo + o:hi + o], out=out[lo:hi])
        else:
            out[lo:hi] += w * x[lo + o:hi + o]
    return out


def _dagger(x):
    """Conjugate transpose, C-ordered: adding ``x.conj().T`` is slow."""
    return np.conjugate(x.T, out=np.empty_like(x))


@dataclass
class FockOperators:
    """Dense matrices of the two truncated modes.

    H is the quadratic Hamiltonian for the system that built the
    operators (None when none was given).  In the product index
    k = i N_b + j every operator of the number-basis marches is a band:
    a and a^dag sit at offsets +-N_b, b and b^dag at +-1, H has 5 bands.
    """

    dims: tuple
    a: np.ndarray
    ad: np.ndarray
    b: np.ndarray
    bd: np.ndarray
    H: np.ndarray = None

    @property
    def dim(self):
        return self.dims[0] * self.dims[1]

    @cached_property
    def bands(self):
        """(offset, diagonal) of "a", "ad", "b", "bd"; band list of "-iH"."""
        out = {k: _bands(getattr(self, k))[0] for k in ("a", "ad", "b", "bd")}
        if self.H is not None:
            out["-iH"] = [(o, -1j * w) for o, w in _bands(self.H)]
        return out

    @cached_property
    def _drift_basis(self):
        """(offset, diagonals) of the trajectory drift
        A = -iH - sum_j F_j b^dag X_j, X = (b, b^dag, a, a^dag): row i of a
        band's diagonals is term i, so (1, -F1, ..., -F4) @ diagonals is
        A's band at that offset."""
        terms = [self.bands["-iH"]] + [_bands(self.bd @ x) for x in
                                       (self.b, self.bd, self.a, self.ad)]
        basis = {}
        for i, t in enumerate(terms):
            for o, w in t:
                basis.setdefault(o, np.zeros((5, len(w)), dtype=complex))[i] += w
        return sorted(basis.items(), key=lambda band: band[0])

    @property
    def moment_matrices(self):
        """Stack of the 14 operators matching moments.MOMENT_LABELS."""
        a, ad, b, bd = self.a, self.ad, self.b, self.bd
        return np.stack([
            a, ad, b, bd,
            a @ a, a @ ad, a @ b, a @ bd,
            ad @ ad, ad @ b, ad @ bd,
            b @ b, b @ bd, bd @ bd,
        ])

    @cached_property
    def _moment_gather(self):
        """Label m, flat index of rho[s, r] and value of every nonzero
        M_m[r, s]: tr(M_m rho) sums M_m[r, s] rho[s, r]."""
        mats = self.moment_matrices
        m, r, s = np.nonzero(mats)
        return m, s * self.dim + r, mats[m, r, s]

    def moment_vector(self, rho):
        """The 14 unnormalized means tr(M rho), O(d) per call."""
        m, idx, w = self._moment_gather
        p = w * rho.ravel()[idx]
        return np.bincount(m, p.real, 14) + 1j * np.bincount(m, p.imag, 14)

    @cached_property
    def _leak_mask(self):
        na, nb = self.dims
        ia, ib = np.divmod(np.arange(self.dim), nb)
        return (ia == na - 1) | (ib == nb - 1)

    def leakage(self, rho):
        """Population sitting in the top level of either mode."""
        return float(np.einsum("ii->i", rho).real[self._leak_mask].sum())


def build_operators(dims, sys: LinearizedSystem = None) -> FockOperators:
    """Truncated ladder matrices on the (N_a, N_b) product space.

    When a linearized system is given, the Hamiltonian
    -Delta a^dag a + omega_m b^dag b + G (a^dag + a)(b^dag + b)
    is attached.
    """
    na, nb = int(dims[0]), int(dims[1])
    if na < 2 or nb < 2:
        raise ValueError("need at least two levels per mode")
    sa = _ladder(na)
    sb = _ladder(nb)
    a = np.kron(sa, np.eye(nb))
    b = np.kron(np.eye(na), sb)
    ad = a.conj().T.copy()
    bd = b.conj().T.copy()
    H = None
    if sys is not None:
        H = (-sys.Delta * (ad @ a) + sys.omega_m * (bd @ b)
             + sys.G * ((ad + a) @ (bd + b)))
    return FockOperators(dims=(na, nb), a=a, ad=ad, b=b, bd=bd, H=H)


def basis_state(dims, na=0, nb=0):
    """Number state |na, nb> as a flat vector."""
    if not (0 <= na < dims[0] and 0 <= nb < dims[1]):
        raise ValueError("dims too small for the requested state")
    v = np.zeros(dims[0] * dims[1], dtype=complex)
    v[na * dims[1] + nb] = 1.0
    return v


def projector(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def moments_from_rho(rho, ops: FockOperators, normalize=True):
    """The (14,) moment vector by trace contraction; divides by tr rho by
    default so ensemble-averaged (not exactly normalized) states give
    estimators."""
    vals = ops.moment_vector(np.asarray(rho))
    if normalize:
        tr = np.trace(rho)
        if abs(tr) < 1e-12:
            raise ValueError("state has (near) zero trace")
        vals = vals / tr
    return vals


@dataclass(frozen=True)
class RhoTrajectory:
    """Density-matrix evolution with per-node scalar series.

    Full matrices are kept only at ``store_idx`` nodes (always including
    the first and last); moments and trace are tracked at every node.
    """

    grid: TimeGrid
    store_idx: np.ndarray
    rhos: np.ndarray
    moments: np.ndarray
    traces: np.ndarray

    @property
    def final(self):
        return self.rhos[-1]

    def rho_at(self, node):
        pos = np.searchsorted(self.store_idx, node)
        if pos == len(self.store_idx) or self.store_idx[pos] != node:
            raise KeyError(f"node {node} was not stored")
        return self.rhos[pos]

    def en_series(self, **kw):
        return MomentTrajectory(grid=self.grid, values=self.moments).en_series(**kw)


def _check_rho(rho, ops, t, trace_tol, leak_tol):
    tr = np.trace(rho).real
    if not np.isfinite(tr) or abs(tr - 1.0) > trace_tol:
        raise NumericalFailure(
            f"trace drifted to {tr:.10f} at t={t:.3f}; reduce the step size"
        )
    leak = ops.leakage(rho)
    if leak > leak_tol:
        na, nb = ops.dims
        raise TruncationError(
            f"truncation leakage {leak:.2e} at t={t:.3f} exceeds {leak_tol:.0e}",
            suggested_dims=(na + 4, nb + 4),
        )


def _store_nodes(n, store_every):
    """Indices of the stored nodes of an ``n``-node march: every
    ``store_every``-th node and both ends (the ends only for 0)."""
    return np.array(sorted({0, n - 1, *range(0, n, store_every or n)}))


def _run_rho(rhs_at, grid, rho0, ops, store_every, trace_tol, leak_tol):
    """Shared 4th-order density-matrix march.

    ``rhs_at(j)`` returns the generator, a function of rho, with its
    coefficients at half-node ``j`` (see :func:`stepping.march_driven`).
    ``rho0`` must be Hermitian, as the band generators assume.
    """
    n = grid.n_points
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (ops.dim, ops.dim):
        raise ValueError("initial state has wrong dimension")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, np.abs(rho).max()):
        raise ValueError("initial state must be Hermitian")
    store_idx = _store_nodes(n, store_every)
    slot = {k: i for i, k in enumerate(store_idx.tolist())}
    rhos = np.empty((len(store_idx), ops.dim, ops.dim), dtype=complex)
    moments = np.empty((n, 14), dtype=complex)
    traces = np.empty(n)

    def visit(k, rho):
        traces[k] = np.trace(rho).real
        moments[k] = ops.moment_vector(rho)
        if k in slot:
            rhos[slot[k]] = rho
        _check_rho(rho, ops, grid.dt * k, trace_tol, leak_tol)

    march_driven(rhs_at, rho, grid, visit)
    return RhoTrajectory(grid=grid, store_idx=store_idx, rhos=rhos,
                         moments=moments, traces=traces)


def _band_generator(ops, lb, o1, o2=()):
    """drho/dt = E + E^dag, E = -iH rho + L S - L^dag S^dag with
    S = (O1 rho)^dag - O2 rho, from the band lists of L, O1 and O2.

    For Hermitian rho this is -i[H, rho] + [L, rho O1^dag]
    + [L^dag, rho O2^dag] + h.c. with left band products only.
    """
    hb = ops.bands["-iH"]
    neg_ld = [(-o, -w.conj()) for o, w in lb]
    neg_o2 = [(o, -w) for o, w in o2]

    def gen(rho):
        e = _lmul(hb, rho)
        s = _dagger(_lmul(o1, rho))
        _lmul(neg_o2, rho, s)
        _lmul(lb, s, e)
        _lmul(neg_ld, _dagger(s), e)
        e += _dagger(e)
        return e

    return gen


def _weighted(coeffs, bands):
    """Band list of sum_j c_j B_j."""
    return [(o, c * w) for c, (o, w) in zip(coeffs, bands)]


def _master_generator(ops: FockOperators, fv):
    """Generator of the memory-carrying master equation at one stage with
    F1..F4 = ``fv``: -i[H, rho] + [b, rho Obar^dag] + h.c."""
    bd = ops.bands
    obar = _weighted(fv, (bd["b"], bd["bd"], bd["a"], bd["ad"]))
    return _band_generator(ops, [bd["b"]], obar)


def integrate_master(F: OCoefficientSeries, ops: FockOperators, rho0,
                     grid: TimeGrid, store_every=0, trace_tol=1e-6,
                     leak_tol=1e-4) -> RhoTrajectory:
    """Integrate the memory-carrying master equation.

    The generator (:func:`_master_generator`) is applied as band products
    built once from the ladder structure, O(d^2) per stage.  Only F1..F4
    drive the equation; F5 never enters.
    """
    if not grid.matches(F.grid):
        raise ValueError("F series and master integration must share one grid")
    if ops.H is None:
        raise ValueError("operators were built without a Hamiltonian")
    rows = (F.F1, F.F2, F.F3, F.F4)
    return _run_rho(lambda j: _master_generator(ops, half_node_values(rows, j)),
                    grid, rho0, ops, store_every, trace_tol, leak_tol)


def integrate_lindblad(ops: FockOperators, Gamma, rho0, grid: TimeGrid,
                       store_every=0, trace_tol=1e-6,
                       leak_tol=1e-4) -> RhoTrajectory:
    """Memoryless reference equation
    drho/dt = -i[H, rho] + Gamma/2 ([b, rho b^dag] + [b rho, b^dag]),
    kept as an independent code path for cross-checks."""
    if ops.H is None:
        raise ValueError("operators were built without a Hamiltonian")
    H, b, bd = ops.H, ops.b, ops.bd
    half = 0.5 * Gamma

    def gen(rho):
        p = rho @ bd
        q = b @ rho
        return (-1j * (H @ rho - rho @ H)
                + half * ((b @ p - p @ b) + (q @ bd - bd @ q)))

    return _run_rho(lambda _: gen, grid, rho0, ops, store_every, trace_tol,
                    leak_tol)


def _thermal_generator(ops: FockOperators, x):
    """Two-bath generator at one stage with X11..X14, X21..X24 = ``x``:
    -i[H, rho] + [L, rho Obar1^dag] + [L^dag, rho Obar2^dag] + h.c. with
    L = a + b (the q_i = Obar_i rho terms are the daggers p_i^dag)."""
    bd = ops.bands
    basis = (bd["a"], bd["ad"], bd["b"], bd["bd"])
    return _band_generator(ops, [bd["a"], bd["b"]], _weighted(x[0:4], basis),
                           _weighted(x[4:8], basis))


def integrate_thermal_master(Xij: ThermalOCoefficients, ops: FockOperators,
                             rho0, grid: TimeGrid, store_every=0,
                             trace_tol=1e-6, leak_tol=1e-4) -> RhoTrajectory:
    """Integrate the two-bath state equation of ``thermal`` (channel
    L = a + b) on the band products of the zero-temperature equation;
    each bath term is Hermiticity- and trace-preserving on its own."""
    if not grid.matches(Xij.grid):
        raise ValueError("coefficients and integration must share one grid")
    if ops.H is None:
        raise ValueError("operators were built without a Hamiltonian")
    rows = [Xij.X[:, i, j] for i in range(2) for j in range(4)]
    return _run_rho(lambda j: _thermal_generator(ops, half_node_values(rows, j)),
                    grid, rho0, ops, store_every, trace_tol, leak_tol)


@dataclass(frozen=True)
class StatePath:
    """Stored (possibly unnormalized) state vectors at ``node_indices``:
    shape (nodes, d) for one trajectory, (paths, nodes, d) for an
    ensemble."""

    grid: TimeGrid
    dims: tuple
    node_indices: np.ndarray
    states: np.ndarray

    @property
    def final(self):
        return self.states[..., -1, :]


# a trajectory amplitude past this aborts the march (heavy-tailed norm)
_NORM_CAP = 1e6


def _propagate_states(F, ops, Z, psi0, grid, store_idx, out):
    """March a batch of trajectories from ``psi0`` and write the states at
    ``store_idx`` into ``out``, shape (paths, nodes, d); Z has one noise
    column per path on the refined (half-step) grid.

    A stage applies the drift's band list (``FockOperators._drift_basis``
    weighted by F1..F4) and the b band times each path's noise, so every
    path is advanced element by element, independent of the batch width.
    """
    basis = ops._drift_basis
    ob, wb = ops.bands["b"]
    rows = (F.F1, F.F2, F.F3, F.F4)
    slot = {k: i for i, k in enumerate(store_idx.tolist())}

    def rhs_at(j):
        c = np.array([1.0, *(-f for f in half_node_values(rows, j))])
        bands = [(o, c @ w) for o, w in basis] + [(ob, np.outer(wb, Z[j]))]
        return lambda p: _lmul(bands, p)

    def visit(k, psi):
        if k in slot:
            out[:, slot[k]] = psi.T
        if k % 64 == 1 or k == grid.n_steps:
            worst = np.abs(psi).max()
            if not np.isfinite(worst) or worst > _NORM_CAP:
                raise NumericalFailure(
                    f"trajectory amplitude reached {worst:.2e} at "
                    f"t={grid.dt * k:.3f}; aborting (heavy-tailed norm)"
                )

    # the march runs on (d, paths): a band product scales whole rows
    psi0 = np.repeat(np.asarray(psi0, dtype=complex)[:, None], Z.shape[1], axis=1)
    march_driven(rhs_at, psi0, grid, visit)


def propagate_trajectory(F: OCoefficientSeries, ops: FockOperators,
                         noise: NoisePath, psi0, grid: TimeGrid,
                         store_every=1) -> StatePath:
    """Integrate one linear stochastic trajectory.

    The noise path must live on the half-step refinement of ``grid``
    (its values feed the interior stages directly).  The state norm is
    not preserved; the ensemble mean of projectors is the state.
    """
    if not grid.matches(F.grid):
        raise ValueError("F series and trajectory must share one grid")
    if not noise.grid.matches(grid.refine()):
        raise ValueError("noise must be sampled on the half-step refinement")
    store_idx = _store_nodes(grid.n_points, store_every)
    out = np.empty((1, len(store_idx), ops.dim), dtype=complex)
    _propagate_states(F, ops, noise.values[:, None], psi0, grid, store_idx, out)
    return StatePath(grid=grid, dims=ops.dims, node_indices=store_idx,
                     states=out[0])


def propagate_ensemble(F: OCoefficientSeries, ops: FockOperators,
                       k, psi0, grid: TimeGrid, n_paths,
                       master_seed, batch_size=512, store_every=0) -> StatePath:
    """Propagate ``n_paths`` trajectories with per-path counter-based seeds.

    Returns one StatePath whose states have shape (paths, nodes, d)
    (batching is an implementation detail; path i always consumes the
    stream seeded by (master_seed, i)).
    """
    store_idx = _store_nodes(grid.n_points, store_every)
    fine = grid.refine()
    # paths first: a batch touches only its own slice of the array
    states = np.empty((n_paths, len(store_idx), ops.dim), dtype=complex)
    for lo in range(0, n_paths, batch_size):
        hi = min(lo + batch_size, n_paths)
        seeds = [path_seed(master_seed, i) for i in range(lo, hi)]
        Z = sample_noise_batch(k, fine, seeds)
        _propagate_states(F, ops, Z, psi0, grid, store_idx, states[lo:hi])
    return StatePath(grid=grid, dims=ops.dims, node_indices=store_idx, states=states)


@dataclass(frozen=True)
class AveragedEnsemble:
    """Mean of unnormalized trajectory projectors at the stored nodes."""

    grid: TimeGrid
    node_indices: np.ndarray
    rhos: np.ndarray
    trace_mean: np.ndarray
    trace_se: np.ndarray


def average_trajectories(ensemble: StatePath) -> AveragedEnsemble:
    """Mean of |psi><psi| over an ensemble (see :func:`propagate_ensemble`),
    one matrix product per stored node.

    The standard error of the projector trace (|psi|^2) is reported per
    node.
    """
    states = ensemble.states
    if states.ndim != 3 or not len(states):
        raise ValueError("need an ensemble of at least one trajectory")
    m, n_nodes, dim = states.shape
    rhos = np.empty((n_nodes, dim, dim), dtype=complex)
    tr_mean = np.empty(n_nodes)
    tr_se = np.empty(n_nodes)
    for j in range(n_nodes):
        block = states[:, j]
        norms = np.einsum("pi,pi->p", block, block.conj()).real
        rhos[j] = block.T @ block.conj() / m
        tr_mean[j] = norms.mean()
        tr_se[j] = norms.std(ddof=1) / np.sqrt(m) if m > 1 else 0.0
    return AveragedEnsemble(grid=ensemble.grid, node_indices=ensemble.node_indices,
                            rhos=rhos, trace_mean=tr_mean, trace_se=tr_se)


def trace_distance(r1, r2):
    """Half the trace norm of the difference of two Hermitian matrices."""
    d = np.asarray(r1) - np.asarray(r2)
    d = 0.5 * (d + d.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(d)).sum())
