"""Truncated two-mode number-basis engines.

Everything downstream of the Gaussian machinery can be cross-checked
here: the memory-carrying master equation

    drho/dt = -i[H_S, rho] + [b, rho Obar^dag] + h.c.,
    Obar(t) = F1 b + F2 b^dag + F3 a + F4 a^dag,

the two-bath equation of ``thermal`` and the linear stochastic
unraveling

    d|psi>/dt = (-i H_S + b z*_t - b^dag Obar(t)) |psi>,

whose unnormalized projectors average to rho, streamed a batch of
paths at a time (:func:`propagate_ensemble`).  The batches reach their
stored states through one sink hook (:func:`_march_batches`), so a
caller that keeps every path's states needs no march of its own.
States live on a (N_a, N_b) product of truncated ladders; a leakage
monitor guards the truncation.

Both density-matrix equations keep the excitation parity
(-1)^(n_a + n_b) as a weak symmetry: H keeps it and every jump or O
operator flips it, so entries of rho whose row and column parities
differ stay zero from a start without them (the vacuum, say).  The
marches hold rho in the compact :class:`_ParityLayout`, which keeps
only the half the start allows, and expand it at the stored nodes.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

import numpy as np

from .errors import NumericalFailure, TruncationError
from .kernel import _noise_blocks, path_seed
# sample_noise_batch is not called here; the benchmark tracer wraps this name
from .kernel import sample_noise_batch  # noqa: F401
from .moments import MomentTrajectory
from .ocoeff import OCoefficientSeries, _blas_on_caller
from .params import LinearizedSystem
from .stepping import TimeGrid, block_half_nodes, march_driven
from .thermal import ThermalOCoefficients

__all__ = [
    "FockOperators",
    "build_operators",
    "basis_state",
    "projector",
    "moments_from_rho",
    "RhoTrajectory",
    "integrate_master",
    "integrate_thermal_master",
    "AveragedEnsemble",
    "propagate_ensemble",
    "average_trajectories",
]


def _ladder(n):
    m = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n)
    m[idx - 1, idx] = np.sqrt(idx)
    return m


def _modes(dims):
    """Ladder matrices and identities, ((a, 1_a), (b, 1_b)), of the two
    modes alone: every product operator is an ``np.kron`` of products of
    these, so no d x d product is made."""
    return [(_ladder(n), np.eye(n)) for n in dims]


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


@dataclass
class FockOperators:
    """Dense matrices of the two truncated modes.

    H is the quadratic Hamiltonian for the system that built the
    operators.  In the product index
    k = i N_b + j every operator of the number-basis marches is a band:
    a and a^dag sit at offsets +-N_b, b and b^dag at +-1, H has 5 bands.
    """

    dims: tuple
    a: np.ndarray
    ad: np.ndarray
    b: np.ndarray
    bd: np.ndarray
    H: np.ndarray

    @property
    def dim(self):
        return self.dims[0] * self.dims[1]

    @cached_property
    def bands(self):
        """(offset, diagonal) of "a", "ad", "b", "bd"; band list of "-iH"."""
        out = {k: _bands(getattr(self, k))[0] for k in ("a", "ad", "b", "bd")}
        out["-iH"] = [(o, -1j * w) for o, w in _bands(self.H)]
        return out

    @cached_property
    def _drift_basis(self):
        """(offset, diagonals) of the trajectory drift
        A = -iH - sum_j F_j b^dag X_j, X = (b, b^dag, a, a^dag): row i of a
        band's diagonals is term i, so (1, -F1, ..., -F4) @ diagonals is
        A's band at that offset."""
        (sa, ia), (sb, ib) = _modes(self.dims)
        sad, sbd = sa.conj().T, sb.conj().T
        terms = [self.bands["-iH"]] + [_bands(x) for x in (
            np.kron(ia, sbd @ sb), np.kron(ia, sbd @ sbd), np.kron(sa, sbd), np.kron(sad, sbd))]
        basis = {}
        for i, t in enumerate(terms):
            for o, w in t:
                basis.setdefault(o, np.zeros((5, len(w)), dtype=complex))[i] += w
        return sorted(basis.items(), key=lambda band: band[0])

    @property
    def moment_matrices(self):
        """Stack of the 14 observables matching moments.MOMENT_LABELS.

        A mode's own second moments use a^dag a = a a^dag - 1 (as the
        ladder equations do), not products of the truncated quadratures.
        """
        (sa, ia), (sb, ib) = _modes(self.dims)
        sad, sbd = sa.conj().T, sb.conj().T
        one = np.eye(self.dim)
        qa, pa, qb, pb = sa + sad, -1j * (sa - sad), sb + sbd, -1j * (sb - sbd)
        aa, adad = np.kron(sa @ sa, ib), np.kron(sad @ sad, ib)
        bb, bdbd = np.kron(ia, sb @ sb), np.kron(ia, sbd @ sbd)
        na, nb = np.kron(2.0 * sa @ sad, ib) - one, np.kron(ia, 2.0 * sb @ sbd) - one
        return np.stack([
            np.kron(qa, ib), np.kron(pa, ib), np.kron(ia, qb), np.kron(ia, pb),
            aa + adad + na, -1j * (aa - adad), np.kron(qa, qb), np.kron(qa, pb),
            na - aa - adad, np.kron(pa, qb), np.kron(pa, pb),
            bb + bdbd + nb, -1j * (bb - bdbd), nb - bb - bdbd,
        ])

    @cached_property
    def _moment_gather(self):
        """Label m, flat index of rho[s, r] and value of every nonzero
        M_m[r, s]: tr(M_m rho) sums M_m[r, s] rho[s, r]."""
        mats = self.moment_matrices
        m, r, s = np.nonzero(mats)
        return m, s * self.dim + r, mats[m, r, s]

    def moment_vector(self, rho):
        """The 14 unnormalized real means tr(M rho) of a Hermitian rho,
        O(d) per call."""
        m, idx, w = self._moment_gather
        return np.bincount(m, (w * rho.ravel()[idx]).real, 14)

    @cached_property
    def _parity(self):
        """Excitation parity (n_a + n_b) % 2 of each product index."""
        ia, ib = np.divmod(np.arange(self.dim), self.dims[1])
        return (ia + ib) % 2

    @cached_property
    def _layouts(self):
        return {}

    def _parity_layout(self, k):
        """The :class:`_ParityLayout` with ``k`` slots, built on first use."""
        if k not in self._layouts:
            self._layouts[k] = _ParityLayout(self, k)
        return self._layouts[k]


class _ParityLayout:
    """Compact storage of a density matrix under the excitation parity.

    H keeps the parity (-1)^(n_a + n_b); a, a^dag, b and b^dag flip it.
    So the generators map the block (p, q) of rho (row parity p, column
    parity q) to (p, q) or (p + 1, q + 1): the same-parity entries
    (p = q) and the cross-parity ones never mix.  A compact array keeps
    the rows of rho in the product index; row r, of parity pi(r), holds
    ``k`` slots of m = ceil(d/2) columns, slot s the columns of parity
    pi(r) ^ tau ^ s in increasing order, zero-padded at odd d.  rho has
    pattern tau = 0 (slot 0 is its same-parity half); a left factor that
    flips the parity flips tau, so :func:`_lmul` acts on compact arrays
    as on full ones.  One slot serves a rho without cross-parity
    entries, which then stay zero and are not stored.

    The read-outs are gathers: the diagonal and the second moments sit
    in the same-parity slot, the first moments in the cross-parity one.
    """

    def __init__(self, ops: FockOperators, k):
        d, par = ops.dim, ops._parity
        m = (d + 1) // 2
        width = k * m
        pos = np.empty(d, dtype=np.intp)
        lists = np.full((2, m), -1, dtype=np.intp)
        for p in (0, 1):
            c = np.flatnonzero(par == p)
            pos[c] = np.arange(len(c))
            lists[p, :len(c)] = c
        rows = np.arange(d)[:, None]
        slot_base = np.repeat(np.arange(k) * m, m)
        own = rows * width + np.arange(width)

        def cols(tau):  # full column of each compact entry, -1 at padding
            return lists[par[:, None] ^ tau ^ np.arange(k)].reshape(d, width)

        def dagger_index(tau):
            # entry (r, c) of x^dag is conj x[c, r], in the same slot of row c
            c = cols(tau)
            return np.where(c >= 0, c * width + slot_base + pos[rows], own)

        self.shape = (d, width)
        self._dagger = (dagger_index(0), dagger_index(1))
        c0 = cols(0)
        valid = c0 >= 0
        self._stored = own[valid]
        self._full = (rows * d + c0)[valid]
        to_compact = np.full(d * d, -1, dtype=np.intp)
        to_compact[self._full] = self._stored
        self._diag = np.arange(d) * width + pos
        na, nb = ops.dims
        ia, ib = np.divmod(np.arange(d), nb)
        self._leak = self._diag[(ia == na - 1) | (ib == nb - 1)]
        label, idx, w = ops._moment_gather
        idx = to_compact[idx]
        keep = idx >= 0
        self._moments = label[keep], idx[keep], w[keep]
        # the band list of -iH with each diagonal repeated over the row's
        # width: a full-width product takes about half the time of one
        # broadcast from a column
        self.h_bands = [(o, np.repeat(diag[:, None], width, axis=1))
                        for o, diag in ops.bands["-iH"]]

    def compact(self, rho):
        """The compact array of the full ``rho`` (entries not stored are
        dropped)."""
        x = np.zeros(self.shape, dtype=complex)
        x.reshape(-1)[self._stored] = np.asarray(rho).reshape(-1)[self._full]
        return x

    def expand(self, x, out=None):
        """The full d x d matrix of the compact ``x``, into a zeroed ``out``
        if given."""
        if out is None:
            out = np.zeros((self.shape[0],) * 2, dtype=complex)
        out.reshape(-1)[self._full] = x.reshape(-1)[self._stored]
        return out

    def dagger(self, x, tau):
        """Compact conjugate transpose of ``x``, whose slot 0 has pattern
        ``tau``; padding reads its own (zero) entry."""
        y = x.reshape(-1)[self._dagger[tau]]
        return np.conjugate(y, out=y)

    def trace(self, x):
        return x.reshape(-1)[self._diag].sum().real

    def leakage(self, x):
        """Population sitting in the top level of either mode."""
        return float(x.reshape(-1)[self._leak].real.sum())

    def moment_vector(self, x):
        """:meth:`FockOperators.moment_vector` of the compact ``x``."""
        label, idx, w = self._moments
        return np.bincount(label, (w * x.reshape(-1)[idx]).real, 14)


def build_operators(dims, sys: LinearizedSystem) -> FockOperators:
    """Truncated ladder matrices on the (N_a, N_b) product space, with
    the Hamiltonian -Delta a^dag a + omega_m b^dag b + G (a^dag + a)(b^dag + b)
    of the linearized system.
    """
    na, nb = int(dims[0]), int(dims[1])
    if na < 2 or nb < 2:
        raise ValueError("need at least two levels per mode")
    (sa, ia), (sb, ib) = _modes((na, nb))
    sad, sbd = sa.conj().T, sb.conj().T
    a, b = np.kron(sa, ib), np.kron(ia, sb)
    ad = a.conj().T.copy()
    bd = b.conj().T.copy()
    H = (-sys.Delta * np.kron(sad @ sa, ib) + sys.omega_m * np.kron(ia, sbd @ sb)
         + sys.G * np.kron(sad + sa, sbd + sb))
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


def moments_from_rho(rho, ops: FockOperators):
    """The real (14,) moment vector by trace contraction, divided by
    tr rho so ensemble-averaged (not exactly normalized) states give
    estimators."""
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise ValueError("state has (near) zero trace")
    return ops.moment_vector(np.asarray(rho)) / tr


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

    def en_series(self):
        return MomentTrajectory(grid=self.grid, values=self.moments).en_series()


def _check_rho(tr, leak, ops, t, trace_tol, leak_tol):
    if not np.isfinite(tr) or abs(tr - 1.0) > trace_tol:
        raise NumericalFailure(
            f"trace drifted to {tr:.10f} at t={t:.3f}; reduce the step size"
        )
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
    """Shared 4th-order density-matrix march on the compact parity layout.

    ``rhs_at(lay, j)`` returns the generator, a function of compact
    arrays of the :class:`_ParityLayout` ``lay``, with its coefficients at
    half-node ``j`` (see :func:`stepping.march_driven`).  The layout holds
    one slot when ``rho0`` has no cross-parity entry, else two.  ``rho0``
    must be Hermitian, as the band generators assume.
    """
    n = grid.n_points
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (ops.dim, ops.dim):
        raise ValueError("initial state has wrong dimension")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, np.abs(rho).max()):
        raise ValueError("initial state must be Hermitian")
    par = ops._parity
    lay = ops._parity_layout(2 if rho[par[:, None] != par].any() else 1)
    store_idx = _store_nodes(n, store_every)
    slot = {k: i for i, k in enumerate(store_idx.tolist())}
    rhos = np.zeros((len(store_idx), ops.dim, ops.dim), dtype=complex)
    moments = np.empty((n, 14))
    traces = np.empty(n)

    def visit(k, x):
        traces[k] = lay.trace(x)
        moments[k] = lay.moment_vector(x)
        if k in slot:
            lay.expand(x, rhos[slot[k]])
        _check_rho(traces[k], lay.leakage(x), ops, grid.dt * k, trace_tol, leak_tol)

    march_driven(partial(rhs_at, lay), lay.compact(rho), grid, visit)
    return RhoTrajectory(grid=grid, store_idx=store_idx, rhos=rhos,
                         moments=moments, traces=traces)


def _band_generator(lay, lb, o1, o2=()):
    """drho/dt = E + E^dag, E = -iH rho + L S - L^dag S^dag with
    S = (O1 rho)^dag - O2 rho, from the band lists of L, O1 and O2, on
    compact arrays of the layout ``lay`` (whose operators give H).

    For Hermitian rho this is -i[H, rho] + [L, rho O1^dag]
    + [L^dag, rho O2^dag] + h.c. with left band products only.  Without
    O2, S^dag is O1 rho itself; with O2 it stays the dagger of S, so that
    S and S^dag round alike.
    """
    hb = lay.h_bands
    neg_ld = [(-o, -w.conj()) for o, w in lb]
    neg_o2 = [(o, -w) for o, w in o2]

    def gen(rho):
        e = _lmul(hb, rho)
        sd = _lmul(o1, rho)  # O1 flips the parity: pattern 1
        s = lay.dagger(sd, 1)
        if neg_o2:
            _lmul(neg_o2, rho, s)
            sd = lay.dagger(s, 1)
        _lmul(lb, s, e)
        _lmul(neg_ld, sd, e)
        e += lay.dagger(e, 0)
        return e

    return gen


def _weighted(coeffs, bands):
    """Band list of sum_j c_j B_j."""
    return [(o, c * w) for c, (o, w) in zip(coeffs, bands)]


def _master_generator(ops: FockOperators, lay, fv):
    """Generator of the memory-carrying master equation at one stage with
    F1..F4 = ``fv``: -i[H, rho] + [b, rho Obar^dag] + h.c., on compact
    arrays of the layout ``lay``."""
    bd = ops.bands
    obar = _weighted(fv, (bd["b"], bd["bd"], bd["a"], bd["ad"]))
    return _band_generator(lay, [bd["b"]], obar)


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
    values = block_half_nodes([(F.F1, F.F2, F.F3, F.F4)], grid.n_points)
    return _run_rho(lambda lay, j: _master_generator(ops, lay, values(j)),
                    grid, rho0, ops, store_every, trace_tol, leak_tol)


def _thermal_generator(ops: FockOperators, lay, x):
    """Two-bath generator at one stage with X11..X14, X21..X24 = ``x``:
    -i[H, rho] + [L, rho Obar1^dag] + [L^dag, rho Obar2^dag] + h.c. with
    L = a + b (the q_i = Obar_i rho terms are the daggers p_i^dag), on
    compact arrays of the layout ``lay``."""
    bd = ops.bands
    basis = (bd["a"], bd["ad"], bd["b"], bd["bd"])
    return _band_generator(lay, [bd["a"], bd["b"]], _weighted(x[0:4], basis),
                           _weighted(x[4:8], basis))


def integrate_thermal_master(Xij: ThermalOCoefficients, ops: FockOperators,
                             rho0, grid: TimeGrid, store_every=0,
                             trace_tol=1e-6, leak_tol=1e-4) -> RhoTrajectory:
    """Integrate the two-bath state equation of ``thermal`` (channel
    L = a + b) on the band products of the zero-temperature equation;
    each bath term is Hermiticity- and trace-preserving on its own."""
    if not grid.matches(Xij.grid):
        raise ValueError("coefficients and integration must share one grid")
    values = block_half_nodes([[Xij.X[:, i, j] for i in range(2) for j in range(4)]],
                              grid.n_points)
    return _run_rho(lambda lay, j: _thermal_generator(ops, lay, values(j)),
                    grid, rho0, ops, store_every, trace_tol, leak_tol)


# a trajectory amplitude past this aborts the march (heavy-tailed norm)
_NORM_CAP = 1e6


def _propagate_states(F, ops, noise, psi0, grid, store_idx, sink):
    """March a batch of trajectories from the (d, paths) states ``psi0``
    and hand the state at each node of ``store_idx`` to ``sink(i, psi)``:
    i is the node's place in ``store_idx`` and psi the (d, paths) march
    state, valid during the call only.  ``noise`` yields the paths' noise
    on the refined (half-step) grid as consecutive (rows, paths) blocks;
    a block is read row by row as the march reaches it and is then
    dropped.

    A stage applies the drift's band list (``FockOperators._drift_basis``
    weighted by F1..F4) and the b band times each path's noise, so every
    path is advanced element by element, independent of the batch width.
    """
    basis = ops._drift_basis
    ob, wb = ops.bands["b"]
    values = block_half_nodes([(F.F1, F.F2, F.F3, F.F4)], grid.n_points)
    slot = {k: i for i, k in enumerate(store_idx.tolist())}
    # march_driven asks for the half-nodes in order, one row each
    z_rows = chain.from_iterable(noise)

    def rhs_at(j):
        c = np.concatenate(([1.0], -values(j)))
        bands = [(o, c @ w) for o, w in basis] + [(ob, np.outer(wb, next(z_rows)))]
        return lambda p: _lmul(bands, p)

    def visit(k, psi):
        if k in slot:
            sink(slot[k], psi)
        if k % 64 == 1 or k == grid.n_steps:
            worst = np.abs(psi).max()
            if not np.isfinite(worst) or worst > _NORM_CAP:
                raise NumericalFailure(
                    f"trajectory amplitude reached {worst:.2e} at "
                    f"t={grid.dt * k:.3f}; aborting (heavy-tailed norm)"
                )

    march_driven(rhs_at, psi0, grid, visit)


def _march_batches(F, ops, k, psi0, grid, n_paths, master_seed, batch_size,
                   store_idx, sink):
    """March ``n_paths`` trajectories ``batch_size`` at a time, path i on
    the stream seeded by (master_seed, i), and hand each batch's stored
    states to ``sink(lo, i, psi)``, lo being the batch's first path and
    i, psi as in :func:`_propagate_states`."""
    if not grid.matches(F.grid):
        raise ValueError("F series and trajectories must share one grid")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    fine = grid.refine()
    psi0 = np.asarray(psi0, dtype=complex)[:, None]
    for lo in range(0, n_paths, batch_size):
        seeds = [path_seed(master_seed, i)
                 for i in range(lo, min(lo + batch_size, n_paths))]
        # the march runs on (d, paths): a band product scales whole rows
        _propagate_states(F, ops, _noise_blocks(k, fine, seeds),
                          np.repeat(psi0, len(seeds), axis=1), grid, store_idx,
                          partial(sink, lo))


@dataclass(frozen=True)
class AveragedEnsemble:
    """Mean of unnormalized trajectory projectors at the stored nodes."""

    grid: TimeGrid
    node_indices: np.ndarray
    rhos: np.ndarray
    trace_mean: np.ndarray
    trace_se: np.ndarray


class _ProjectorSum:
    """Running sums of a trajectory ensemble at each stored node, folded a
    batch at a time: sum_p |psi_p><psi_p|, and the count, mean and M2 of
    the norms |psi_p|^2 less a shift, the first batch's mean (batch
    statistics merged as by Chan, Golub & LeVeque, Am. Stat. 37, 242
    (1983)).  Unshifted, the merged means would carry the size of the
    norms, not their spread, and their rounding would reach the standard
    error where the norms barely spread.
    """

    def __init__(self, n_nodes, dim):
        self.proj = np.zeros((n_nodes, dim, dim), dtype=complex)
        self.count = np.zeros(n_nodes)
        self.shift = np.zeros(n_nodes)
        self.mean = np.zeros(n_nodes)
        self.m2 = np.zeros(n_nodes)

    def fold(self, lo, i, psi):
        """Add the batch states ``psi`` (d, paths) at stored node ``i``."""
        with _blas_on_caller():
            self.proj[i] += psi @ psi.conj().T
        m = psi.shape[1]
        sq = np.square(psi.real)
        sq += np.square(psi.imag)
        norms = sq.sum(axis=0)
        n, total = self.count[i], self.count[i] + m
        if not n:
            self.shift[i] = norms.mean()
        x = norms - self.shift[i]
        mean = x.mean()
        delta = mean - self.mean[i]
        self.mean[i] += delta * m / total
        self.m2[i] += np.square(x - mean).sum() + delta * delta * n * m / total
        self.count[i] = total

    def average(self, grid, node_indices) -> AveragedEnsemble:
        # the lower triangle, mirrored, on a real diagonal: the product's
        # upper triangle and diagonal need not be exactly Hermitian
        low = np.tril(self.proj / self.count[:, None, None])
        d = np.arange(low.shape[1])
        low.imag[:, d, d] = 0.0
        rhos = low + np.conj(np.swapaxes(np.tril(low, -1), 1, 2))
        se = (np.sqrt(self.m2 / (self.count - 1)) / np.sqrt(self.count)
              if self.count[0] > 1 else np.zeros_like(self.m2))
        return AveragedEnsemble(grid=grid, node_indices=node_indices, rhos=rhos,
                                trace_mean=self.shift + self.mean, trace_se=se)


def propagate_ensemble(F: OCoefficientSeries, ops: FockOperators,
                       k, psi0, grid: TimeGrid, n_paths,
                       master_seed, batch_size=512,
                       store_every=0) -> AveragedEnsemble:
    """Mean projector of ``n_paths`` trajectories with per-path
    counter-based seeds, streamed: each batch is marched on noise coloured
    a block of half-nodes at a time and folded into sum_p |psi_p><psi_p|
    at every stored node, so memory scales with the batch and with
    nodes * d^2, not with the path count or (for exponential and delta
    kernels) the noise history.

    Path i always consumes the stream seeded by (master_seed, i); the
    mean depends on ``batch_size`` only by rounding.  The standard error
    of the projector trace (|psi|^2) is reported per node.
    """
    if n_paths < 1:
        raise ValueError("need an ensemble of at least one trajectory")
    store_idx = _store_nodes(grid.n_points, store_every)
    acc = _ProjectorSum(len(store_idx), ops.dim)
    _march_batches(F, ops, k, psi0, grid, n_paths, master_seed, batch_size,
                   store_idx, acc.fold)
    return acc.average(grid, store_idx)


def average_trajectories(ensemble) -> AveragedEnsemble:
    """Mean of |psi><psi| over a per-path ensemble, one matrix product per
    stored node.  ``ensemble`` has ``grid``, ``node_indices`` and the
    stored states ``states`` of shape (paths, nodes, d).

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

