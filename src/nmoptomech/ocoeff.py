"""Coefficient functions of the noise-free O operator.

The operator entering the evolution is expanded over the basis
(b, b^dag, a, a^dag) with kernel-averaged coefficients

    F_j(t) = int_0^t ds alpha(t, s) f_j(t, s),          j = 1..4
    F5'(t, s') = int_0^t ds alpha(t, s) f_5(t, s, s'),
    F5(t) = int_0^t ds' alpha(t, s') F5'(t, s'),

where the two-time functions satisfy, at fixed s,

    d/dt f1 =  i wm f1 + iG f3 - iG f4 + f1 F1
    d/dt f2 = -i wm f2 + iG f3 - iG f4 - f2 F1 + 2 f1 F2 - f4 F3 + f3 F4 - F5'(t, s)
    d/dt f3 = -i D  f3 + iG f1 - iG f2 + f1 F3
    d/dt f4 = +i D  f4 + iG f1 - iG f2 + f1 F4
    d/dt f5(t, s, s') = f1(t, s) F5'(t, s')

with boundary rows f1(t,t) = 1, f2(t,t) = f3(t,t) = f4(t,t) = 0,
f5(t,t,s') = 0 and f5(t,s,t) = f2(t,s).

Two solvers produce the F series, and the kernel's type picks one
(:func:`solve_ocoeff`): an :class:`OUKernel` takes the closed ODE system,
any other kernel the two-time-grid march, which is valid for every kernel
with pointwise values and is the route of every tabulated kernel.  The
grid route takes a :class:`DeltaKernel` to its exact series: F1 = Gamma/2
identically, every other coefficient zero.
"""

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .kernel import DeltaKernel, OUKernel
from .params import LinearizedSystem
from .stepping import (
    TimeGrid,
    doubled_blocks,
    rk4_step,
    trapezoid_weights,
)

__all__ = [
    "OCoefficientSeries",
    "solve_two_time_grid",
    "ou_closed_blocks",
    "solve_ou_closed",
    "solve_ocoeff",
    "markov_series",
]

# boundary row values of (f1, f2, f3, f4) at s = t
_BC = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

_SLAB_BUDGET = 2_000_000_000  # bytes

# steps whose four stage pairs wait as one rank-(4 * _DELAY) product
# before they fold into the f5 slab (16, 32 and 64 ran alike; 32 was fastest)
_DELAY = 32

# slab reads per fold block: each reads S + U @ V for its steps at once
# (2 and 4 ran alike; 4 holds the smaller read buffers, 0.4 MB at m = 501)
_READS = 4

_ROWS = ("F1", "F2", "F3", "F4", "F5")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of every OpenBLAS loaded in this
    process at the first call (numpy's among them, since this module
    imports numpy); none where /proc/self/maps is missing or numpy uses
    another BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: dlopen returns its handle
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                calls.append((get, put))
                break
    return tuple(calls)


@contextmanager
def _blas_on_caller():
    """Run the block with OpenBLAS products on the calling thread.

    The grid march's slab products are large enough for OpenBLAS to split
    them over its threads.  The split bought no wall time on an idle
    2-core host, doubled the CPU time, and with the other core busy made
    a march take 2-3 times as long.
    """
    calls = _openblas_threads()
    before = [get() for get, _ in calls]
    for _, put in calls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(calls, before):
            put(count)


@dataclass(frozen=True)
class OCoefficientSeries:
    """F series on a uniform grid.

    F5 is None when the run was asked to skip the memory-kernel
    correction term.
    """

    grid: TimeGrid
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    F4: np.ndarray
    F5: np.ndarray
    provenance: str

    def point(self, p):
        """Series of point ``p`` of a batched solve, as views."""
        return replace(self, **{f: None if getattr(self, f) is None
                                else getattr(self, f)[:, p] for f in _ROWS})


def markov_series(Gamma, grid: TimeGrid, include_f5=True) -> OCoefficientSeries:
    """Delta-kernel coefficients: F1 = Gamma/2 at every node, rest zero.

    The half weight comes from the boundary convention
    int_0^t delta(t,s) f(s) ds = f(t)/2.
    """
    n = grid.n_points
    z = np.zeros(n, dtype=complex)
    f1 = np.full(n, 0.5 * Gamma, dtype=complex)
    f5 = z.copy() if include_f5 else None
    return OCoefficientSeries(grid=grid, F1=f1, F2=z.copy(), F3=z.copy(),
                              F4=z.copy(), F5=f5, provenance="markov-delta")


def _row_matrix(F, wm, delta, g):
    """The matrix K(F) of the single-bath row equations at the averages
    F = (F1..F4): d/dt (f1..f4) = K(F) (f1..f4), less F5' on the f2 row.
    ``F`` (4,) gives one matrix, ``F`` (rows, 4) one (rows, 4, 4) matrix a row."""
    F1, F2, F3, F4 = np.asarray(F).T
    iw, ig, z = 1j * wm, 1j * g, 0.0 * F1  # z: zeros of F1's shape
    K = np.array([
        [iw + F1, z, z + ig, z - ig],
        [2.0 * F2, -iw - F1, ig + F4, -ig - F3],
        [ig + F3, z - ig, z - 1j * delta, z],
        [ig + F4, z - ig, z, z + 1j * delta],
    ])
    return K if K.ndim == 2 else np.moveaxis(K, (0, 1), (-2, -1))


def _two_time_march(coupling, bc, kernels, grid, with_slab=False,
                    what="coefficient march"):
    """The two-time grid march of B baths with boundary rows ``bc`` (B, 4).

    The s-rows y (B, 4, rows) of every bath evolve under one 4 x 4 matrix
    ``coupling(x)`` of the kernel averages x (B, 4): dy/dt is one product
    of it with y, less the F5' row on the f2 row with the slab.  Each step
    is one :func:`rk4_step` over the s-rows; the stage averages are
    re-quadratured from the stage rows with half-node kernel weights plus
    the exact boundary-node contribution.  Only the last m rows are
    marched: m is one past the last lag at which a sampled kernel value
    (node or half-node) is nonzero, so older rows carry zero weight at
    every later step (m = n for an exponential kernel and for a table
    without a zero tail).

    With ``with_slab`` (one bath) the f5 slab S gives, at each step, the
    node F5' row and the step's two stage F5' products, W @ S with the
    step's (3, m) weights W.  The stages' weighted (f1 row, F5' row) pairs
    of the last ``_DELAY`` steps wait as one low-rank update U @ V and fold
    into S every ``_DELAY`` steps and at the end, a block of rows at a
    time.  Between two folds S changes only by the column s' = t_L written
    after each step, and the weights depend on the grid and the kernel
    alone.  So each of the ``_READS`` read blocks of a fold block reads
    S + U @ V once, as one (3 * steps, m) product at its start, and each
    step adds its W times the columns written and the pairs held since.
    S, U and V keep M = min(n, m + _DELAY + 1)
    rows and columns, slot i for node ``base + i``: right after a fold,
    when nothing is pending, the window [L - m, L] moves to slot 0, so a
    kernel of finite support needs O(n + m²) memory.  The storage guard
    counts the M x M slab.  Returns the node averages (n, B, 4) and F5
    (None without the slab).
    """
    n = grid.n_points
    dt = grid.dt
    nb = len(kernels)
    t = grid.times()
    # an exponential kernel remembers the whole grid: its samples underflow
    # to zero only far out, which must not shrink the storage counted below
    m = n
    if not any(isinstance(k, OUKernel) for k in kernels):
        m = 1 + max(int(np.flatnonzero(k.alpha(tau)).max(initial=0))
                    for k in kernels for tau in (t, t + 0.5 * dt))
    M = min(n, m + _DELAY + 1) if with_slab else 0
    need = 16 * M * M  # the complex M x M slab
    if need > _SLAB_BUDGET:
        raise NumericalFailure(
            f"two-time storage would need {need/1e9:.1f} GB, over the "
            f"{_SLAB_BUDGET/1e9:.1f} GB budget; coarsen the grid or drop f5"
        )
    lag = [np.asarray(k.alpha(t), dtype=complex) for k in kernels]
    half = [np.asarray(k.alpha(t + 0.5 * dt), dtype=complex) for k in kernels]
    bw2 = np.array([0.25 * dt * a[0] * b for a, b in zip(lag, bc)])
    bw4 = np.array([0.5 * dt * a[0] * b for a, b in zip(lag, bc)])
    wgt = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    reads = -(-_DELAY // _READS)  # steps per slab read

    def average(y, kw):
        return np.array([y[i] @ kw[i] for i in range(nb)])

    def check(k):
        if not (np.all(np.isfinite(X[k])) and (F5 is None or np.isfinite(F5[k]))):
            raise NumericalFailure(
                f"{what} diverged at t={t[k]:.3f}; "
                "the grid is too coarse for these parameters"
            )

    Y = np.zeros((nb, 4, n), dtype=complex)
    Y[:, :, 0] = bc
    X = np.zeros((n, nb, 4), dtype=complex)
    F5 = S = None
    held, held_lo = 0, 0  # pending pairs, and the first row or column they touch
    if with_slab:
        F5, S = np.zeros(n, complex), np.zeros((M, M), complex)
        U, V = np.zeros((M, 4 * _DELAY), complex), np.zeros((4 * _DELAY, M), complex)
        Wbuf, Rbuf = np.empty((2, 3 * reads, M), complex)
        base = 0  # the node of buffer slot 0
    w = w1 = None

    def weights(kk):
        # window start, window and next-node trapezoid weights, and the
        # kernel-weighted stage rows of step kk
        nonlocal w, w1
        L = kk + 1
        lo = max(0, L - m)
        if lo <= 1:
            # past the first full window (lo > 1) the weights repeat
            w, w1 = trapezoid_weights(L, dt, lo), trapezoid_weights(L + 1, dt, lo)
        kw2 = [np.append(w[:-1], w[-1] + 0.25 * dt) * h[kk - lo::-1] for h in half]
        kw4 = [np.append(w[:-1], w[-1] + 0.5 * dt) * a[kk + 1 - lo:0:-1] for a in lag]
        return lo, w, w1, kw2, kw4

    def read(k0, lo0, W):
        # W @ (S + U @ V) over the columns [lo0, k0] that exist before step
        # k0, into the read buffer; no row from k0 on is written yet, in S
        # or in U
        a, b = lo0 - base, k0 - base
        R = np.matmul(W[:, :b - a], S[a:b, a:b + 1], out=Rbuf[:len(W), :b + 1 - a])
        if held:
            R += (W[:, :b - a] @ U[a:b, :held]) @ V[:held, a:b + 1]
        return R

    def read_block(k0, lo0):
        # the weights of the read block's steps, from k0 to the next fold at
        # most; with the slab also their weight rows Wb, zero outside each
        # step's window, and the read at k0.  Wb and the read reuse two
        # buffers, so no block allocates them anew
        steps = range(k0, min(k0 + reads, (k0 // _DELAY + 1) * _DELAY, n - 1))
        block = [weights(k) for k in steps]
        if not with_slab:
            return block, None, None
        Wb = Wbuf[:3 * len(steps), :steps[-1] + 1 - lo0]
        Wb[:] = 0
        for j, (k, (lo, w_, _, kw2, kw4)) in enumerate(zip(steps, block)):
            Wk = Wb[3 * j:3 * j + 3, lo - lo0:k + 1 - lo0]
            Wk[:] = w_ * lag[0][k - lo::-1], kw2[0], kw4[0]
            kw2[0], kw4[0] = Wk[1], Wk[2]  # the same rows, held once
        return block, Wb, read(k0, lo0, Wb)

    def node_f5(k, lo, W, k0, lo0, R):
        # W @ (S + U @ V) over the window [lo, k]: the F5' row at node k
        # (W[0] holds its weights) and the stage products.  R, the read at
        # step k0, gives the columns up to k0; the columns written and the
        # pairs held since are added here
        a, c, b = lo - base, max(lo, k0 + 1) - base, k + 1 - base
        P = np.empty((len(W), b - a), complex)
        P[:, :c - a] = R[:, lo - lo0:]
        P[:, c - a:] = W @ S[a:b, c:b]
        if held > held0:
            P += (W @ U[a:b, held0:held]) @ V[held0:held, a:b]
        F5[k] = P[0] @ W[0]
        check(k)
        return P

    def fold(L):
        # S += U @ V a block of rows at a time, so no L x L temporary is made
        nonlocal held
        a, b = held_lo - base, L - base
        for r in range(a, b, _DELAY):
            S[r:r + _DELAY, a:b] += U[r:r + _DELAY, :held] @ V[:held, a:b]
        U[a:b] = 0
        V[:, a:b] = 0
        held = 0

    def slide(lo, L):
        # move the window [lo, L] to the buffer origin; a block of d rows at
        # a time, so source and destination never overlap (an overlapping
        # slice assignment copies through an m x m temporary)
        nonlocal base
        d, w = lo - base, L + 1 - lo
        for r in range(0, w, d):
            e = min(r + d, w)
            S[r:e, :w] = S[r + d:e + d, d:d + w]
        S[w:] = 0
        S[:w, w:] = 0
        base = lo

    with np.errstate(over="ignore", invalid="ignore"), _blas_on_caller():
        for kk in range(n - 1):
            L = kk + 1
            if kk % _DELAY % reads == 0:
                k0, lo0, held0 = kk, max(0, L - m), held
                block, Wb, R = read_block(k0, lo0)
            j = kk - k0
            lo, _, w_next, kw2, kw4 = block[j]
            us, vs = [], []
            f5p = b_half = b_end = None
            if with_slab:
                f5p, b_half, b_end = node_f5(kk, lo, Wb[3 * j:3 * j + 3, lo - lo0:L - lo0],
                                             k0, lo0, R[3 * j:3 * j + 3])

            def stage(kw=None, bw=None, b=None, c=None):
                # kw None: the step's first stage, at the node
                def f(y):
                    x = X[kk] if kw is None else average(y, kw) + bw
                    d = np.einsum("jk,ikl->ijl", coupling(x), y)
                    if with_slab:
                        v = f5p if kw is None else b + c * (kw[0] @ us[-1]) * vs[-1]
                        us.append(y[0, 0])
                        vs.append(v)
                        d[0, 1] -= v
                    return d
                return f

            step = rk4_step(Y[:, :, lo:L], dt, stage(), stage(kw2, bw2, b_half, 0.5 * dt),
                            stage(kw4, bw4, b_end, dt))
            if with_slab:
                # the first stage's f1 row is a view of Y: hold the pairs first
                if not held:
                    held_lo = lo
                U[lo - base:L - base, held:held + 4] = np.stack(us, axis=1) * wgt
                V[held:held + 4, lo - base:L - base] = vs
                held += 4
                if held == 4 * _DELAY:
                    fold(L)
                    if lo > base:
                        slide(lo, L)
                # column s' = t_L: no pending pair reaches it before step L
                S[lo - base:L - base, L - base] = step[0, 1]
            Y[:, :, lo:L] = step
            Y[:, :, L] = bc
            kw1 = [w_next * a[kk + 1 - lo::-1] for a in lag]
            X[kk + 1] = average(Y[:, :, lo:L + 1], kw1)
            check(kk + 1)
        if with_slab:
            fold(L)
            lo = max(0, n - m)
            W = (trapezoid_weights(n, dt, lo) * lag[0][n - 1 - lo::-1])[None]
            node_f5(n - 1, lo, W, n - 1, lo, read(n - 1, lo, W))
    return X, F5


def solve_two_time_grid(k, sys: LinearizedSystem, grid: TimeGrid,
                        include_f5=True) -> OCoefficientSeries:
    """March the two-time system and quadrature the F series.

    Works for any kernel with pointwise values; the march is
    :func:`_two_time_march` with one bath and, unless ``include_f5`` is
    off, the f5 slab.  The delta kernel short-circuits to the exact
    constant series.
    """
    if isinstance(k, DeltaKernel):
        return markov_series(k.Gamma, grid, include_f5=include_f5)
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    X, F5 = _two_time_march(lambda x: _row_matrix(x[0], wm, delta, g),
                            _BC[None], [k], grid, include_f5)
    F = np.ascontiguousarray(X[:, 0].T)
    return OCoefficientSeries(
        grid=grid, F1=F[0], F2=F[1], F3=F[2], F4=F[3], F5=F5,
        provenance="two-time-grid",
    )


def ou_closed_blocks(k, sys, grid: TimeGrid, include_f5=True):
    """The closed OU march of :func:`solve_ou_closed` on sequences of
    kernels and systems, one pair per scan point, as it goes: node blocks
    (nodes, dim, P) of (F1..F4[, F5]) from :func:`stepping.doubled_blocks`.
    """
    pairs = list(zip(k, sys, strict=True))
    if not all(isinstance(q, OUKernel) for q, _ in pairs):
        raise TypeError("closed path needs an exponential kernel")
    dim = 5 if include_f5 else 4
    c = np.zeros((dim, len(pairs)), dtype=complex)
    K = np.zeros((dim, dim, len(pairs)), dtype=complex)
    for p, (q, s) in enumerate(pairs):
        a0, mu, ig, w, d = complex(q.alpha0), q.mu, 1j * s.G, s.omega_m, s.Delta
        c[0, p] = a0
        K[:4, :4, p] = [[1j * w - mu, 0, ig, -ig], [0, -1j * w - mu, ig, -ig],
                        [ig, -ig, -1j * d - mu, 0], [ig, -ig, 0, 1j * d - mu]]
        if include_f5:
            K[[1, 4, 4], [4, 1, 4], p] = (-1.0, a0, -2.0 * mu)
    return doubled_blocks(
        lambda y: c + np.einsum("ijp,...jp->...ip", K, y) + y[..., :1, :] * y,
        np.zeros_like(c), grid, "closed coefficient system")


def solve_ou_closed(k, sys, grid: TimeGrid, include_f5=True) -> OCoefficientSeries:
    """Closed ODE fast path for exponential kernels.

    Differentiating the quadrature definitions under an exponential
    kernel closes the system on F = (F1..F5) alone, as an affine map plus
    one rank-one term: dF/dt = c + K F + F1 F with c = alpha0 e_0.
    Validated against the grid solver; step doubling guards against
    stiffness.

    ``k`` and ``sys`` are one :class:`OUKernel` and one system, or two
    equal-length sequences of them, one pair per scan point.  Each point
    gets its own (c, K), and all march on one (dim, P) state with one
    ``einsum`` per stage, so a point's series is bitwise the same alone or
    in any batch.  For a sequence the F arrays carry a trailing point
    axis (see :meth:`OCoefficientSeries.point`).  The series is the join
    of the blocks of :func:`ou_closed_blocks`.
    """
    batch = isinstance(k, (list, tuple))
    F = np.concatenate(list(ou_closed_blocks(k if batch else [k], sys if batch else [sys],
                                             grid, include_f5)))
    F = np.moveaxis(F if batch else F[..., 0], 1, 0)
    return OCoefficientSeries(
        grid=grid, F1=F[0], F2=F[1], F3=F[2], F4=F[3],
        F5=F[4] if include_f5 else None, provenance="closed-ou",
    )


def solve_ocoeff(k, sys, grid: TimeGrid, include_f5=True) -> OCoefficientSeries:
    """Coefficient series of one kernel: an exponential kernel takes the
    closed system, any other the two-time grid march."""
    if isinstance(k, OUKernel):
        return solve_ou_closed(k, sys, grid, include_f5=include_f5)
    return solve_two_time_grid(k, sys, grid, include_f5=include_f5)

