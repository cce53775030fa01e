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

Two solvers produce the F series: a two-time-grid march valid for any
kernel with pointwise values (the oracle), and a closed ODE system valid
for exponential kernels (the fast path).  The delta kernel bypasses
both: F1 = Gamma/2 identically, every other coefficient zero.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .kernel import KernelSpec, OUKernel, eval_kernel
from .params import LinearizedSystem
from .stepping import (
    TimeGrid,
    march_doubled,
    midpoint_derivative,
    midpoint_values,
    rk4_step,
    trapezoid_weights,
)

__all__ = [
    "OCoefficientSeries",
    "TwoTimeField",
    "solve_two_time_grid",
    "solve_ou_closed",
    "solve_ocoeff",
    "markov_series",
    "consistency_residual",
]

# boundary row values of (f1, f2, f3, f4) at s = t
_BC = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

_SLAB_BUDGET = 2_000_000_000  # bytes

_ROWS = ("F1", "F2", "F3", "F4", "F5")


@dataclass(frozen=True)
class OCoefficientSeries:
    """F series on a uniform grid.

    F5 is None when the run was asked to skip the memory-kernel
    correction term.  ``fields`` carries the two-time solution when the
    grid solver was asked to keep it (diagnostics only).
    """

    grid: TimeGrid
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    F4: np.ndarray
    F5: np.ndarray
    provenance: str
    fields: "TwoTimeField" = None

    @classmethod
    def batch(cls, series):
        """Per-point series stacked along a trailing point axis (a copy)."""
        def stack(f):
            rows = [getattr(F, f) for F in series]
            return None if rows[0] is None else np.stack(rows, axis=-1)
        return cls(grid=series[0].grid, provenance="batch", **{f: stack(f) for f in _ROWS})

    def point(self, p):
        """Series of point ``p`` of a batched solve, as views."""
        return replace(self, **{f: None if getattr(self, f) is None
                                else getattr(self, f)[:, p] for f in _ROWS})


@dataclass(frozen=True)
class TwoTimeField:
    """Stored two-time solution f_j(t_k, s_l), l <= k, plus F5'(t_k, s_l).

    ``f5_slab`` is the (s, s') slab at the final time; both are None
    without f5.  Row k of each f_j holds s-nodes 0..k, zero past them.
    """

    grid: TimeGrid
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    f5_prime: np.ndarray
    f5_slab: np.ndarray

    def boundary_residual(self):
        """Max deviation of the enforced boundary rows; zero by construction."""
        n = self.grid.n_points
        d = np.diag_indices(n)
        r = max(
            np.abs(self.f1[d] - 1.0).max(),
            np.abs(self.f2[d]).max(),
            np.abs(self.f3[d]).max(),
            np.abs(self.f4[d]).max(),
        )
        if self.f5_slab is not None:
            # last slab: row s = t vanishes, column s' = t equals f2(t, s)
            r = max(r, np.abs(self.f5_slab[-1, :]).max())
            r = max(r, np.abs(self.f5_slab[:, -1] - self.f2[-1, :]).max())
        return float(r)


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


def _two_time_march(row_rhs, bc, kernels, grid, with_slab=False,
                    store_fields=False, what="coefficient march"):
    """The two-time grid march of B baths with boundary rows ``bc`` (B, 4).

    ``row_rhs(y, x, v)`` is the time derivative of the s-rows ``y``
    (B, 4, L) at the kernel averages ``x`` (B, 4) and the F5' row ``v``.
    Each step is one :func:`rk4_step` over every s-row; the stage
    averages are re-quadratured from the stage rows with half-node kernel
    weights plus the exact boundary-node contribution.  With
    ``with_slab`` (one bath) the stages record their (f1 row, F5' row)
    pairs and the f5 slab takes their weighted outer products once per
    step.  Returns the node averages (n, B, 4), F5 (None without the
    slab), and with ``store_fields`` the (n, n) rows of every bath in
    order, the F5' rows and the last slab.
    """
    n = grid.n_points
    dt = grid.dt
    nb = len(kernels)
    # n x n complex arrays: the slab; with store_fields every bath's rows and F5'
    arrays = int(with_slab) + (4 * nb + int(with_slab) if store_fields else 0)
    need = 16 * n * n * arrays
    if need > _SLAB_BUDGET:
        raise NumericalFailure(
            f"two-time storage would need {need/1e9:.1f} GB, over the "
            f"{_SLAB_BUDGET/1e9:.1f} GB budget; coarsen the grid or drop f5"
        )
    t = grid.times()
    lag = [np.asarray(eval_kernel(k, t, 0.0), dtype=complex) for k in kernels]
    half = [np.asarray(eval_kernel(k, t + 0.5 * dt, 0.0), dtype=complex)
            for k in kernels]
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
        if not (np.all(np.isfinite(X[kk + 1]))
                and (F5 is None or np.isfinite(F5[kk + 1]))):
            raise NumericalFailure(
                f"{what} diverged at t={t[kk + 1]:.3f}; "
                "the grid is too coarse for these parameters"
            )
    return X, F5, (*rows_hist.reshape(4 * nb, n, n), f5p_hist, S) if store_fields else None


def solve_two_time_grid(k: KernelSpec, sys: LinearizedSystem, grid: TimeGrid,
                        include_f5=True, store_fields=False) -> OCoefficientSeries:
    """March the two-time system and quadrature the F series.

    Works for any kernel with pointwise values; the march is
    :func:`_two_time_march` with one bath and, unless ``include_f5`` is
    off, the f5 slab.  The delta kernel short-circuits to the exact
    constant series.
    """
    if k.variant == "markov-delta":
        return markov_series(k.weight, grid, include_f5=include_f5)
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    X, F5, stored = _two_time_march(
        lambda y, x, v: _row_rhs(y[0], x[0], v, wm, delta, g)[None],
        _BC[None], [k], grid, include_f5, store_fields)
    F = np.ascontiguousarray(X[:, 0].T)
    fields = TwoTimeField(grid, *stored) if store_fields else None
    return OCoefficientSeries(
        grid=grid, F1=F[0], F2=F[1], F3=F[2], F4=F[3], F5=F5,
        provenance="two-time-grid", fields=fields,
    )


def _closed_rhs(fv, a0, r1, r2, r3, r4, ig, mu2, with_f5):
    # r1..r4 = (+-i wm - mu, -+i Delta - mu), ig = iG and mu2 = 2 mu are
    # formed once per solve, with the same operations as written inline
    F1, F2, F3, F4 = fv[0], fv[1], fv[2], fv[3]
    c34 = ig * (F3 - F4)
    c12 = ig * (F1 - F2)
    out = np.empty_like(fv)
    out[0] = a0 + (r1 + F1) * F1 + c34
    out[1] = (r2 + F1) * F2 + c34
    out[2] = (r3 + F1) * F3 + c12
    out[3] = (r4 + F1) * F4 + c12
    if with_f5:
        F5 = fv[4]
        out[1] -= F5
        out[4] = a0 * F2 + (F1 - mu2) * F5
    return out


def solve_ou_closed(k, sys, grid: TimeGrid, include_f5=True) -> OCoefficientSeries:
    """Closed ODE fast path for exponential kernels.

    Differentiating the quadrature definitions under an exponential
    kernel closes the system on (F1..F5) alone; validated against the
    grid solver.  Step doubling guards against stiffness.

    ``k`` and ``sys`` are one :class:`OUKernel` and one system, or two
    equal-length sequences of them, one pair per scan point.  The points
    of a sequence march together, and every F array of the result then
    carries a trailing point axis (see :meth:`OCoefficientSeries.point`).
    """
    batch = isinstance(k, (list, tuple))
    pairs = list(zip(k, sys, strict=True)) if batch else [(k, sys)]
    if not all(isinstance(q, OUKernel) for q, _ in pairs):
        raise TypeError("closed path needs an exponential kernel")
    consts = [(complex(q.alpha0), q.mu, s.omega_m, s.Delta, s.G) for q, s in pairs]
    a0, mu, wm, delta, g = (np.array(c) for c in zip(*consts)) if batch else consts[0]
    rates = (a0, 1j * wm - mu, -1j * wm - mu, -1j * delta - mu, 1j * delta - mu,
             1j * g, 2.0 * mu)
    dim = 5 if include_f5 else 4
    y0 = np.zeros((dim, len(pairs)) if batch else dim)
    F = np.moveaxis(march_doubled(lambda y: _closed_rhs(y, *rates, include_f5), y0,
                                  grid, "closed coefficient system"), 1, 0)
    return OCoefficientSeries(
        grid=grid, F1=F[0], F2=F[1], F3=F[2], F4=F[3],
        F5=F[4] if include_f5 else None, provenance="closed-ou",
    )


def solve_ocoeff(k, sys, grid: TimeGrid, include_f5=True,
                 solver="auto") -> OCoefficientSeries:
    """Dispatch to the right solver for the kernel variant.

    Sequences of exponential kernels and systems march together on the
    closed solver (see :func:`solve_ou_closed`).
    """
    if isinstance(k, (list, tuple)) and solver in ("auto", "closed"):
        return solve_ou_closed([x.ou for x in k], sys, grid, include_f5=include_f5)
    if k.variant == "markov-delta":
        return markov_series(k.weight, grid, include_f5=include_f5)
    if solver == "auto":
        solver = "closed" if k.variant == "ou" else "grid"
    if solver == "closed":
        if k.variant != "ou":
            raise ValueError("closed solver needs an exponential kernel")
        return solve_ou_closed(k.ou, sys, grid, include_f5=include_f5)
    if solver == "grid":
        return solve_two_time_grid(k, sys, grid, include_f5=include_f5)
    raise ValueError(f"unknown solver {solver!r}")


def consistency_residual(series: OCoefficientSeries, fields: TwoTimeField,
                         k: KernelSpec, sys: LinearizedSystem,
                         max_columns=16) -> float:
    """Max-norm residual of the coefficient equations at off-grid midpoints.

    Columns of the stored two-time solution (fixed s, running t) are
    interpolated to panel midpoints with 4th-order stencils; the
    midpoint derivative is compared against the equation right-hand
    side.  The delta-kernel series is constant and satisfies its
    reduced equation identically.
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
    stride = max(1, n // max_columns)
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
