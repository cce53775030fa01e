"""Mean-value evolution driven by the O-coefficient series, and the
covariance matrix built from it.

Quadratures are xi = (q1, p1, q2, p2) with q = a + ad, p = -i(a - ad);
with [xi_a, xi_b] = 2iM the vacuum covariance matrix is the identity.
The state stays Gaussian, so fourteen real means close on themselves:
the first moments r = <xi> and the second moments
S_ij = <{xi_i, xi_j}>/2 for i <= j.  A moment state is the real (14,)
vector x = (r, triu S) in the order of ``MOMENT_LABELS``; a stack of
states keeps the moment axis last.  The covariance is V = S - r r^T.

With F_j = R_j + i I_j the means obey dr/dt = A r and the second
moments the Lyapunov equation dS/dt = A S + S A^T + D (see
:func:`_moment_rhs`).
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .gaussian_ent import log_negativity, symplectic_readout
from .ocoeff import OCoefficientSeries
from .stepping import TimeGrid, half_node_values, march_driven

__all__ = [
    "DIP_TOL",
    "MOMENT_LABELS",
    "MomentTrajectory",
    "coherent",
    "vacuum",
    "integrate_moments",
    "covariances",
    "occupations",
]

# how far below 1 the smallest symplectic eigenvalue may dip unreported
DIP_TOL = 1e-6

MOMENT_LABELS = (
    "q1", "p1", "q2", "p2",
    "q1q1", "q1p1", "q1q2", "q1p2",
    "p1p1", "p1q2", "p1p2",
    "q2q2", "q2p2", "p2p2",
)

# (i, j) of the entries of triu S, and the position of S_ij in a state
_TRIU = np.triu_indices(4)
_SYM = np.empty((4, 4), dtype=int)
_SYM[_TRIU] = _SYM.T[_TRIU] = 4 + np.arange(10)


def coherent(alpha=0j, beta=0j):
    """Moment vector (14,) of the product coherent state |alpha> x |beta>."""
    a, b = complex(alpha), complex(beta)
    r = 2.0 * np.array([a.real, a.imag, b.real, b.imag])
    return np.concatenate([r, (np.outer(r, r) + np.eye(4))[_TRIU]])


def vacuum():
    """Moment vector (14,) of the two-mode vacuum."""
    return coherent(0j, 0j)


def covariances(x):
    """Covariance matrices V = S - r r^T, shape (..., 4, 4), of moment
    vector(s) ``x`` with the moment axis last."""
    x = np.asarray(x)
    r = x[..., :4]
    return x[..., _SYM] - r[..., :, None] * r[..., None, :]


def occupations(x):
    """<a^dag a> = (S_q1q1 + S_p1p1)/4 - 1/2 and likewise <b^dag b>, of
    moment vector(s) ``x`` with the moment axis last."""
    x = np.asarray(x)
    return (x[..., 4] + x[..., 8]) / 4.0 - 0.5, (x[..., 11] + x[..., 13]) / 4.0 - 0.5


def _moment_rhs(x, re1, re2, re3, re4, im1, im2, im3, im4, wm, delta, g):
    """dx/dt of one state: dr/dt = A r and dS/dt = A S + S A^T + D, with
    F_j = re_j + i im_j."""
    A = np.array([[0.0, -delta, 0.0, 0.0],
                  [delta, 0.0, -2.0 * g, 0.0],
                  [-re3 - re4, im3 - im4, -re1 - re2, wm + im1 - im2],
                  [-2.0 * g - im3 - im4, re4 - re3, -wm - im1 - im2, re2 - re1]])
    D = np.array([[0.0, 0.0, re3 - re4, im3 - im4],
                  [0.0, 0.0, -im3 - im4, re3 + re4],
                  [re3 - re4, -im3 - im4, 2.0 * (re1 - re2), -2.0 * im2],
                  [im3 - im4, re3 + re4, -2.0 * im2, 2.0 * (re1 + re2)]])
    AS = A @ x[_SYM]
    return np.concatenate([A @ x[:4], (AS + AS.T + D)[_TRIU]])


@dataclass(frozen=True)
class MomentTrajectory:
    """Moment vectors on the grid, row k = state at t_k."""

    grid: TimeGrid
    values: np.ndarray

    def point(self, p) -> "MomentTrajectory":
        """Trajectory of point ``p`` of a batched march, as a view."""
        return MomentTrajectory(grid=self.grid, values=self.values[..., p])

    def covariance(self, k):
        """Covariance matrix (4, 4) of the state at node k."""
        return covariances(self.values[k])

    def en_series(self, monitor=True):
        """Logarithmic negativity at every node, shape (n,), or (n, P) for
        a batched march; read out point by point.

        Matches per-node :func:`gaussian_ent.log_negativity` results.
        The physicality monitor warns (never raises) when the smallest
        symplectic eigenvalue of V dips below 1 by more than ``DIP_TOL``
        at any node; a march of several points warns once, naming how many dipped.
        """
        batch = self.values.ndim == 3
        values = self.values if batch else self.values[..., None]
        en = np.empty((values.shape[0], values.shape[2]))
        worst = []
        for p in range(values.shape[2]):
            r = symplectic_readout(covariances(values[..., p]))
            if np.any(r.negative):
                raise NumericalFailure(
                    f"unphysical covariance matrix at node {int(np.argmax(r.negative))} "
                    "(negative discriminant in the symplectic spectrum)"
                )
            if np.any(r.nu_pt_sq <= 0.0):
                raise NumericalFailure("nonpositive nu_minus^2 along the trajectory")
            en[:, p] = r.en
            worst.append(float(r.nu.min()))
        dips = [w for w in worst if w < 1.0 - DIP_TOL]
        if monitor and dips:
            where = f" at {len(dips)} of {len(worst)} scan points" if len(worst) > 1 else ""
            warnings.warn(f"covariance physicality dip{where}: min symplectic "
                          f"eigenvalue {min(dips):.8f} < 1", RuntimeWarning, stacklevel=2)
        return en if batch else en[:, 0]

    def en_at(self, k):
        return log_negativity(self.covariance(k)).En


@functools.cache
def _affine_basis():
    """:func:`_moment_rhs` probed into its affine form dx/dt = M(p) x + c(p).

    It is linear in each of its 11 real parameters p = (Re F1..F4,
    Im F1..F4, wm, delta, g): M(p) = p @ basis[:, :196] (row-major
    14 x 14) and c(p) = p @ basis[:, 196:].
    """
    basis = np.empty((11, 210))
    for j, p in enumerate(np.eye(11)):
        c = _moment_rhs(np.zeros(14), *p)
        cols = [_moment_rhs(e, *p) - c for e in np.eye(14)]
        basis[j, :196] = np.stack(cols, axis=1).ravel()
        basis[j, 196:] = c
    return basis


def integrate_moments(F: OCoefficientSeries, sys, init,
                      grid: TimeGrid) -> MomentTrajectory:
    """Integrate the 14 real mean-value equations with the shared
    4th-order step from the real (14,) moment vector ``init`` (e.g.
    :func:`vacuum`).

    The F series must live on the same grid; its half-node values come
    from the 4th-order midpoint stencil (exact for the constant
    delta-kernel series).  A batched F series (see
    :func:`ocoeff.solve_ou_closed`) with a sequence of systems, one per
    point, marches every point at once; the values then carry a trailing
    point axis (see :meth:`MomentTrajectory.point`).  A single point is a
    batch of one: every stage is one product with the affine basis and
    one batched 14 x 14 matrix-vector product.
    """
    if not grid.matches(F.grid):
        raise ValueError("F series and moment integration must share one grid")
    init = np.asarray(init)
    if np.iscomplexobj(init):
        raise ValueError("the moment vector is real; got a complex initial vector")
    if init.shape != (14,):
        raise ValueError(f"need a (14,) initial moment vector, got shape {init.shape}")
    n = grid.n_points
    batch = F.F1.ndim == 2
    systems = list(sys) if batch else [sys]
    rows = [r.reshape(n, -1) for r in (F.F1, F.F2, F.F3, F.F4)]
    if len(systems) != rows[0].shape[1]:
        raise ValueError("need one system per point of the F series")
    basis = _affine_basis()
    par = np.empty((len(systems), 11))
    par[:, 8:] = [(s.omega_m, s.Delta, s.G) for s in systems]
    # the state marches as (P, 14); midpoints step by step, so no stage
    # arrays are stored for every point
    vals = np.empty((n, 14, len(systems)))

    def rhs_at(j):
        f = np.transpose(half_node_values(rows, j))
        par[:, :4], par[:, 4:8] = f.real, f.imag
        op = par @ basis
        M, c = op[:, :196].reshape(-1, 14, 14), op[:, 196:]
        return lambda y: (M @ y[..., None])[..., 0] + c

    def visit(k, y):
        vals[k] = y.T

    march_driven(rhs_at, np.tile(init.astype(float), (len(systems), 1)), grid, visit)
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("moment integration blew up; refine the grid")
    return MomentTrajectory(grid=grid, values=vals if batch else vals[..., 0])
