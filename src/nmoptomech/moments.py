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

from .errors import NumericalFailure, _outside_stacklevel
from .gaussian_ent import symplectic_readout
from .ocoeff import OCoefficientSeries
from .stepping import _BLOCK, TimeGrid, block_half_nodes, march_driven

__all__ = [
    "DIP_TOL",
    "MOMENT_LABELS",
    "MomentTrajectory",
    "EnReadout",
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

    def en_series(self):
        """Logarithmic negativity at every node, shape (n,), or (n, P) for
        a batched march; read out by :class:`EnReadout`.

        Matches per-node :func:`gaussian_ent.log_negativity` results.
        The physicality monitor warns (never raises) when the smallest
        symplectic eigenvalue of V dips below 1 by more than ``DIP_TOL``
        at any node; a march of several points warns once, naming how many dipped.
        """
        batch = self.values.ndim == 3
        values = self.values if batch else self.values[..., None]
        readout = EnReadout(values.shape[0], values.shape[2])
        readout(0, np.moveaxis(values, 2, 1))
        en = readout.finish()
        return en if batch else en[:, 0]


class EnReadout:
    """Sink of a moment march (see :func:`integrate_moments`) that reads
    out each block of states as it comes and keeps only En, shape
    (n, P), and with ``occupations`` the pair of :func:`occupations`.

    :meth:`finish` raises for the first point, in point order, whose
    covariance left the physical cone (a negative discriminant in the
    symplectic spectrum, reported at its first node, or a nonpositive
    nu_minus^2), and otherwise warns once if the smallest symplectic
    eigenvalue of V dipped below 1 by more than ``DIP_TOL`` at any node
    of any point; the warning names the first caller outside this
    package.
    """

    def __init__(self, n, points, occupations=False):
        self.en = np.empty((n, points))
        self.occupations = ((np.empty((n, points)), np.empty((n, points)))
                            if occupations else None)
        self._worst = np.full(points, np.inf)
        self._negative = np.full(points, -1)  # first such node, -1 for none
        self._nonpositive = np.zeros(points, dtype=bool)

    def __call__(self, k0, states):
        """Read out the states (nodes, P, 14) of nodes k0, k0 + 1, ..."""
        r = symplectic_readout(covariances(states))
        k1 = k0 + len(states)
        self.en[k0:k1] = r.en
        if self.occupations is not None:
            for out, occ in zip(self.occupations, occupations(states)):
                out[k0:k1] = occ
        first = k0 + np.argmax(r.negative, axis=0)
        fresh = (self._negative < 0) & r.negative.any(axis=0)
        self._negative[fresh] = first[fresh]
        self._nonpositive |= (r.nu_pt_sq <= 0.0).any(axis=0)
        np.minimum(self._worst, r.nu.min(axis=0), out=self._worst)

    def finish(self):
        """Raise or warn as the class describes; returns En."""
        for node, nonpositive in zip(self._negative, self._nonpositive):
            if node >= 0:
                raise NumericalFailure(
                    f"unphysical covariance matrix at node {node} "
                    "(negative discriminant in the symplectic spectrum)"
                )
            if nonpositive:
                raise NumericalFailure("nonpositive nu_minus^2 along the trajectory")
        dips = self._worst[self._worst < 1.0 - DIP_TOL]
        if len(dips):
            where = (f" at {len(dips)} of {len(self._worst)} scan points"
                     if len(self._worst) > 1 else "")
            warnings.warn(f"covariance physicality dip{where}: min symplectic "
                          f"eigenvalue {dips.min():.8f} < 1", RuntimeWarning,
                          stacklevel=_outside_stacklevel())
        return self.en


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


def integrate_moments(F, sys, init, grid: TimeGrid, sink=None):
    """Integrate the 14 real mean-value equations with the shared
    4th-order step from the real (14,) moment vector ``init`` (e.g.
    :func:`vacuum`).

    ``F`` is an :class:`OCoefficientSeries` on the same grid, or node
    blocks of one: an iterable of (nodes, >= 4, P) complex arrays whose
    rows 0..3 hold F1..F4 of consecutive nodes, such as
    :func:`ocoeff.ou_closed_blocks` yields.  Its half-node values come
    from the 4th-order midpoint stencil (exact for the constant
    delta-kernel series), through a sliding window for blocks.  A
    batched F series (see :func:`ocoeff.solve_ou_closed`) or blocks with
    a sequence of systems, one per point, march every point at once; the
    values then carry a trailing point axis (see
    :meth:`MomentTrajectory.point`).  A single point is a batch of one:
    every stage is one product with the affine basis and one batched
    14 x 14 matrix-vector product.

    Without ``sink`` the states are kept and returned as a
    :class:`MomentTrajectory`.  With it nothing is kept and None is
    returned: each block of up to ``stepping._BLOCK`` nodes goes to
    ``sink(k0, states)`` as soon as it is marched, states (nodes, P, 14)
    of nodes k0, k0 + 1, ... in a buffer that the next block overwrites
    (see :class:`EnReadout`).  A march that blows up stops feeding the
    sink and raises once it has reached the last node.  Every moments run
    of the command line takes this route: node blocks in, a sink out.
    """
    init = np.asarray(init)
    if np.iscomplexobj(init):
        raise ValueError("the moment vector is real; got a complex initial vector")
    if init.shape != (14,):
        raise ValueError(f"need a (14,) initial moment vector, got shape {init.shape}")
    n = grid.n_points
    if isinstance(F, OCoefficientSeries):
        if not grid.matches(F.grid):
            raise ValueError("F series and moment integration must share one grid")
        batch = F.F1.ndim == 2
        blocks = [[r.reshape(n, -1) for r in (F.F1, F.F2, F.F3, F.F4)]]
    else:
        batch = True
        blocks = ([b[:, j] for j in range(4)] for b in F)
    systems = list(sys) if batch else [sys]
    basis = _affine_basis()
    par = np.empty((len(systems), 11))
    par[:, 8:] = [(s.omega_m, s.Delta, s.G) for s in systems]
    half_node = block_half_nodes(blocks, n)
    vals = None
    if sink is None:
        vals = np.empty((n, 14, len(systems)))

        def sink(k0, states):
            vals[k0:k0 + len(states)] = np.moveaxis(states, 2, 1)

    # the state marches as (P, 14); midpoints step by step, so no stage
    # arrays are stored for every point
    buf = np.empty((min(_BLOCK, n), len(systems), 14))
    finite = True

    def rhs_at(j):
        f = np.transpose(half_node(j))
        if len(f) != len(systems):
            raise ValueError("need one system per point of the F series")
        par[:, :4], par[:, 4:8] = f.real, f.imag
        op = par @ basis
        M, c = op[:, :196].reshape(-1, 14, 14), op[:, 196:]
        return lambda y: (M @ y[..., None])[..., 0] + c

    def visit(k, y):
        nonlocal finite
        i = k % _BLOCK
        buf[i] = y
        if i == len(buf) - 1 or k == n - 1:
            finite = finite and bool(np.all(np.isfinite(buf[:i + 1])))
            if finite:
                sink(k - i, buf[:i + 1])

    march_driven(rhs_at, np.tile(init.astype(float), (len(systems), 1)), grid, visit)
    if not finite:
        raise NumericalFailure("moment integration blew up; refine the grid")
    if vals is not None:
        return MomentTrajectory(grid=grid, values=vals if batch else vals[..., 0])
