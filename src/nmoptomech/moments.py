"""Mean-value evolution driven by the O-coefficient series, and the
covariance matrix built from it.

Fourteen coupled means close on themselves: the four first moments and
the ten independent second moments in the orderings

    a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd.

A moment state is the (14,) complex vector of these means; a stack of
states keeps the moment axis last.

Conjugation pairs (ad = conj a, adad = conj aa, adbd = conj ab,
adb = conj abd, bdbd = conj bb, aad and bbd real) are preserved by the
flow and monitored, not enforced.

Quadratures are q = a + ad, p = -i(a - ad); with [xi_a, xi_b] = 2iM the
vacuum covariance matrix is the identity.
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
    "conjugation_residual",
    "integrate_moments",
    "covariances",
]

# how far below 1 the smallest symplectic eigenvalue may dip unreported
DIP_TOL = 1e-6

MOMENT_LABELS = (
    "a", "ad", "b", "bd",
    "aa", "aad", "ab", "abd",
    "adad", "adb", "adbd",
    "bb", "bbd", "bdbd",
)


def coherent(alpha=0j, beta=0j):
    """Moment vector (14,) of the product coherent state |alpha> x |beta>."""
    a, b = complex(alpha), complex(beta)
    ac, bc = a.conjugate(), b.conjugate()
    return np.array([a, ac, b, bc,
                     a * a, a * ac + 1.0, a * b, a * bc,
                     ac * ac, ac * b, ac * bc,
                     b * b, b * bc + 1.0, bc * bc])


def vacuum():
    """Moment vector (14,) of the two-mode vacuum."""
    return coherent(0j, 0j)


def conjugation_residual(v):
    """Max deviation from the Hermiticity pairing of the 14 means; one
    value per vector of a stack (..., 14)."""
    v = np.asarray(v)
    r = np.abs(v[..., [1, 3, 8, 10, 9, 13]] - v[..., [0, 2, 4, 6, 7, 11]].conj())
    return np.maximum(r.max(axis=-1), np.abs(v[..., [5, 12]].imag).max(axis=-1))


def covariances(v):
    """Covariance matrices, shape (..., 4, 4), of moment vector(s).

    ``v`` has the moment axis last, so both a single (14,) vector and a
    trajectory (n, 14) array work.  Uses the commutators <a^dag a> =
    <a a^dag> - 1 and likewise for b, so the vacuum gives the identity.
    """
    a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd = np.moveaxis(v, -1, 0)
    q1, p1 = a + ad, -1j * (a - ad)
    q2, p2 = b + bd, -1j * (b - bd)
    v11 = (aa + adad + 2.0 * aad - 1.0 - q1 * q1).real
    v12 = (-1j * (aa - adad) - q1 * p1).real
    v22 = (2.0 * aad - 1.0 - aa - adad - p1 * p1).real
    v33 = (bb + bdbd + 2.0 * bbd - 1.0 - q2 * q2).real
    v34 = (-1j * (bb - bdbd) - q2 * p2).real
    v44 = (2.0 * bbd - 1.0 - bb - bdbd - p2 * p2).real
    v13 = (ab + abd + adb + adbd - q1 * q2).real
    v14 = (-1j * (ab - abd + adb - adbd) - q1 * p2).real
    v23 = (-1j * (ab + abd - adb - adbd) - p1 * q2).real
    v24 = (-(ab - abd - adb + adbd) - p1 * p2).real
    return np.stack([v11, v12, v13, v14, v12, v22, v23, v24,
                     v13, v23, v33, v34, v14, v24, v34, v44], axis=-1).reshape(np.shape(a) + (4, 4))


def _moment_rhs(m, f1, f2, f3, f4, f1c, f2c, f3c, f4c, wm, delta, g):
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
    """:func:`_moment_rhs` probed into its affine form dm/dt = M(p) m + c(p).

    It is linear in each of its 11 parameters p = (f1..f4, their
    conjugates, wm, delta, g): M(p) = p @ basis[:, :196] (row-major
    14 x 14) and c(p) = p @ basis[:, 196:].
    """
    basis = np.empty((11, 210), dtype=complex)
    for j, p in enumerate(np.eye(11)):
        c = np.array(_moment_rhs(np.zeros(14), *p))
        cols = [np.array(_moment_rhs(e, *p)) - c for e in np.eye(14)]
        basis[j, :196] = np.stack(cols, axis=1).ravel()
        basis[j, 196:] = c
    return basis


def integrate_moments(F: OCoefficientSeries, sys, init,
                      grid: TimeGrid) -> MomentTrajectory:
    """Integrate the 14 mean-value equations with the shared 4th-order step
    from the (14,) moment vector ``init`` (e.g. :func:`vacuum`).

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
    init = np.asarray(init, dtype=complex)
    if init.shape != (14,):
        raise ValueError(f"need a (14,) initial moment vector, got shape {init.shape}")
    if conjugation_residual(init) > 1e-9:
        raise ValueError("initial moments break the conjugation pairing")
    n = grid.n_points
    batch = F.F1.ndim == 2
    systems = list(sys) if batch else [sys]
    rows = [r.reshape(n, -1) for r in (F.F1, F.F2, F.F3, F.F4)]
    if len(systems) != rows[0].shape[1]:
        raise ValueError("need one system per point of the F series")
    basis = _affine_basis()
    par = np.empty((len(systems), 11), dtype=complex)
    par[:, 8:] = [(s.omega_m, s.Delta, s.G) for s in systems]
    # the state marches as (P, 14); midpoints step by step, so no stage
    # arrays are stored for every point
    vals = np.empty((n, 14, len(systems)), dtype=complex)

    def rhs_at(j):
        par[:, :4] = np.transpose(half_node_values(rows, j))
        par[:, 4:8] = par[:, :4].conj()
        op = par @ basis
        M, c = op[:, :196].reshape(-1, 14, 14), op[:, 196:]
        return lambda y: (M @ y[..., None])[..., 0] + c

    def visit(k, y):
        vals[k] = y.T

    y = march_driven(rhs_at, np.tile(init, (len(systems), 1)), grid, visit)
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("moment integration blew up; refine the grid")
    drift = conjugation_residual(y)  # one row per point
    bad = drift > 1e-6 * np.maximum(1.0, np.abs(y).max(axis=1))
    if np.any(bad):
        raise NumericalFailure(f"conjugation pairing drifted by {drift[bad].max():.2e}; "
                               "integration unstable")
    return MomentTrajectory(grid=grid, values=vals if batch else vals[..., 0])
