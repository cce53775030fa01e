"""Mean-value evolution driven by the O-coefficient series, and the
covariance matrix built from it.

Fourteen coupled means close on themselves: the four first moments and
the ten independent second moments in the orderings

    a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd.

Conjugation pairs (ad = conj a, adad = conj aa, adbd = conj ab,
adb = conj abd, bdbd = conj bb, aad and bbd real) are preserved by the
flow and monitored, not enforced.

Quadratures are q = a + ad, p = -i(a - ad); with [xi_a, xi_b] = 2iM the
vacuum covariance matrix is the identity.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .gaussian_ent import log_negativity, min_symplectic_eigenvalue
from .ocoeff import OCoefficientSeries
from .stepping import TimeGrid, midpoint_at, rk4_step, stage_values

__all__ = [
    "DIP_TOL",
    "MOMENT_LABELS",
    "MomentState",
    "CovarianceMatrix",
    "MomentTrajectory",
    "integrate_moments",
    "covariance_from_moments",
]

# how far below 1 the smallest symplectic eigenvalue may dip unreported
DIP_TOL = 1e-6

MOMENT_LABELS = (
    "a", "ad", "b", "bd",
    "aa", "aad", "ab", "abd",
    "adad", "adb", "adbd",
    "bb", "bbd", "bdbd",
)


@dataclass(frozen=True)
class MomentState:
    """First and second moments as two complex arrays (4 and 10 entries)."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=complex)
        second = np.asarray(self.second, dtype=complex)
        if first.shape != (4,) or second.shape != (10,):
            raise ValueError("need 4 first and 10 second moments")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=complex)
        return cls(first=v[:4], second=v[4:])

    @classmethod
    def coherent(cls, alpha=0j, beta=0j):
        """Product coherent state |alpha> x |beta>; vacuum for (0, 0)."""
        a, b = complex(alpha), complex(beta)
        ac, bc = a.conjugate(), b.conjugate()
        first = [a, ac, b, bc]
        second = [a * a, a * ac + 1.0, a * b, a * bc,
                  ac * ac, ac * b, ac * bc,
                  b * b, b * bc + 1.0, bc * bc]
        return cls(first=np.array(first), second=np.array(second))

    @classmethod
    def vacuum(cls):
        return cls.coherent(0j, 0j)

    @property
    def vector(self):
        return np.concatenate([self.first, self.second])

    def conjugation_residual(self):
        """Max deviation from the Hermiticity pairing of the 14 means."""
        v = self.vector
        pairs = [(1, 0), (3, 2), (8, 4), (10, 6), (9, 7), (13, 11)]
        r = max(abs(v[i] - v[j].conjugate()) for i, j in pairs)
        r = max(r, abs(v[5].imag), abs(v[12].imag))
        return float(r)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 4x4 covariance in the basis (q1, p1, q2, p2)."""

    V: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        if V.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        object.__setattr__(self, "V", V)

    @property
    def A(self):
        return self.V[0:2, 0:2]

    @property
    def B(self):
        return self.V[2:4, 2:4]

    @property
    def C(self):
        return self.V[0:2, 2:4]


def _cov_entries(v):
    """The ten independent covariance entries from moment vector(s).

    ``v`` has the moment axis last, so both a single (14,) vector and a
    trajectory (n, 14) array work.
    """
    a, ad, b, bd = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    aa, aad, ab, abd = v[..., 4], v[..., 5], v[..., 6], v[..., 7]
    adad, adb, adbd = v[..., 8], v[..., 9], v[..., 10]
    bb, bbd, bdbd = v[..., 11], v[..., 12], v[..., 13]
    q1, p1 = a + ad, -1j * (a - ad)
    q2, p2 = b + bd, -1j * (b - bd)
    return {
        "11": (aa + adad + 2.0 * aad - 1.0 - q1 * q1).real,
        "12": (-1j * (aa - adad) - q1 * p1).real,
        "22": (2.0 * aad - 1.0 - aa - adad - p1 * p1).real,
        "33": (bb + bdbd + 2.0 * bbd - 1.0 - q2 * q2).real,
        "34": (-1j * (bb - bdbd) - q2 * p2).real,
        "44": (2.0 * bbd - 1.0 - bb - bdbd - p2 * p2).real,
        "13": (ab + abd + adb + adbd - q1 * q2).real,
        "14": (-1j * (ab - abd + adb - adbd) - q1 * p2).real,
        "23": (-1j * (ab + abd - adb - adbd) - p1 * q2).real,
        "24": (-(ab - abd - adb + adbd) - p1 * p2).real,
    }


_V_KEYS = (("11", "12", "13", "14"), ("12", "22", "23", "24"),
           ("13", "23", "33", "34"), ("14", "24", "34", "44"))


def _cov_matrix(e):
    """Covariance matrices, shape (..., 4, 4), from :func:`_cov_entries`."""
    V = np.empty(np.shape(e["11"]) + (4, 4))
    for i, row in enumerate(_V_KEYS):
        for j, key in enumerate(row):
            V[..., i, j] = e[key]
    return V


def covariance_from_moments(m) -> CovarianceMatrix:
    """Covariance matrix of the state with the given moments.

    Uses the commutators <a^dag a> = <a a^dag> - 1 and likewise for b, so
    the vacuum gives the identity.  Accepts a MomentState or a plain
    14-vector.
    """
    v = m.vector if isinstance(m, MomentState) else np.asarray(m, dtype=complex)
    if v.shape != (14,):
        raise ValueError("moment vector must have 14 components")
    return CovarianceMatrix(V=_cov_matrix(_cov_entries(v)))


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

    def state(self, k) -> MomentState:
        return MomentState.from_vector(self.values[k])

    def covariance(self, k) -> CovarianceMatrix:
        return covariance_from_moments(self.values[k])

    def en_series(self, tol=1e-10, monitor=True):
        """Logarithmic negativity at every node, vectorized.

        Matches per-node :func:`gaussian_ent.log_negativity` results.
        The physicality monitor warns (never raises) when the smallest
        symplectic eigenvalue of V dips below 1 by more than ``DIP_TOL``.
        """
        e = _cov_entries(self.values)
        det_a = e["11"] * e["22"] - e["12"] ** 2
        det_b = e["33"] * e["44"] - e["34"] ** 2
        det_c = e["13"] * e["24"] - e["14"] * e["23"]
        det_v = np.linalg.det(_cov_matrix(e))
        sigma = det_a + det_b - 2.0 * det_c
        disc = sigma * sigma - 4.0 * det_v
        scale = np.maximum(np.maximum(sigma * sigma, 4.0 * np.abs(det_v)), 1.0)
        if np.any(disc < -tol * scale):
            k = int(np.argmax(disc < -tol * scale))
            raise NumericalFailure(
                f"unphysical covariance matrix at node {k} "
                "(negative discriminant in the symplectic spectrum)"
            )
        nu_sq = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
        if np.any(nu_sq <= 0.0):
            raise NumericalFailure("nonpositive nu_minus^2 along the trajectory")
        nu = np.sqrt(nu_sq)
        if monitor:
            worst = self.min_symplectic_sample()
            if worst < 1.0 - DIP_TOL:
                warnings.warn(
                    f"covariance physicality dip: min symplectic eigenvalue "
                    f"{worst:.8f} < 1", RuntimeWarning, stacklevel=2)
        return np.maximum(0.0, -np.log(nu))

    def min_symplectic_sample(self, samples=24):
        """Smallest symplectic eigenvalue of V over about ``samples`` nodes."""
        n = self.values.shape[0]
        stride = max(1, n // samples)
        worst = np.inf
        for k in range(0, n, stride):
            try:
                worst = min(worst, min_symplectic_eigenvalue(
                    covariance_from_moments(self.values[k]).V))
            except ValueError:
                return -np.inf
        return worst

    def en_at(self, k):
        return log_negativity(self.covariance(k).V).En


def integrate_moments(F: OCoefficientSeries, sys, init: MomentState,
                      grid: TimeGrid) -> MomentTrajectory:
    """Integrate the 14 mean-value equations with the shared 4th-order step.

    The F series must live on the same grid; its half-node values come
    from the 4th-order midpoint stencil (exact for the constant
    delta-kernel series).  A batched F series (see
    :func:`ocoeff.solve_ou_closed`) with a sequence of systems, one per
    point, marches every point at once; the values then carry a trailing
    point axis (see :meth:`MomentTrajectory.point`).
    """
    if not grid.matches(F.grid):
        raise ValueError("F series and moment integration must share one grid")
    if init.conjugation_residual() > 1e-9:
        raise ValueError("initial moments break the conjugation pairing")
    n = grid.n_points
    dt = grid.dt
    rows = (F.F1, F.F2, F.F3, F.F4)
    batch = rows[0].ndim == 2
    if batch:
        systems = list(sys)
        if len(systems) != rows[0].shape[1]:
            raise ValueError("need one system per point of the F series")
        wm, delta, g = (np.array([getattr(s, a) for s in systems])
                        for a in ("omega_m", "Delta", "G"))
        unpack = list

        def stage(k, mid):
            # midpoints step by step: no stored stage arrays for every point
            return tuple(midpoint_at(r, k) if mid else r[k] for r in rows)
    else:
        wm, delta, g = sys.omega_m, sys.Delta, sys.G
        # on Python complex scalars: cheaper than numpy for 14 entries
        unpack = np.ndarray.tolist
        nodes, mids = ([x.tolist() for x in part] for part in stage_values(rows))

        def stage(k, mid):
            return tuple(r[k] for r in (mids if mid else nodes))

    def rhs_at(k, mid=False):
        f = stage(k, mid)
        fc = tuple(x.conjugate() for x in f)
        return lambda y: np.array(_moment_rhs(unpack(y), *f, *fc, wm, delta, g))

    vals = np.empty((n,) + init.vector.shape + rows[0].shape[1:], dtype=complex)
    vals[0] = init.vector[:, None] if batch else init.vector
    for k in range(n - 1):
        vals[k + 1] = rk4_step(vals[k], dt, rhs_at(k), rhs_at(k, mid=True),
                               rhs_at(k + 1))
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("moment integration blew up; refine the grid")
    for last in vals[-1].reshape(14, -1).T:  # one row per point
        drift = MomentState.from_vector(last).conjugation_residual()
        scale = max(1.0, float(np.abs(last).max()))
        if drift > 1e-6 * scale:
            raise NumericalFailure(
                f"conjugation pairing drifted by {drift:.2e}; integration unstable"
            )
    return MomentTrajectory(grid=grid, values=vals)
