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
from .params import LinearizedSystem
from .stepping import TimeGrid, rk4_step, stage_values

__all__ = [
    "MOMENT_LABELS",
    "MomentState",
    "CovarianceMatrix",
    "MomentTrajectory",
    "integrate_moments",
    "covariance_from_moments",
]

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


def covariance_from_moments(m) -> CovarianceMatrix:
    """Covariance matrix of the state with the given moments.

    Uses the commutators <a^dag a> = <a a^dag> - 1 and likewise for b, so
    the vacuum gives the identity.  Accepts a MomentState or a plain
    14-vector.
    """
    v = m.vector if isinstance(m, MomentState) else np.asarray(m, dtype=complex)
    if v.shape != (14,):
        raise ValueError("moment vector must have 14 components")
    e = _cov_entries(v)
    V = np.array([
        [e["11"], e["12"], e["13"], e["14"]],
        [e["12"], e["22"], e["23"], e["24"]],
        [e["13"], e["23"], e["33"], e["34"]],
        [e["14"], e["24"], e["34"], e["44"]],
    ])
    return CovarianceMatrix(V=V)


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

    def state(self, k) -> MomentState:
        return MomentState.from_vector(self.values[k])

    def covariance(self, k) -> CovarianceMatrix:
        return covariance_from_moments(self.values[k])

    def en_series(self, tol=1e-10, monitor=True):
        """Logarithmic negativity at every node, vectorized.

        Matches per-node :func:`gaussian_ent.log_negativity` results.
        The physicality monitor warns (never raises) when the smallest
        symplectic eigenvalue of V dips below 1 by more than 1e-6.
        """
        e = _cov_entries(self.values)
        det_a = e["11"] * e["22"] - e["12"] ** 2
        det_b = e["33"] * e["44"] - e["34"] ** 2
        det_c = e["13"] * e["24"] - e["14"] * e["23"]
        n = self.values.shape[0]
        V = np.empty((n, 4, 4))
        V[:, 0, 0], V[:, 1, 1], V[:, 2, 2], V[:, 3, 3] = (
            e["11"], e["22"], e["33"], e["44"])
        V[:, 0, 1] = V[:, 1, 0] = e["12"]
        V[:, 2, 3] = V[:, 3, 2] = e["34"]
        V[:, 0, 2] = V[:, 2, 0] = e["13"]
        V[:, 0, 3] = V[:, 3, 0] = e["14"]
        V[:, 1, 2] = V[:, 2, 1] = e["23"]
        V[:, 1, 3] = V[:, 3, 1] = e["24"]
        det_v = np.linalg.det(V)
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
            worst = self._min_sympl_sample()
            if worst < 1.0 - 1e-6:
                warnings.warn(
                    f"covariance physicality dip: min symplectic eigenvalue "
                    f"{worst:.8f} < 1", RuntimeWarning, stacklevel=2)
        return np.maximum(0.0, -np.log(nu))

    def _min_sympl_sample(self, samples=24):
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


def integrate_moments(F: OCoefficientSeries, sys: LinearizedSystem,
                      init: MomentState, grid: TimeGrid) -> MomentTrajectory:
    """Integrate the 14 mean-value equations with the shared 4th-order step.

    The F series must live on the same grid; its half-node values come
    from the 4th-order midpoint stencil (exact for the constant
    delta-kernel series).
    """
    if not grid.matches(F.grid):
        raise ValueError("F series and moment integration must share one grid")
    n = grid.n_points
    dt = grid.dt
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    if init.conjugation_residual() > 1e-9:
        raise ValueError("initial moments break the conjugation pairing")

    nodes, mids = stage_values((F.F1, F.F2, F.F3, F.F4))
    fn = [x.tolist() for x in nodes]
    fm = [x.tolist() for x in mids]

    def rhs_at(fs, k):
        # on Python complex scalars: cheaper than numpy for 14 entries
        f = tuple(r[k] for r in fs)
        fc = tuple(x.conjugate() for x in f)
        return lambda y: np.array(_moment_rhs(y.tolist(), *f, *fc, wm, delta, g))

    vals = np.empty((n, 14), dtype=complex)
    vals[0] = init.vector
    for k in range(n - 1):
        vals[k + 1] = rk4_step(vals[k], dt, rhs_at(fn, k), rhs_at(fm, k),
                               rhs_at(fn, k + 1))
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("moment integration blew up; refine the grid")
    drift = MomentState.from_vector(vals[-1]).conjugation_residual()
    scale = max(1.0, float(np.abs(vals[-1]).max()))
    if drift > 1e-6 * scale:
        raise NumericalFailure(
            f"conjugation pairing drifted by {drift:.2e}; integration unstable"
        )
    return MomentTrajectory(grid=grid, values=vals)
