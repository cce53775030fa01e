"""Logarithmic negativity and symplectic machinery for two-mode Gaussian states.

Quadratures are ordered xi = (q1, p1, q2, p2) with q = a + a^dag and
p = -i(a - a^dag), so the commutators read [xi_alpha, xi_beta] = 2i M_alphabeta
and the vacuum covariance matrix is the identity.

For a covariance matrix V with 2x2 blocks A (mode 1), B (mode 2) and C
(cross correlations),

    Sigma = det A + det B - 2 det C,
    nu_minus = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2)
             = sqrt(2 det V / (Sigma + sqrt(Sigma^2 - 4 det V))),
    En = max(0, -ln nu_minus).

``nu_minus`` is the smallest symplectic eigenvalue of the partially
transposed state; with +2 det C in Sigma the same formula gives the
smallest symplectic eigenvalue of V itself, which is >= 1 for a physical
state.  The eigenvalue routes that cross-check the closed formula live
with the tests (``tests/oracles.py``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EntanglementResult",
    "SymplecticReadout",
    "log_negativity",
    "symplectic_readout",
]


@dataclass(frozen=True)
class EntanglementResult:
    """Output of :func:`log_negativity`.

    nu_minus : smallest symplectic eigenvalue of the partially transposed state
    En       : logarithmic negativity, max(0, -ln nu_minus)
    Sigma    : the block-determinant combination used in the closed formula
    """

    nu_minus: float
    En: float
    Sigma: float


def _as_covariance(V):
    V = np.asarray(V, dtype=float)
    if V.shape != (4, 4):
        raise ValueError("covariance matrix must be 4x4")
    if not np.allclose(V, V.T, atol=1e-10 * max(1.0, np.abs(V).max())):
        raise ValueError("covariance matrix must be symmetric")
    return V


def _nu_minus_sq(sigma, det_v, tol):
    """Smaller root of x^2 - Sigma x + det V as 2 det V / (Sigma + sqrt(disc)),
    free of the cancellation in (Sigma - sqrt(disc)) / 2 when nu_- << nu_+
    (0 where that denominator is not positive), and where the discriminant
    is negative beyond ``tol`` relative to its terms (then clamped to zero)."""
    disc = sigma * sigma - 4.0 * det_v
    scale = np.maximum(np.maximum(sigma * sigma, 4.0 * np.abs(det_v)), 1.0)
    big = sigma + np.sqrt(np.maximum(disc, 0.0))
    return 2.0 * det_v / np.where(big <= 0.0, np.inf, big), disc < -tol * scale


class SymplecticReadout(NamedTuple):
    """Output of :func:`symplectic_readout`, one entry per covariance matrix."""

    sigma: np.ndarray  # Sigma_- = det A + det B - 2 det C
    det_v: np.ndarray
    negative: np.ndarray  # Sigma_-^2 - 4 det V < 0 beyond the tolerance
    nu_pt_sq: np.ndarray  # nu~_-^2 of the partial transpose
    nu: np.ndarray  # nu_- of V itself; 0 where V has no positive real one

    @property
    def en(self):
        """En = max(0, -ln nu~_-); nan where :func:`log_negativity` raises."""
        valid = (self.det_v > 0.0) & ~self.negative & (self.nu_pt_sq > 0.0)
        return np.maximum(-np.log(np.sqrt(np.where(valid, self.nu_pt_sq, np.nan))), 0.0)


def symplectic_readout(V, tol=1e-10):
    """Closed-form symplectic read-out of covariance matrices V, shape (..., 4, 4).

    Both smallest symplectic eigenvalues follow from the same block
    determinants: the partially transposed nu~_- from Sigma_- (for En)
    and the physical nu_- (the physicality monitor) from
    Sigma_+ = det A + det B + 2 det C.
    """
    V = np.asarray(V, dtype=float)

    def det2(i, j):
        return V[..., i, j] * V[..., i + 1, j + 1] - V[..., i, j + 1] * V[..., i + 1, j]

    det_a, det_b, det_c, det_v = det2(0, 0), det2(2, 2), det2(0, 2), np.linalg.det(V)
    sigma = det_a + det_b - 2.0 * det_c
    nu_pt_sq, negative = _nu_minus_sq(sigma, det_v, tol)
    nu_sq, unphysical = _nu_minus_sq(det_a + det_b + 2.0 * det_c, det_v, tol)
    nu = np.sqrt(np.where(~unphysical & (nu_sq > 0.0), nu_sq, 0.0))
    return SymplecticReadout(sigma, det_v, negative, nu_pt_sq, nu)


def log_negativity(V, tol=1e-10):
    """Logarithmic negativity of a two-mode Gaussian state.

    Parameters
    ----------
    V : (4, 4) array_like
        Symmetric covariance matrix in the (q1, p1, q2, p2) ordering with
        vacuum normalized to the identity.
    tol : float
        Relative tolerance for the discriminant check.  A discriminant
        that is negative beyond ``tol`` signals an unphysical matrix and
        raises instead of being clamped.

    Returns
    -------
    EntanglementResult
    """
    r = symplectic_readout(_as_covariance(V), tol)
    if r.det_v <= 0.0:
        raise ValueError("covariance matrix must have positive determinant")
    if r.negative:
        raise ValueError(
            "Sigma^2 < 4 det V beyond tolerance; covariance matrix is unphysical"
        )
    if r.nu_pt_sq <= 0.0:
        raise ValueError("negative radicand for nu_minus; unphysical covariance")
    return EntanglementResult(nu_minus=float(np.sqrt(r.nu_pt_sq)), En=float(r.en),
                              Sigma=float(r.sigma))

