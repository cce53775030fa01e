"""Logarithmic negativity and symplectic machinery for two-mode Gaussian states.

Quadratures are ordered xi = (q1, p1, q2, p2) with q = a + a^dag and
p = -i(a - a^dag), so the commutators read [xi_alpha, xi_beta] = 2i M_alphabeta
and the vacuum covariance matrix is the identity.

For a covariance matrix V with 2x2 blocks A (mode 1), B (mode 2) and C
(cross correlations),

    Sigma = det A + det B - 2 det C,
    nu_minus = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2),
    En = max(0, -ln nu_minus).

``nu_minus`` is the smallest symplectic eigenvalue of the partially
transposed state; an independent eigenvalue route is provided for
cross-checking the closed formula.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EntanglementResult",
    "log_negativity",
    "min_symplectic_eigenvalue",
    "pt_min_symplectic_eigenvalue",
    "random_physical_covariance",
    "two_mode_squeezed_covariance",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_M = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
# Partial transpose of mode 2 flips the sign of p2.
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


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
    V = _as_covariance(V)
    A = V[0:2, 0:2]
    B = V[2:4, 2:4]
    C = V[0:2, 2:4]
    det_a = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    det_b = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    det_c = C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]
    det_v = np.linalg.det(V)
    if det_v <= 0.0:
        raise ValueError("covariance matrix must have positive determinant")
    sigma = det_a + det_b - 2.0 * det_c
    scale = max(sigma * sigma, 4.0 * abs(det_v), 1.0)
    disc = sigma * sigma - 4.0 * det_v
    if disc < -tol * scale:
        raise ValueError(
            "Sigma^2 < 4 det V beyond tolerance; covariance matrix is unphysical"
        )
    disc = max(disc, 0.0)
    nu_sq = 0.5 * (sigma - np.sqrt(disc))
    if nu_sq <= 0.0:
        raise ValueError("negative radicand for nu_minus; unphysical covariance")
    nu_minus = float(np.sqrt(nu_sq))
    en = max(0.0, -np.log(nu_minus))
    return EntanglementResult(nu_minus=nu_minus, En=float(en), Sigma=float(sigma))


def min_symplectic_eigenvalue(V):
    """Smallest modulus among the eigenvalues of i M V.

    For a physical state this is >= 1; used as a physicality monitor.
    """
    V = _as_covariance(V)
    if not np.all(np.isfinite(V)):
        raise ValueError("covariance matrix has non-finite entries")
    eig = np.linalg.eigvals(1j * _M @ V)
    return float(np.min(np.abs(eig)))


def pt_min_symplectic_eigenvalue(V):
    """Eigenvalue route to nu_minus: smallest |eig| of i M (P V P).

    Independent of the closed Sigma formula; P flips the momentum of the
    second mode (partial transposition at covariance level).
    """
    V = _as_covariance(V)
    vt = _PT @ V @ _PT
    eig = np.linalg.eigvals(1j * _M @ vt)
    return float(np.min(np.abs(eig)))


def two_mode_squeezed_covariance(r):
    """Covariance matrix of the standard two-mode squeezed vacuum.

    A = B = cosh(2r) I, C = diag(sinh 2r, -sinh 2r); En equals 2r.
    """
    ch = np.cosh(2.0 * r)
    sh = np.sinh(2.0 * r)
    V = np.diag([ch, ch, ch, ch])
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V


def random_physical_covariance(rng, nu=None, strength=1.0):
    """Random physical two-mode covariance matrix.

    Built as S diag(nu1, nu1, nu2, nu2) S^T with S = expm(M Q) for a random
    symmetric Q, which is symplectic for the form M.  Symplectic spectra
    ``nu`` default to random values in [1, 3].
    """
    from scipy.linalg import expm

    if nu is None:
        nu = 1.0 + 2.0 * rng.random(2)
    nu1, nu2 = nu
    if nu1 < 1.0 or nu2 < 1.0:
        raise ValueError("symplectic eigenvalues must be >= 1")
    q = rng.standard_normal((4, 4)) * strength
    q = 0.5 * (q + q.T)
    s = expm(_M @ q)
    d = np.diag([nu1, nu1, nu2, nu2])
    V = s @ d @ s.T
    return 0.5 * (V + V.T)
