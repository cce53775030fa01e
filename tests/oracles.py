"""Independent routes and fixtures that the tests share.

``ladder_rhs`` is the closed system of the 14 complex ladder moments in
the orderings of ``LADDER_LABELS``, and ``to_quadratures`` maps a ladder
moment vector onto the real quadrature state of ``moments``.  Together
they are a second route to the real Lyapunov equations of the moment
engine.
"""

import numpy as np
from scipy.linalg import expm

from nmoptomech.gaussian_ent import _M

LADDER_LABELS = (
    "a", "ad", "b", "bd",
    "aa", "aad", "ab", "abd",
    "adad", "adb", "adbd",
    "bb", "bbd", "bdbd",
)


def ladder_rhs(m, f1, f2, f3, f4, f1c, f2c, f3c, f4c, wm, delta, g):
    """d/dt of the 14 complex ladder moments ``m``."""
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


def to_quadratures(m):
    """The quadrature state (q1, p1, q2, p2, triu S) of ladder moments
    ``m``, moment axis first; uses <a^dag a> = <a a^dag> - 1 and likewise
    for b.  Affine in ``m``, and real for a Hermitian pairing."""
    a, ad, b, bd, aa, aad, ab, abd, adad, adb, adbd, bb, bbd, bdbd = m
    return np.array([
        a + ad, -1j * (a - ad), b + bd, -1j * (b - bd),
        aa + adad + 2.0 * aad - 1.0,
        -1j * (aa - adad),
        ab + abd + adb + adbd,
        -1j * (ab - abd + adb - adbd),
        2.0 * aad - 1.0 - aa - adad,
        -1j * (ab + abd - adb - adbd),
        -(ab - abd - adb + adbd),
        bb + bdbd + 2.0 * bbd - 1.0,
        -1j * (bb - bdbd),
        2.0 * bbd - 1.0 - bb - bdbd,
    ])


def random_physical_covariance(rng, nu=None, strength=1.0):
    """Random physical two-mode covariance matrix.

    Built as S diag(nu1, nu1, nu2, nu2) S^T with S = expm(M Q) for a random
    symmetric Q, which is symplectic for the form M.  Symplectic spectra
    ``nu`` default to random values in [1, 3].
    """
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
