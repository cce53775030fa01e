"""Finite-temperature extension via the two-effective-bath mapping.

A bath at temperature T (units with k_B = hbar = 1) is traded for two
zero-temperature baths seen through the combined channel L = a + b:
an emission-like bath with kernel

    alpha1(tau) = int J(w) (nbar(w) + 1) e^{-i w tau} dw

and an absorption-like bath with kernel

    alpha2(tau) = int J(w) nbar(w) e^{+i w tau} dw.

At T = 0 the second kernel vanishes identically and the first reduces
to the bare kernel of J.  The noise-free operator for bath i is
expanded as Obar_i = X_i1 a + X_i2 a^dag + X_i3 b + X_i4 b^dag; the
coefficient rows x_ij(t, s) share one bilinear evolution matrix and the
kernel averages X_ij close on themselves for exponential kernels.  The
resulting state equation (:func:`fock.integrate_thermal_master`) is

    drho/dt = -i[H_S, rho] + [L, rho Obar1^dag] - [L^dag, Obar1 rho]
                           + [L^dag, rho Obar2^dag] - [L, Obar2 rho].

The frequency integrals run over a positive window: the occupation
weighting diverges like T/w at w -> 0, so the infrared edge is an
explicit model choice, not a numerical knob.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .kernel import DeltaKernel, OUKernel, TabulatedKernel, spectral_density
from .ocoeff import _two_time_march
from .params import LinearizedSystem
from .stepping import TimeGrid, march_doubled

__all__ = [
    "ThermalOCoefficients",
    "EffectiveKernels",
    "thermal_occupation",
    "frequency_window",
    "effective_kernels",
    "solve_thermal_ocoeff",
]

# boundary rows x_ij(t, t): bath 1 rides the annihilators, bath 2 the creators
_BC = np.array([[1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0]], dtype=complex)

# the fixed quadrature of effective_kernels: window Omega +- 60 gamma, 4001
# lags up to 12/gamma, Gauss nodes per panel (and for the probe), fits to 5/gamma
_WINDOW_SPAN = 60.0
_LAG_SPAN = 12.0
_LAG_SAMPLES = 4001
_GAUSS_ORDER = 24
_PROBE_ORDER = 16
_FIT_SPAN = 5.0


def thermal_occupation(omega, T):
    """Bose occupation 1/(e^{w/T} - 1) at positive frequency."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("occupation is defined for positive frequencies")
    if T < 0.0:
        raise ValueError("temperature must be nonnegative")
    if T == 0.0:
        out = np.zeros_like(w)
    else:
        with np.errstate(over="ignore"):
            out = 1.0 / np.expm1(w / T)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EffectiveKernels:
    """The (alpha1, alpha2) kernel pair of the two effective baths; unpacks
    as the pair.  Each kernel with pointwise values must be real and
    nonnegative at zero lag.  ``omega_window`` and ``fit_residuals``
    record how :func:`effective_kernels` made the pair."""

    alpha1: OUKernel | DeltaKernel | TabulatedKernel
    alpha2: OUKernel | DeltaKernel | TabulatedKernel
    omega_window: tuple = None
    fit_residuals: tuple = None

    def __post_init__(self):
        for label, k in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if isinstance(k, DeltaKernel):
                continue
            v0 = complex(k.alpha(0.0))
            scale = max(abs(v0), 1.0)
            if abs(v0.imag) > 1e-9 * scale or v0.real < -1e-12 * scale:
                raise ValueError(f"{label}(0) must be real and nonnegative")

    def __iter__(self):
        return iter((self.alpha1, self.alpha2))


def frequency_window(gamma, Omega):
    """Positive frequency window (low, high) of the thermal quadrature for
    a line of width ``gamma`` at ``Omega``: Omega +- 60 gamma, cut below
    at a small infrared edge.  A line far below zero frequency leaves it
    empty, which raises ValueError."""
    span = _WINDOW_SPAN * gamma
    lo = max(Omega - span, 1e-3 * max(gamma, abs(Omega), 1.0))
    hi = Omega + span
    if not 0.0 < lo < hi:
        raise ValueError(f"frequency window ({lo:g}, {hi:g}) must satisfy "
                         "0 < low < high")
    return lo, hi


def _frequency_panels(lo, hi, gamma, tau_max):
    """Graded panel edges: geometric near the infrared edge (the 1/w
    weighting), then uniform panels narrow enough for the slowest
    oscillation e^{i w tau_max} a fixed-order rule must track."""
    width = min(0.5 * gamma, 15.0 / max(tau_max, 1e-12))
    core_lo = min(max(8.0 * lo, gamma / 8.0), hi)
    width = max(width, (hi - core_lo) / 6000.0)
    edges = [lo]
    e = lo
    while e < core_lo:
        e = min(2.0 * e, core_lo)
        edges.append(e)
    if e < hi:
        m = int(np.ceil((hi - e) / width))
        edges.extend(np.linspace(e, hi, m + 1)[1:])
    return np.asarray(edges)


def _gauss_nodes(edges, order):
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# most lags in one chunk of e^{-i w tau} in _half_transforms.  OpenBLAS
# splits a matrix-vector product over threads only from 5 rows on; the
# split bought no wall time here, and its idle worker then spun on the
# other core, doubling the CPU and sometimes adding 0.7 s of wall time
_TRANSFORM_ROWS = 4


def _half_transforms(lags, omega, g1, g2):
    a1 = np.empty(len(lags), dtype=complex)
    a2 = np.empty(len(lags), dtype=complex)
    iw = -1j * omega
    # chunks of 2..4 lags: a one-row product takes another BLAS kernel,
    # which would round that lag differently
    n = len(lags)
    cuts = np.linspace(0, n, -(-n // _TRANSFORM_ROWS) + 1).round().astype(int).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # in place, and g2 real: conj(e) @ g2 == conj(e @ g2)
        e = np.multiply.outer(lags[lo:hi], iw)
        np.exp(e, out=e)
        a1[lo:hi] = e @ g1
        a2[lo:hi] = np.conj(e @ g2)
    return a1, a2


def _fit_exponential(lags, values, t_end, label):
    """Weighted least squares of log alpha against a single decaying
    exponential; returns the kernel and the max relative misfit."""
    mask = (lags <= t_end) & (np.abs(values) > 0.0)
    if mask.sum() < 8:
        raise NumericalFailure(f"too few usable samples to fit {label}")
    tau = lags[mask]
    v = values[mask]
    y = np.log(np.abs(v)) + 1j * np.unwrap(np.angle(v))
    w = np.sqrt(np.abs(v))
    design = np.stack([np.ones_like(tau), tau], axis=1) * w[:, None]
    coef, *_ = np.linalg.lstsq(design, y * w, rcond=None)
    amp = float(np.exp(coef[0].real))
    mu = -coef[1]
    if mu.real <= 0.0:
        raise NumericalFailure(f"{label} does not decay on the fit window")
    fitted = OUKernel(Gamma=2.0 * amp / mu.real, gamma=mu.real, Omega=mu.imag)
    resid = float(np.abs(fitted.alpha(tau) - v).max() / max(np.abs(values[0]), 1e-300))
    return fitted, resid


def effective_kernels(J: OUKernel, T, fit=False) -> EffectiveKernels:
    """Emission/absorption kernels of a bath at temperature T.

    Both kernels are computed by panel Gauss quadrature over the
    :func:`frequency_window` of J and returned tabulated; with ``fit``
    they are least-squares-reduced to single exponentials (required by
    the closed coefficient solver) and the max relative misfits are
    reported.  T = 0 bypasses the quadrature: alpha1 is the bare kernel,
    alpha2 is identically zero.
    """
    if T < 0.0:
        raise ValueError("temperature must be nonnegative")
    if T == 0.0:
        silent = OUKernel(Gamma=0.0, gamma=J.gamma, Omega=J.Omega)
        return EffectiveKernels(alpha1=J, alpha2=silent)
    lo, hi = frequency_window(J.gamma, J.Omega)
    lags = np.linspace(0.0, _LAG_SPAN / J.gamma, _LAG_SAMPLES)
    edges = _frequency_panels(lo, hi, J.gamma, lags[-1])
    probe = np.arange(0, _LAG_SAMPLES, _LAG_SAMPLES // 16)
    t_end = _FIT_SPAN / J.gamma
    if fit:
        # the fit reads the lags up to t_end, the probe its own
        keep = np.union1d(np.flatnonzero(lags <= t_end), probe)
        lags, probe = lags[keep], np.searchsorted(keep, probe)

    omega, wq = _gauss_nodes(edges, _GAUSS_ORDER)
    occ = thermal_occupation(omega, T)
    dens = spectral_density(J, omega)
    a1, a2 = _half_transforms(lags, omega, wq * dens * (occ + 1.0), wq * dens * occ)

    # re-quadrature at lower order on the same panels as a convergence probe
    om_c, wq_c = _gauss_nodes(edges, _PROBE_ORDER)
    occ_c = thermal_occupation(om_c, T)
    dens_c = spectral_density(J, om_c)
    b1, b2 = _half_transforms(lags[probe], om_c, wq_c * dens_c * (occ_c + 1.0),
                              wq_c * dens_c * occ_c)
    scale = max(abs(a1[0]), 1e-300)
    drift = max(np.abs(a1[probe] - b1).max(), np.abs(a2[probe] - b2).max())
    if drift > 1e-8 * scale:
        raise NumericalFailure(
            f"frequency quadrature drifted by {drift/scale:.2e} between "
            f"{_GAUSS_ORDER} and {_PROBE_ORDER} nodes per panel; the kernels "
            "of this bath are not resolved"
        )

    if not fit:
        return EffectiveKernels(
            alpha1=TabulatedKernel(lags, a1),
            alpha2=TabulatedKernel(lags, a2),
            omega_window=(lo, hi),
        )
    k1, r1 = _fit_exponential(lags, a1, t_end, "alpha1")
    # |alpha2| peaks at lag 0, which every lag set holds
    if np.abs(a2).max() <= 1e-12 * scale:
        k2 = OUKernel(Gamma=0.0, gamma=J.gamma, Omega=-J.Omega)
        r2 = float(np.abs(a2).max() / scale)
    else:
        k2, r2 = _fit_exponential(lags, a2, t_end, "alpha2")
    return EffectiveKernels(
        alpha1=k1,
        alpha2=k2,
        omega_window=(lo, hi),
        fit_residuals=(r1, r2),
    )


@dataclass(frozen=True)
class ThermalOCoefficients:
    """Kernel-averaged coefficient series X[i, j] of both effective baths.

    Axis layout of X is (node, bath i in {1,2}, basis j in {a, a^dag,
    b, b^dag}).
    """

    grid: TimeGrid
    X: np.ndarray
    provenance: str

    def series(self, i, j):
        return self.X[:, i - 1, j - 1]


def _coupling_matrix(X, wm, delta, g):
    """Shared evolution matrix of the coefficient rows; both baths' rows
    see the same matrix, only their boundary rows differ.  ``X`` (..., 2, 4)
    gives matrices (..., 4, 4)."""
    (x11, x12, x13, x14), (x21, x22, x23, x24) = np.moveaxis(X, (-2, -1), (0, 1))
    ig = 1j * g
    return np.moveaxis(np.array([
        [-1j * delta + x11 + x22, -2.0 * x21,
         ig + x11 + x24, -ig - x21 - x23],
        [2.0 * x12, 1j * delta - x11 - x22,
         ig + x12 + x14, -ig - x13 - x22],
        [ig + x13 + x22, -ig - x21 - x23,
         1j * wm + x13 + x24, -2.0 * x23],
        [ig + x12 + x14, -ig - x11 - x24,
         2.0 * x14, -1j * wm - x13 - x24],
    ]), (0, 1), (-2, -1))


def _solve_thermal_closed(pair, sys, grid):
    """Closed march of the kernel averages of exponential kernels; a delta
    bath holds its constant averages."""
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    a0 = np.zeros(2, dtype=complex)
    mu = np.zeros(2, dtype=complex)
    live = np.ones(2)
    X = np.zeros((2, 4), dtype=complex)
    for i, k in enumerate(pair):
        if isinstance(k, DeltaKernel):
            X[i] = 0.5 * k.Gamma * _BC[i]
            live[i] = 0.0
        else:
            a0[i] = k.alpha0
            mu[i] = k.mu
    if not live.any():
        return ThermalOCoefficients(grid=grid, X=np.tile(X, (grid.n_points, 1, 1)),
                                    provenance="markov-delta")

    def rhs(x):
        kmat = _coupling_matrix(x, wm, delta, g)
        d = a0[:, None] * _BC - mu[:, None] * x + x @ np.swapaxes(kmat, -1, -2)
        return live[:, None] * d

    out = march_doubled(rhs, X, grid, "closed thermal system")
    return ThermalOCoefficients(grid=grid, X=out,
                                provenance="closed-exponential")


def _solve_thermal_grid(pair, sys, grid):
    """Two-time march of the eight coefficient rows.

    Both baths' rows share the grid march of the single-bath solver
    (:func:`ocoeff._two_time_march`), each with its own boundary rows and
    kernel.  No memory slab is needed because the noise-expansion rows
    are dropped by design.  A delta kernel has no pointwise values, so
    the march rejects it.
    """
    wm, delta, g = sys.omega_m, sys.Delta, sys.G
    X, _ = _two_time_march(lambda x: _coupling_matrix(x, wm, delta, g), _BC, pair,
                           grid, what="thermal coefficient march")
    return ThermalOCoefficients(grid=grid, X=X, provenance="two-time-grid")


def solve_thermal_ocoeff(kernels, sys: LinearizedSystem,
                         grid: TimeGrid) -> ThermalOCoefficients:
    """Kernel averages X_ij(t) for both effective baths of the
    (alpha1, alpha2) pair ``kernels``.

    The pair picks the route: with a tabulated kernel the two-time grid
    march (whose partner cannot be a delta kernel), otherwise the closed
    8-component ODE system of exponential (or delta) kernels; a pair of
    delta kernels has constant averages.
    """
    a1, a2 = kernels
    if isinstance(a1, TabulatedKernel) or isinstance(a2, TabulatedKernel):
        return _solve_thermal_grid((a1, a2), sys, grid)
    return _solve_thermal_closed((a1, a2), sys, grid)

