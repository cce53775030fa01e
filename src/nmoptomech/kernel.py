"""Environment correlation kernels and the complex Gaussian noise process.

The exponential kernel

    alpha(t, s) = (Gamma gamma / 2) exp(-(gamma + i Omega)|t - s|),  conj for t < s

pairs with the Lorentzian spectral density J(w) = (Gamma gamma^2 / 2 pi)
/ ((w - Omega)^2 + gamma^2).  The delta kernel alpha(t, s) = Gamma
delta(t - s) is its memoryless limit: its weight Gamma enters boundary
integrals with the half-weight convention int_0^t delta(t,s) f(s) ds =
f(t)/2.  Arbitrary kernels are supported through tabulated lag samples.

Each kernel is its own type (:class:`OUKernel`, :class:`DeltaKernel`,
:class:`TabulatedKernel`) with the pointwise value ``alpha(tau)`` at lag
tau = t - s; the delta kernel has none.  The solvers and samplers pick
their route by the kernel's type.

Noise paths carry the conjugated process z*_t with statistics
M[z*_t] = 0, M[z*_t z*_s] = 0 and M[z*_t conj(z*_s)] = alpha(t, s).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .stepping import TimeGrid

__all__ = [
    "OUKernel",
    "DeltaKernel",
    "TabulatedKernel",
    "spectral_density",
    "sample_noise_batch",
    "path_seed",
    "write_kernel_table",
    "read_kernel_table",
]


@dataclass(frozen=True)
class OUKernel:
    """Exponential correlation kernel (Ornstein-Uhlenbeck process statistics).

    Gamma : overall environmental decay rate
    gamma : inverse memory time (kernel width)
    Omega : environment central frequency
    """

    Gamma: float
    gamma: float
    Omega: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.Gamma < 0:
            raise ValueError("Gamma must be nonnegative")

    @property
    def mu(self):
        return complex(self.gamma, self.Omega)

    @property
    def alpha0(self):
        return 0.5 * self.Gamma * self.gamma

    def alpha(self, tau):
        """Kernel value at lag tau = t - s (array friendly)."""
        tau = np.asarray(tau, dtype=float)
        out = self.alpha0 * np.exp(-self.gamma * np.abs(tau) - 1j * self.Omega * tau)
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class DeltaKernel:
    """Memoryless kernel alpha(t, s) = Gamma delta(t - s) of weight Gamma."""

    Gamma: float

    def __post_init__(self):
        if self.Gamma < 0:
            raise ValueError("Gamma must be nonnegative")

    def alpha(self, tau):
        raise ValueError("the delta kernel has no pointwise value")


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by samples on a uniform nonnegative lag grid.

    Values beyond the last tabulated lag are taken as zero (decayed
    kernel); negative lags use Hermitian symmetry.
    """

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if lags.ndim != 1 or lags.size < 2:
            raise ValueError("need at least two lag samples")
        if lags[0] != 0.0:
            raise ValueError("lag grid must start at 0")
        d = np.diff(lags)
        if np.any(d <= 0) or not np.allclose(d, d[0], rtol=1e-8):
            raise ValueError("lag grid must be uniform and increasing")
        if values.shape != lags.shape:
            raise ValueError("lags and values must have equal length")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)

    def alpha(self, tau):
        tau = np.asarray(tau, dtype=float)
        a = np.abs(tau)
        re = np.interp(a, self.lags, self.values.real, right=0.0)
        im = np.interp(a, self.lags, self.values.imag, right=0.0)
        out = re + 1j * np.where(tau < 0, -im, im)
        return out if out.ndim else complex(out)


def spectral_density(k: OUKernel, omega):
    """Lorentzian line J(w) paired with the exponential kernel."""
    omega = np.asarray(omega, dtype=float)
    out = (k.Gamma * k.gamma ** 2 / (2.0 * np.pi)) / (
        (omega - k.Omega) ** 2 + k.gamma ** 2
    )
    return out if out.ndim else float(out)


def path_seed(master_seed, index):
    """Independent per-path seed from (master seed, path index).

    Counter-based: statistics do not depend on scheduling or batch order.
    """
    return np.random.SeedSequence([int(master_seed), int(index)])


def _standard_draws(grid, seeds):
    """One column of circular standard complex normals per seed."""
    n = grid.n_points
    out = np.empty((n, len(seeds)), dtype=complex)
    for j, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        out[:, j] = np.sqrt(0.5) * (rng.standard_normal(n)
                                    + 1j * rng.standard_normal(n))
    return out


def _cholesky_factor(k, grid):
    t = grid.times()
    cov = np.asarray(k.alpha(t[:, None] - t[None, :]), dtype=complex)
    jitter = 1e-14 * np.trace(cov).real / len(t)
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(len(t)))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "kernel covariance on this grid is not positive definite"
        ) from exc


def sample_noise_batch(k, grid: TimeGrid, seeds):
    """Realizations of z*_t for each seed, as columns of an (n, m) array.

    Each path draws from its own counter-based generator, so any batch
    split yields the same per-path values.  The kernel picks the
    sampler: an exponential kernel takes the exact stationary
    first-order recursion, a tabulated one colors the draws with a
    covariance factorization, and the delta kernel draws independent
    samples of variance Gamma/dt, the grid representation of
    delta-correlated noise.
    """
    if not isinstance(grid, TimeGrid):
        raise TypeError("grid must be a TimeGrid")
    n, m = grid.n_points, len(seeds)
    if isinstance(k, TabulatedKernel):
        return _cholesky_factor(k, grid) @ _standard_draws(grid, seeds)
    if k.Gamma == 0.0:
        return np.zeros((n, m), dtype=complex)
    if isinstance(k, DeltaKernel):
        return np.sqrt(k.Gamma / grid.dt) * _standard_draws(grid, seeds)
    w = _standard_draws(grid, seeds)
    z = np.empty((n, m), dtype=complex)
    z[0] = np.sqrt(k.alpha0) * w[0]
    decay = np.exp(-k.mu * grid.dt)
    sigma = np.sqrt(k.alpha0 * (1.0 - np.exp(-2.0 * k.gamma * grid.dt)))
    for kk in range(1, n):
        z[kk] = decay * z[kk - 1] + sigma * w[kk]
    return z


def write_kernel_table(path, lags, values):
    """Write lag-sampled kernel values as text: lag, re, im per row."""
    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=complex)
    data = np.column_stack([lags, values.real, values.imag])
    np.savetxt(path, data, header="lag re_alpha im_alpha")


def read_kernel_table(path) -> TabulatedKernel:
    """Read a kernel table: CSV with the header ``lag,re,im``, or the
    whitespace-separated text written by :func:`write_kernel_table`.

    A file that cannot be read, or a table that :class:`TabulatedKernel`
    rejects, is a ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [x for x in fh if x.strip() and not x.lstrip().startswith("#")]
        sep = "," if lines and "," in lines[0] else None
        if lines and lines[0].split(sep)[0].strip().lower() == "lag":
            lines = lines[1:]
        data = np.loadtxt(lines, delimiter=sep, ndmin=2)
        if data.shape[1] != 3:
            raise ValueError("need the columns lag, re, im")
        return TabulatedKernel(lags=data[:, 0], values=data[:, 1] + 1j * data[:, 2])
    except Exception as exc:
        raise ConfigError(f"kernel table {path}: {exc}") from exc
