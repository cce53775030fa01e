"""Correlation kernels, spectral density, and noise sampling."""

import numpy as np
import pytest

from nmoptomech.kernel import (
    DeltaKernel,
    OUKernel,
    TabulatedKernel,
    path_seed,
    read_kernel_table,
    sample_noise_batch,
    spectral_density,
    write_kernel_table,
)
from nmoptomech.stepping import TimeGrid


def test_ou_kernel_values():
    k = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.5)
    assert k.alpha0 == pytest.approx(0.6)
    assert k.mu == pytest.approx(0.6 + 0.5j)
    assert k.alpha(0.0) == pytest.approx(0.6)
    # stationarity: alpha(-tau) = conj(alpha(tau))
    assert k.alpha(-1.3) == pytest.approx(np.conj(k.alpha(1.3)), abs=1e-15)
    assert abs(k.alpha(2.0)) == pytest.approx(0.6 * np.exp(-1.2), rel=1e-12)


def test_ou_validation():
    with pytest.raises(ValueError):
        OUKernel(Gamma=-1.0, gamma=0.5, Omega=0.0)
    with pytest.raises(ValueError):
        OUKernel(Gamma=1.0, gamma=0.0, Omega=0.0)
    with pytest.raises(ValueError):
        DeltaKernel(Gamma=-1.0)


def test_spectral_density_lorentzian():
    k = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.5)
    # peak height Gamma/(2 pi) at omega = Omega
    assert spectral_density(k, 0.5) == pytest.approx(2.0 / (2 * np.pi), rel=1e-12)
    assert spectral_density(k, 0.5 + 0.6) == pytest.approx(
        spectral_density(k, 0.5) / 2, rel=1e-12)
    # kernel is its Fourier transform
    om = np.linspace(-60, 61, 240001)
    j = spectral_density(k, om)
    tau = 0.7
    back = np.trapezoid(j * np.exp(-1j * om * tau), om)
    assert back == pytest.approx(k.alpha(tau), abs=1e-4)


def test_markov_kernel_eval_raises():
    k = DeltaKernel(2.0)
    assert k.Gamma == 2.0
    with pytest.raises(ValueError, match="no pointwise value"):
        k.alpha(0.5)


def test_tabulated_kernel_interpolates():
    base = OUKernel(Gamma=1.5, gamma=0.8, Omega=0.3)
    lags = np.linspace(0.0, 10.0, 2001)
    spec = TabulatedKernel(lags, base.alpha(lags))
    for tau in (0.33, 2.71, -1.2):
        assert spec.alpha(tau) == pytest.approx(
            base.alpha(tau), abs=1e-6)


def test_tabulated_requires_uniform_grid_from_zero():
    with pytest.raises(ValueError):
        TabulatedKernel(lags=np.array([0.5, 1.0]), values=np.ones(2, complex))
    with pytest.raises(ValueError):
        TabulatedKernel(lags=np.array([0.0, 0.3, 0.9]),
                        values=np.ones(3, complex))


def test_kernel_table_roundtrip(tmp_path):
    base = OUKernel(Gamma=1.0, gamma=0.5, Omega=1.0)
    lags = np.linspace(0.0, 5.0, 101)
    path = tmp_path / "kernel.csv"
    write_kernel_table(path, lags, base.alpha(lags))
    spec = read_kernel_table(path)
    assert isinstance(spec, TabulatedKernel)
    assert np.allclose(spec.values, base.alpha(lags), atol=1e-12)
    # the CSV layout documented in the README reads to the same kernel
    csv_path = tmp_path / "kernel_doc.csv"
    rows = [f"{x:.17g},{v.real:.17g},{v.imag:.17g}"
            for x, v in zip(lags, base.alpha(lags))]
    csv_path.write_text("lag,re,im\n" + "\n".join(rows) + "\n")
    doc = read_kernel_table(csv_path)
    assert np.array_equal(doc.values, spec.values)


def test_path_seed_is_stable_and_distinct():
    ent = [tuple(path_seed(12345, i).entropy) for i in range(64)]
    assert len(set(ent)) == 64
    assert ent[:4] == [tuple(path_seed(12345, i).entropy) for i in range(4)]
    assert tuple(path_seed(12346, 0).entropy) != tuple(path_seed(12345, 0).entropy)


def test_noise_reproducible_and_batch_consistent():
    k = OUKernel(2.0, 0.6, 0.3)
    grid = TimeGrid(dt=0.05, t_final=2.0)
    seeds = [path_seed(99, i) for i in range(5)]
    zb = sample_noise_batch(k, grid, seeds)
    z0 = sample_noise_batch(k, grid, seeds[:1])
    assert np.array_equal(zb[:, :1], z0)
    # batch split does not change the draws
    zc = sample_noise_batch(k, grid, seeds[2:])
    assert np.array_equal(zb[:, 2:], zc)


def test_ou_noise_covariance_matches_kernel():
    # ensemble moments against the kernel: M[z z*] = alpha, M[z z] = 0
    k = OUKernel(2.0, 0.8, 0.4)
    grid = TimeGrid(dt=0.1, t_final=3.0)
    n_paths = 60000
    z = sample_noise_batch(k, grid, [path_seed(2024, i) for i in range(n_paths)])
    t = grid.times()
    cols = [0, 10, 25]
    est = np.einsum("ip,jp->ij", z[cols], z.conj()) / n_paths
    exact = np.array([[k.alpha(t[i] - s) for s in t] for i in cols])
    assert np.max(np.abs(est - exact)) < 0.03
    pseudo = np.einsum("ip,jp->ij", z[cols], z) / n_paths
    assert np.max(np.abs(pseudo)) < 0.03


def test_recursion_and_cholesky_agree_in_law():
    # the exponential kernel takes the recursion; the same kernel tabulated
    # on the grid's lags takes the Cholesky factorization
    k = OUKernel(1.5, 0.7, 0.0)
    grid = TimeGrid(dt=0.1, t_final=2.0)
    lags = grid.times()
    seeds = [path_seed(7, i) for i in range(40000)]
    zr = sample_noise_batch(k, grid, seeds)
    zc = sample_noise_batch(TabulatedKernel(lags, k.alpha(lags)), grid, seeds)
    cr = np.einsum("ip,jp->ij", zr, zr.conj()) / len(seeds)
    cc = np.einsum("ip,jp->ij", zc, zc.conj()) / len(seeds)
    assert np.max(np.abs(cr - cc)) < 0.05


def test_markov_noise_white_scaling():
    k = DeltaKernel(2.0)
    grid = TimeGrid(dt=0.02, t_final=1.0)
    z = sample_noise_batch(k, grid, [path_seed(5, i) for i in range(40000)])
    var = np.mean(np.abs(z) ** 2, axis=1)
    # discrete white noise carries weight/dt per node
    assert np.median(var) == pytest.approx(2.0 / 0.02, rel=0.05)


def test_zero_strength_kernel_is_silent():
    k = OUKernel(0.0, 0.5, 0.0)
    grid = TimeGrid(dt=0.1, t_final=1.0)
    z = sample_noise_batch(k, grid, [path_seed(1, 0)])
    assert np.all(z == 0)
