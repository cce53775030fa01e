"""Grid construction, quadrature weights, stencil helpers and the RK4 step."""

import tracemalloc

import numpy as np
import pytest

from nmoptomech import ocoeff, stepping, thermal
from nmoptomech.errors import NumericalFailure
from nmoptomech.kernel import OUKernel
from nmoptomech.moments import integrate_moments, vacuum
from nmoptomech.ocoeff import ou_closed_blocks, solve_ou_closed
from nmoptomech.params import LinearizedSystem
from nmoptomech.stepping import (
    TimeGrid,
    block_half_nodes,
    doubled_blocks,
    march_doubled,
    march_driven,
    rk4_step,
    trapezoid_weights,
)
from oracles import half_node_values, midpoint_derivative, midpoint_values, stepwise_doubled


def test_grid_node_count_and_times():
    g = TimeGrid(dt=0.1, t_final=1.0)
    assert g.n_points == 11
    t = g.times()
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(t), 0.1)


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, t_final=0.05)


def test_refine_doubles_resolution():
    g = TimeGrid(dt=0.1, t_final=1.0)
    r = g.refine()
    assert r.n_points == 21
    assert np.allclose(r.times()[::2], g.times())
    assert g.matches(TimeGrid(dt=0.1, t_final=1.0))
    assert not g.matches(r)


def test_trapezoid_weights_integrate_polynomials():
    # trapezoid is exact for linear integrands
    n, h = 11, 0.3
    w = trapezoid_weights(n, h)
    x = h * np.arange(n)
    assert w.sum() == pytest.approx(h * (n - 1), abs=1e-14)
    assert (w * x).sum() == pytest.approx((h * (n - 1)) ** 2 / 2, abs=1e-12)


def test_trapezoid_weights_degenerate_sizes():
    assert trapezoid_weights(1, 0.5).tolist() == [0.0]
    assert trapezoid_weights(2, 0.5).tolist() == [0.25, 0.25]


@pytest.mark.parametrize("n, start", [(1, 0), (2, 1), (5, 0), (5, 1), (5, 4)])
def test_trapezoid_weights_from_start_are_the_tail_of_the_rule(n, start):
    tail = trapezoid_weights(n, 0.3, start)
    assert np.array_equal(tail, trapezoid_weights(n, 0.3)[start:])


def test_midpoint_values_fourth_order():
    # error of the 4-point stencil decays like h^4 on smooth data
    errs = []
    for n in (9, 17, 33):
        x = np.linspace(0.0, 1.0, n)
        y = np.sin(3.0 * x)
        mid = midpoint_values(y)
        exact = np.sin(3.0 * (x[:-1] + x[1:]) / 2)
        errs.append(np.max(np.abs(mid - exact)))
    assert errs[0] / errs[1] > 10
    assert errs[1] / errs[2] > 10


def test_midpoint_derivative_matches_cosine():
    n = 101
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * x)
    d = midpoint_derivative(y, x[1] - x[0])
    exact = 2.0 * np.cos(2.0 * (x[:-1] + x[1:]) / 2)
    assert np.max(np.abs(d - exact)) < 1e-6


def test_half_node_values_fall_back_to_average_on_short_grids():
    row = np.array([0.0, 1.0, 4.0])
    assert [half_node_values([row], j)[0] for j in range(5)] == [0.0, 0.5, 1.0, 2.5, 4.0]
    pair = np.array([2.0, 3.0])
    assert half_node_values([pair, 2.0 * pair], 1) == [2.5, 5.0]


def test_half_node_values_match_nodes_and_midpoint_stencil():
    # odd j takes one step's stencil as a dot product, midpoint_values all
    # of them as one tensordot: the two round apart by at most 2 ulp
    rng = np.random.default_rng(5)
    flat = rng.normal(size=9)
    wide = rng.normal(size=(9, 21)) + 1j * rng.normal(size=(9, 21))
    for r in (flat, wide, np.linspace(0.0, 1.0, 9) ** 2):
        mids = midpoint_values(r)
        ulp = np.spacing(np.abs(r).max())
        for k in range(9):
            assert np.array_equal(half_node_values([r], 2 * k)[0], r[k])
        for k in range(8):
            assert np.abs(half_node_values([r], 2 * k + 1)[0] - mids[k]).max() <= 2 * ulp


def _rk4_error(n):
    # y' = cos(t) y, y(0) = 1, so y(1) = exp(sin 1); the stage data are
    # the coefficient at the node, the midpoint and the next node
    h = 1.0 / n
    y = np.array([1.0])
    for k in range(n):
        t = k * h
        y = rk4_step(y, h, lambda v: np.cos(t) * v,
                     lambda v: np.cos(t + 0.5 * h) * v,
                     lambda v: np.cos(t + h) * v)
    return abs(y[0] - np.exp(np.sin(1.0)))


def test_rk4_step_is_fourth_order_on_nonautonomous_ode():
    e1, e2, e3 = _rk4_error(10), _rk4_error(20), _rk4_error(40)
    assert 13.0 < e1 / e2 < 19.0
    assert 13.0 < e2 / e3 < 19.0


def _cos_rhs(t):
    return lambda v: np.cos(t) * v


def test_march_driven_equals_the_hand_written_loop():
    # the _rk4_error ODE; both routes read their stage times from one
    # table, so they must agree bitwise
    grid = TimeGrid(dt=0.1, t_final=1.0)
    t = grid.refine().times()
    want = [np.array([1.0])]
    for k in range(grid.n_steps):
        want.append(rk4_step(want[-1], grid.dt, _cos_rhs(t[2 * k]),
                             _cos_rhs(t[2 * k + 1]), _cos_rhs(t[2 * k + 2])))
    built, seen = [], []

    def rhs_at(j):
        built.append(j)
        return _cos_rhs(t[j])

    got = march_driven(rhs_at, want[0], grid, lambda k, y: seen.append((k, y)))
    assert np.array_equal(got, want[-1])
    # every node once, in order, with the state the loop holds there
    assert [k for k, _ in seen] == list(range(grid.n_steps + 1))
    assert all(np.array_equal(y, want[k]) for k, y in seen)
    # each half-node's right-hand side is built once, in order
    assert built == list(range(2 * grid.n_steps + 1))
    assert abs(got[0] - np.exp(np.sin(1.0))) < 1e-5


def _doubling_gap(rhs, y0, h):
    coarse = rk4_step(y0, h, rhs)
    fine = rk4_step(rk4_step(y0, 0.5 * h, rhs), 0.5 * h, rhs)
    return abs(coarse - fine).max(), abs(fine).max()


def test_march_doubled_guard_fires_just_past_threshold():
    # y' = -4 y with h = 1: the full step and the two half steps differ by
    # a fixed multiple of |y0|, so y0 sets the gap; the state stays below
    # 1, where the guard is the absolute bound 1e-2
    rhs = lambda v: -4.0 * v
    grid = TimeGrid(dt=1.0, t_final=1.0)
    gap, size = _doubling_gap(rhs, np.array([1.0 + 0j]), 1.0)
    y_edge = 1e-2 / gap
    assert y_edge * size < 1.0
    below = march_doubled(rhs, np.array([y_edge * (1 - 1e-6)]), grid, "toy")
    assert below.shape == (2, 1)
    with pytest.raises(NumericalFailure, match="toy is stiff at t=1.000"):
        march_doubled(rhs, np.array([y_edge * (1 + 1e-6)]), grid, "toy")
    with pytest.raises(NumericalFailure, match="toy"):
        march_doubled(lambda v: v * np.nan, np.ones(1), grid, "toy")


def test_march_doubled_keeps_the_fine_result():
    rhs = lambda v: 1j * v
    grid = TimeGrid(dt=0.1, t_final=0.3)
    out = march_doubled(rhs, np.array([1.0, 2.0]), grid, "rotation")
    y = np.array([1.0, 2.0], dtype=complex)
    for k in range(3):
        y = rk4_step(rk4_step(y, 0.05, rhs), 0.05, rhs)
        assert np.array_equal(out[k + 1], y)
    assert np.allclose(out[-1], np.exp(0.3j) * np.array([1.0, 2.0]), atol=1e-8)


def test_march_doubled_guard_is_per_point():
    # the first point sits just past its guard; the second is constant, so
    # it adds no error, but its large scale would hide the first point's
    # error from a guard taken over the whole batch
    rates = np.array([-4.0, 0.0])
    rhs = lambda v: rates * v
    grid = TimeGrid(dt=1.0, t_final=1.0)
    gap, _ = _doubling_gap(lambda v: -4.0 * v, np.array([1.0 + 0j]), 1.0)
    y_edge = 1e-2 / gap
    below = march_doubled(rhs, np.array([[y_edge * (1 - 1e-6), 1e6]]), grid, "toy")
    assert below.shape == (2, 1, 2)
    with pytest.raises(NumericalFailure, match="toy is stiff at t=1.000"):
        march_doubled(rhs, np.array([[y_edge * (1 + 1e-6), 1e6]]), grid, "toy")


def test_march_doubled_batch_matches_each_point_alone():
    w = np.array([0.5, 1.0, 2.0])
    y0 = np.array([[1.0, 2.0, -1.0], [0.5j, 0.0, 1.0 + 1j]])
    grid = TimeGrid(dt=0.1, t_final=2.0)
    out = march_doubled(lambda v: 1j * w * v - 0.1 * v * v, y0, grid, "batch")
    assert out.shape == (grid.n_points, 2, 3)
    for p in range(3):
        alone = march_doubled(lambda v: 1j * w[p] * v - 0.1 * v * v, y0[:, p],
                              grid, "alone")
        np.testing.assert_allclose(out[:, :, p], alone, rtol=0, atol=1e-15)


def test_closed_batch_with_one_stiff_point_raises():
    # a resonant bath above the damping threshold runs into a pole near
    # t=2.4 (README, numerical notes); next to a benign point it must
    # still stop the whole batch, with the time its own march stops at
    grid = TimeGrid(dt=0.01, t_final=4.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    benign, stiff = OUKernel(2.0, 0.6), OUKernel(2.0, 1.0, Omega=1.0)
    solve_ou_closed(benign, sys_, grid)
    with pytest.raises(NumericalFailure) as alone:
        solve_ou_closed(stiff, sys_, grid)
    assert "closed coefficient system is stiff" in str(alone.value)
    for batch in ([benign, stiff], [stiff, benign]):
        with pytest.raises(NumericalFailure) as exc:
            solve_ou_closed(batch, [sys_, sys_], grid)
        assert str(exc.value) == str(alone.value)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 13])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 300])
def test_block_half_nodes_equal_the_whole_rows(n, block):
    # the sliding window holds the stencil's older nodes across block edges
    rng = np.random.default_rng(n * block)
    rows = [rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            for _ in range(2)]
    values = block_half_nodes(([r[lo:lo + block] for r in rows]
                               for lo in range(0, n, block)), n)
    for j in range(2 * n - 1):
        for got, want in zip(values(j), half_node_values(rows, j), strict=True):
            assert np.array_equal(got, want)


def test_block_half_nodes_need_every_node():
    rows = [np.arange(5.0)]
    values = block_half_nodes([[rows[0][:3]]], 5)
    values(2)
    with pytest.raises(ValueError, match="end before node 3"):
        values(3)


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("points", [(), (21,)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 13, 257, 513])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 256, 300])
def test_block_stencil_is_the_stepwise_stencil_bit_for_bit(dtype, points, n, block):
    # one stacked product per block against one w @ r per half-node: 1-D
    # rows and rows of 21 points, complex or real, across block edges,
    # short grids and a last block of one node (257, 513)
    rng = np.random.default_rng(n + block)
    shape = (n, *points)

    def row():
        r = rng.standard_normal(shape)
        return r + 1j * rng.standard_normal(shape) if dtype is complex else r

    rows = [row() for _ in range(4)]
    values = block_half_nodes(([r[lo:lo + block] for r in rows]
                               for lo in range(0, n, block)), n)
    for j in range(2 * n - 1):
        got, want = values(j), half_node_values(rows, j)
        assert got.shape == (len(rows), *points)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)


def test_moment_march_takes_one_stencil_product_per_block(monkeypatch):
    # 3,001 nodes in 256-node blocks: one stacked interior product per
    # block and the two edge stencils, not one product per half-node
    real, calls = stepping._stencil, []
    monkeypatch.setattr(stepping, "_stencil", lambda *a: calls.append(a) or real(*a))
    grid = TimeGrid(dt=0.01, t_final=30.0)
    systems = [LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)] * 2
    kernels = [OUKernel(0.4, 1.0, w) for w in (0.0, 1.0)]
    blocks = ou_closed_blocks(kernels, systems, grid)
    integrate_moments(blocks, systems, vacuum(), grid, sink=lambda k0, states: None)
    assert grid.n_points == 3001
    assert len(calls) <= -(-grid.n_points // stepping._BLOCK) + 2


def _spy(monkeypatch, module, name, seen):
    """Wrap ``module.name`` (a doubling march) to record its arguments."""
    real = getattr(module, name)

    def spy(rhs, y0, grid, what):
        seen.update(rhs=rhs, y0=y0, what=what)
        return real(rhs, y0, grid, what)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_doubled_blocks_join_to_the_stepwise_march(block, monkeypatch):
    # the fine path is the step-by-step march's, bit for bit, in blocks of
    # `block` nodes (the last one short: 401 nodes), the first from node 0
    monkeypatch.setattr(stepping, "_BLOCK", block)
    grid = TimeGrid(dt=0.01, t_final=4.0)
    kernels = [OUKernel(2.0, 0.6, w) for w in (0.0, 0.3, 1.1)]
    systems = [LinearizedSystem(omega_m=1.0, Delta=d, G=0.1) for d in (1.0, 1.4, 2.0)]
    seen = {}
    _spy(monkeypatch, ocoeff, "doubled_blocks", seen)
    F = solve_ou_closed(kernels, systems, grid)
    want = stepwise_doubled(seen["rhs"], seen["y0"], grid, seen["what"])
    assert np.array_equal(np.moveaxis(want, 1, 0)[0], F.F1)
    blocks = list(doubled_blocks(seen["rhs"], seen["y0"], grid, seen["what"]))
    assert [len(b) for b in blocks] == [min(block, grid.n_points - lo)
                                        for lo in range(0, grid.n_points, block)]
    assert np.array_equal(np.concatenate(blocks), want)


def test_thermal_closed_march_broadcasts_over_nodes(monkeypatch):
    # the thermal right-hand side takes a stack of nodes for the block
    # guard, and its fine path stays the step-by-step march's
    pair = thermal.effective_kernels(OUKernel(Gamma=2.0, gamma=1.0, Omega=0.3), 0.0)
    grid = TimeGrid(dt=0.01, t_final=3.0)
    seen = {}
    _spy(monkeypatch, thermal, "march_doubled", seen)
    X = thermal.solve_thermal_ocoeff(pair, LinearizedSystem(1.0, 1.0, 0.1), grid)
    want = stepwise_doubled(seen["rhs"], seen["y0"], grid, seen["what"])
    assert np.array_equal(X.X, want)
    stack = seen["rhs"](want[::50])
    for got, y in zip(stack, want[::50]):
        assert np.abs(got - seen["rhs"](y)).max() <= 1e-15 * max(1.0, np.abs(got).max())


@pytest.mark.parametrize("block", [241, 242, 256])
def test_block_guard_stops_where_the_stepwise_guard_does(block, monkeypatch):
    # the stiff point's first failing step reaches node 241 (t = 2.41): in
    # blocks of 241 nodes it is the first step of the second block, in
    # blocks of 242 the last step of the first
    monkeypatch.setattr(stepping, "_BLOCK", block)
    grid = TimeGrid(dt=0.01, t_final=4.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    seen = {}
    _spy(monkeypatch, ocoeff, "doubled_blocks", seen)
    with pytest.raises(NumericalFailure) as got:
        solve_ou_closed([OUKernel(2.0, 0.6), OUKernel(2.0, 1.0, Omega=1.0)],
                        [sys_, sys_], grid)
    with pytest.raises(NumericalFailure) as want:
        stepwise_doubled(seen["rhs"], seen["y0"], grid, seen["what"])
    assert str(got.value) == str(want.value) == (
        "closed coefficient system is stiff at t=2.410 for this step size; refine dt")


@pytest.mark.parametrize("guard", [1, 7])
def test_block_guard_in_sub_blocks_keeps_the_stepwise_verdict(guard, monkeypatch):
    # the guard of a block steps from a few nodes at a time; any count of
    # nodes a guard step gives the step-by-step guard's verdict and time
    monkeypatch.setattr(stepping, "_GUARD", guard)
    grid = TimeGrid(dt=0.01, t_final=4.0)
    sys_ = LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)
    with pytest.raises(NumericalFailure, match="stiff at t=2.410 for this step size"):
        solve_ou_closed([OUKernel(2.0, 0.6), OUKernel(2.0, 1.0, Omega=1.0)],
                        [sys_, sys_], grid)
    seen = {}
    _spy(monkeypatch, ocoeff, "doubled_blocks", seen)
    F = solve_ou_closed([OUKernel(0.4, 1.0, Omega=w) for w in (0.0, 1.0)], [sys_, sys_], grid)
    want = stepwise_doubled(seen["rhs"], seen["y0"], grid, seen["what"])
    assert np.array_equal(np.moveaxis(want, 1, 0)[0], F.F1)


def test_block_guard_holds_no_block_sized_temporaries():
    # 21 points x 3,001 nodes: a block of states is 0.43 MB; a guard step
    # from all 256 nodes of a block at once peaked at 3.7 MB
    kernels = [OUKernel(0.4, 1.0, Omega=w) for w in np.linspace(0.0, 2.0, 21)]
    systems = [LinearizedSystem(omega_m=1.0, Delta=1.0, G=0.1)] * 21
    tracemalloc.start()
    try:
        for block in ou_closed_blocks(kernels, systems, TimeGrid(dt=0.01, t_final=30.0)):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
