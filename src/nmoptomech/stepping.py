"""Uniform time grids and small stencil helpers shared by the integrators.

Every solver in this package marches on the same uniform grid with a
classical fourth-order Runge-Kutta step.  The helpers here keep that step,
the grid bookkeeping, the trapezoidal quadrature weights, and the
half-node stencil in one place so that all modules discretize identically.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalFailure

__all__ = [
    "TimeGrid",
    "trapezoid_weights",
    "rk4_step",
    "block_half_nodes",
    "march_driven",
    "doubled_blocks",
    "march_doubled",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*dt for k = 0..n_steps.

    ``t_final`` is rounded to the nearest multiple of ``dt``; the stored
    value is the rounded one so that ``times()[-1] == t_final`` exactly.
    """

    dt: float
    t_final: float

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        n = int(round(self.t_final / self.dt))
        if n < 1:
            raise ValueError("t_final must allow at least one step")
        object.__setattr__(self, "t_final", n * self.dt)

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))

    @property
    def n_points(self):
        return self.n_steps + 1

    def times(self):
        return np.arange(self.n_points) * self.dt

    def refine(self):
        """Grid with the same span and half the step."""
        return TimeGrid(self.dt / 2, self.t_final)

    def matches(self, other):
        return (
            abs(self.dt - other.dt) <= 1e-12 * self.dt
            and self.n_steps == other.n_steps
        )


def trapezoid_weights(n, h, start=0):
    """Composite trapezoid weights for ``n`` equidistant nodes of spacing ``h``.

    Only the weights of nodes ``start``..n-1 are built and returned.  A
    single node gets weight zero (empty interval).
    """
    if n < 1:
        raise ValueError("need at least one node")
    w = np.full(n - start, h)
    if n == 1:
        w[0] = 0.0
    else:
        if start == 0:
            w[0] = 0.5 * h
        w[-1] = 0.5 * h
    return w


# Cubic Lagrange stencils on four consecutive nodes, evaluated half a step
# past the second node (interior) or half a step past the first/last node
# (one-sided ends).  Exact for cubics, so the error is O(h^4).
_MID_INTERIOR = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_RIGHT = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0

# nodes per block of a streamed march
_BLOCK = 256

# nodes per step of a block's guard: a full step from every node of a block
# at once would hold several block-sized temporaries
_GUARD = 64


def _stencil(w, rows):
    """The stencil ``w`` on every four consecutive nodes of the stacked
    ``rows`` (rows, nodes, points): one product, (rows, nodes - 3, points).

    Each window is a (4, points) slice with the strides of one contiguous
    row, so every value is bitwise the one-step product
    ``w @ row[i:i + 4]``.
    """
    return np.matmul(w, np.moveaxis(sliding_window_view(rows, 4, axis=1), -1, -2))


def block_half_nodes(blocks, n):
    """Values of coefficient rows at the half-nodes of the refined grid,
    from rows that arrive as node blocks: node j/2 at even j, the
    4th-order midpoint past node (j-1)/2 at odd j.  Grids with fewer
    than four nodes fall back to the two-node average.

    ``blocks`` yields lists of row arrays over consecutive nodes of an
    ``n``-node grid.  Returns ``values(j)``, to be asked in increasing j:
    an array of shape (rows,) + the shape of a row's node.  Only the
    current block and the stencil's older nodes (at most three) are
    held, with the interior midpoints that they allow, all from one
    :func:`_stencil` product per block.
    """
    blocks = iter(blocks)
    held = mids = None  # (rows, nodes, points): nodes base.., midpoints base + 1..
    base, shape = 0, ()

    def pull(last):
        nonlocal held, mids, base, shape
        while held is None or base + held.shape[1] <= last:
            new = next(blocks, None)
            if new is None:
                raise ValueError(f"the coefficient blocks end before node {last}")
            shape = new[0].shape[1:]
            # no stencil to come reaches back past the last three nodes
            keep = 0 if held is None else min(held.shape[1], 3)
            rows = np.empty((len(new), keep + len(new[0]), math.prod(shape)),
                            np.result_type(*new))
            if keep:
                rows[:, :keep] = held[:, -keep:]
                base += held.shape[1] - keep
            for r, b in zip(rows, new):
                r[keep:] = b.reshape(len(b), -1)
            held, mids = rows, None
            if n >= 4 and held.shape[1] >= 4:
                # the interior midpoints end at n - 3
                mids = _stencil(_MID_INTERIOR, held[:, :n - base])

    def values(j):
        k, odd = divmod(j, 2)
        if not odd:
            pull(k)
            v = held[:, k - base]
        elif n < 4:
            pull(k + 1)
            v = 0.5 * (held[:, k - base] + held[:, k + 1 - base])
        elif k == 0:
            pull(3)
            v = _stencil(_MID_LEFT, held[:, :4])[:, 0]
        elif k == n - 2:
            pull(n - 1)
            v = _stencil(_MID_RIGHT, held[:, n - 4 - base:n - base])[:, 0]
        else:
            pull(k + 2)
            v = mids[:, k - 1 - base]
        return v.reshape(len(v), *shape)

    return values


def rk4_step(y, h, f, f_mid=None, f_next=None):
    """One classical Runge-Kutta step of size ``h`` from ``y``.

    ``f``, ``f_mid`` and ``f_next`` are the right-hand sides with their
    stage data taken at the node, the midpoint and the next node; an
    autonomous ``f`` serves all three.
    """
    f_mid = f if f_mid is None else f_mid
    f_next = f if f_next is None else f_next
    k1 = f(y)
    k2 = f_mid(y + 0.5 * h * k1)
    k3 = f_mid(y + 0.5 * h * k2)
    k4 = f_next(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def march_driven(rhs_at, y, grid, visit):
    """RK4 march of ``y`` over ``grid`` with stage data that vary in time.

    ``rhs_at(j)`` is the right-hand side with its data at half-node ``j``
    of ``grid.refine()`` (node k is j = 2k, the midpoint past it 2k + 1);
    it is built once per half-node, in increasing j, and each node's
    serves the steps on both sides of it.  ``visit(k, y)`` sees the state
    at every node k = 0..n_steps once, in order, before the march goes
    on.  Returns the state at the last node.
    """
    visit(0, y)
    f_next = rhs_at(0)
    for k in range(grid.n_steps):
        f_mid = rhs_at(2 * k + 1)
        f_node, f_next = f_next, rhs_at(2 * k + 2)
        y = rk4_step(y, grid.dt, f_node, f_mid, f_next)
        visit(k + 1, y)
    return y


def _refused(Y, dt, rhs):
    """Per step of the states ``Y``: whether one full step from its first
    node misses the kept state by more than 1e-2 of the state scale."""
    err = np.abs(rk4_step(Y[:-1], dt, rhs) - Y[1:]).max(axis=1)
    scale = np.maximum(1.0, np.abs(Y[1:]).max(axis=1))
    bad = ~np.isfinite(err) | (err > 1e-2 * scale)
    return bad.any(axis=tuple(range(1, bad.ndim)))


def doubled_blocks(rhs, y0, grid, what):
    """March the autonomous ``rhs`` over ``grid`` with step doubling,
    yielding the states in blocks of ``_BLOCK`` consecutive nodes.

    Each step is taken twice (one full, two halves) and the finer result
    is kept.  The march stops with :class:`NumericalFailure`, naming
    ``what`` and the time of the first failing step, once the two differ
    by more than 1e-2 of the state scale.  The guard reduces over the
    state's leading axis only, so each point of a trailing point axis
    (the closed OU march always has one) is held to its own scale.

    The fine steps of a block are taken first; its guard is then one
    full step from every fine node of ``_GUARD`` nodes at once, so
    ``rhs`` must broadcast over a leading node axis.  The first block
    starts at node 0; each block is a new (nodes,) + y0.shape array.
    """
    dt, n = grid.dt, grid.n_points
    y = np.asarray(y0, dtype=complex)
    for lo in range(0, n, _BLOCK):
        first = max(lo, 1)  # the first node a step of this block reaches
        Y = np.empty((min(lo + _BLOCK, n) - first + 1,) + y.shape, dtype=complex)
        Y[0] = y
        # a failing step may overflow the rest of its block: it is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, len(Y)):
                Y[i] = rk4_step(rk4_step(Y[i - 1], 0.5 * dt, rhs), 0.5 * dt, rhs)
            bad = np.zeros(len(Y) - 1, dtype=bool)
            for i in range(0, len(bad), _GUARD):
                bad[i:i + _GUARD] = _refused(Y[i:i + _GUARD + 1], dt, rhs)
        if bad.any():
            raise NumericalFailure(
                f"{what} is stiff at t={dt * (first + int(np.argmax(bad))):.3f} "
                "for this step size; refine dt"
            )
        y = Y[-1].copy()
        yield Y if lo == 0 else Y[1:]


def march_doubled(rhs, y0, grid, what):
    """The blocks of :func:`doubled_blocks`, joined: the states stacked
    along a leading time axis."""
    return np.concatenate(list(doubled_blocks(rhs, y0, grid, what)))
