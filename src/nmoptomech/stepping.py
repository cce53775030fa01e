"""Uniform time grids and small stencil helpers shared by the integrators.

Every solver in this package marches on the same uniform grid with a
classical fourth-order Runge-Kutta step.  The helpers here keep that step,
the grid bookkeeping, the trapezoidal quadrature weights, and the
half-node stencil in one place so that all modules discretize identically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "TimeGrid",
    "trapezoid_weights",
    "half_node_values",
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


def _half_node(nodes, n, j):
    """Half-node ``j`` of an ``n``-node grid from ``nodes(lo, hi)``, the
    rows of nodes lo..hi-1."""
    k, odd = divmod(j, 2)
    if not odd:
        return [r[0] for r in nodes(k, k + 1)]
    if n < 4:
        return [0.5 * (r[0] + r[1]) for r in nodes(k, k + 2)]
    w = _MID_LEFT if k == 0 else _MID_RIGHT if k == n - 2 else _MID_INTERIOR
    i = min(max(k - 1, 0), n - 4)
    return [w @ r for r in nodes(i, i + 4)]


def half_node_values(rows, j):
    """Values of each coefficient row at half-node ``j`` of the refined
    grid: node j/2 at even j, the 4th-order midpoint past node (j-1)/2 at
    odd j, one step's stencil at a time.

    Grids with fewer than four nodes fall back to the two-node average.
    """
    return _half_node(lambda lo, hi: [r[lo:hi] for r in rows], rows[0].shape[0], j)


def block_half_nodes(blocks, n):
    """:func:`half_node_values` of rows that arrive as node blocks.

    ``blocks`` yields lists of row arrays over consecutive nodes of an
    ``n``-node grid.  Returns ``values(j)``, to be asked in increasing j:
    only the current block and the stencil's older nodes (at most three)
    are held.
    """
    blocks = iter(blocks)
    held, base = None, 0

    def nodes(lo, hi):
        nonlocal held, base
        while held is None or base + len(held[0]) < hi:
            new = next(blocks, None)
            if new is None:
                raise ValueError(f"the coefficient blocks end before node {hi - 1}")
            if held is None:
                held = list(new)
            else:
                # no stencil to come reaches back past node hi - 4
                keep = min(max(hi - 4, base), base + len(held[0]))
                held = [np.concatenate([r[keep - base:], b]) for r, b in zip(held, new)]
                base = keep
        return [r[lo - base:hi - base] for r in held]

    return lambda j: _half_node(nodes, n, j)


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
