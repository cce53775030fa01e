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
    "march_driven",
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


def half_node_values(rows, j):
    """Values of each coefficient row at half-node ``j`` of the refined
    grid: node j/2 at even j, the 4th-order midpoint past node (j-1)/2 at
    odd j, one step's stencil at a time.

    Grids with fewer than four nodes fall back to the two-node average.
    """
    k, odd = divmod(j, 2)
    if not odd:
        return [r[k] for r in rows]
    n = rows[0].shape[0]
    if n < 4:
        return [0.5 * (r[k] + r[k + 1]) for r in rows]
    w = _MID_LEFT if k == 0 else _MID_RIGHT if k == n - 2 else _MID_INTERIOR
    i = min(max(k - 1, 0), n - 4)
    return [w @ r[i : i + 4] for r in rows]


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
    each node's serves the steps on both sides of it.  ``visit(k, y)``
    sees the state at every node k = 0..n_steps once, in order, before
    the march goes on.  Returns the state at the last node.
    """
    visit(0, y)
    f_next = rhs_at(0)
    for k in range(grid.n_steps):
        f_node, f_next = f_next, rhs_at(2 * k + 2)
        y = rk4_step(y, grid.dt, f_node, rhs_at(2 * k + 1), f_next)
        visit(k + 1, y)
    return y


def march_doubled(rhs, y0, grid, what):
    """March the autonomous ``rhs`` over ``grid`` with step doubling.

    Each step is taken twice (one full, two halves) and the finer result
    is kept.  The march stops with :class:`NumericalFailure`, naming
    ``what``, once the two differ by more than 1e-2 of the state scale.
    The guard reduces over the leading axis only, so each point of a
    trailing point axis (the closed OU march always has one) is held to
    its own scale.  Returns the states stacked along a leading time axis.
    """
    dt = grid.dt
    y = np.asarray(y0, dtype=complex)
    out = np.empty((grid.n_points,) + y.shape, dtype=complex)
    out[0] = y
    for kk in range(grid.n_steps):
        coarse = rk4_step(y, dt, rhs)
        y = rk4_step(rk4_step(y, 0.5 * dt, rhs), 0.5 * dt, rhs)
        err = np.abs(coarse - y).max(axis=0)
        scale = np.maximum(1.0, np.abs(y).max(axis=0))
        if not np.all(np.isfinite(err)) or np.any(err > 1e-2 * scale):
            raise NumericalFailure(
                f"{what} is stiff at t={dt * (kk + 1):.3f} "
                "for this step size; refine dt"
            )
        out[kk + 1] = y
    return out

