"""3D Eikonal solvers for development-front propagation.

The resist profile after development is the level set of the arrival
time S solving |∇S| = 1/R (Section II-A of the paper, citing the fast
iterative method of Jeong & Whitaker [31]).  Two solvers are provided:

* :func:`fast_iterative` — vectorized Jacobi iterations of the Godunov
  upwind update to a fixed point; the one :mod:`repro.litho.profile`
  runs.
* :func:`fast_marching` — heap-ordered Dijkstra-like solver with the
  same update, one node at a time; the reference the fast one is
  checked against.

Both support anisotropic grid spacing (dz differs from dx/dy here).
The development front enters from the resist top surface (z index 0).
"""

from __future__ import annotations

import heapq

import numpy as np

INFINITY = np.inf


def godunov_update(neighbors: list[tuple[float, float]], slowness: float) -> float:
    """Solve the Godunov upwind quadratic at one node.

    ``neighbors`` holds (value, spacing) pairs — the smaller of the two
    axis neighbours per axis (INFINITY if none).  Solves

        sum_i max((u - a_i) / h_i, 0)^2 = f^2

    by adding candidate axes in increasing a_i order.
    """
    terms = sorted((a, h) for a, h in neighbors if np.isfinite(a))
    if not terms:
        return INFINITY
    u = terms[0][0] + slowness * terms[0][1]
    for count in range(2, len(terms) + 1):
        if u <= terms[count - 1][0]:
            break
        # solve sum_{i<count} ((u - a_i)/h_i)^2 = f^2
        inv_h2 = np.array([1.0 / h ** 2 for _, h in terms[:count]])
        a_vals = np.array([a for a, _ in terms[:count]])
        alpha = inv_h2.sum()
        beta = -2.0 * (a_vals * inv_h2).sum()
        gamma = (a_vals ** 2 * inv_h2).sum() - slowness ** 2
        disc = beta ** 2 - 4.0 * alpha * gamma
        if disc < 0:
            break
        candidate = (-beta + np.sqrt(disc)) / (2.0 * alpha)
        if candidate >= terms[count - 1][0]:
            u = candidate
        else:
            break
    return u


def _axis_neighbors(times: np.ndarray, index: tuple[int, int, int],
                    spacing: tuple[float, float, float]) -> list[tuple[float, float]]:
    neighbors = []
    for axis in range(3):
        best = INFINITY
        for delta in (-1, 1):
            probe = list(index)
            probe[axis] += delta
            if 0 <= probe[axis] < times.shape[axis]:
                best = min(best, times[tuple(probe)])
        neighbors.append((best, spacing[axis]))
    return neighbors


def initial_arrival(slowness: np.ndarray, spacing: tuple[float, float, float]) -> np.ndarray:
    """Seed arrival times: the front has traversed the top cell layer."""
    times = np.full(slowness.shape, INFINITY, dtype=np.float64)
    times[0] = slowness[0] * spacing[0]
    return times


def fast_marching(slowness: np.ndarray, spacing: tuple[float, float, float]) -> np.ndarray:
    """Heap-ordered Eikonal solve; returns arrival times (same shape)."""
    if np.any(slowness <= 0):
        raise ValueError("slowness must be strictly positive")
    times = initial_arrival(slowness, spacing)
    nz, ny, nx = slowness.shape
    known = np.zeros(slowness.shape, dtype=bool)
    heap: list[tuple[float, tuple[int, int, int]]] = []
    for iy in range(ny):
        for ix in range(nx):
            heapq.heappush(heap, (times[0, iy, ix], (0, iy, ix)))
    offsets = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    while heap:
        value, index = heapq.heappop(heap)
        if known[index] or value > times[index]:
            continue
        known[index] = True
        for dz, dy, dx in offsets:
            neighbor = (index[0] + dz, index[1] + dy, index[2] + dx)
            if not (0 <= neighbor[0] < nz and 0 <= neighbor[1] < ny and 0 <= neighbor[2] < nx):
                continue
            if known[neighbor]:
                continue
            updated = godunov_update(_axis_neighbors(times, neighbor, spacing), slowness[neighbor])
            if updated < times[neighbor]:
                times[neighbor] = updated
                heapq.heappush(heap, (updated, neighbor))
    return times


def _godunov_vectorized(axis_minima: np.ndarray, spacings: np.ndarray,
                        slowness: np.ndarray) -> np.ndarray:
    """Vectorized Godunov update over the whole grid.

    ``axis_minima`` is (3, ...) — per axis, the smaller of the two
    neighbour arrival times; ``spacings`` is (3,).  Implements the same
    progressive quadratic as :func:`godunov_update` with numpy
    broadcasting.
    """
    h = np.broadcast_to(spacings.reshape(3, *([1] * (axis_minima.ndim - 1))), axis_minima.shape)
    order = np.argsort(axis_minima, axis=0)
    a = np.take_along_axis(axis_minima, order, axis=0)
    h = np.take_along_axis(h, order, axis=0)
    with np.errstate(invalid="ignore"):
        solution = a[0] + slowness * h[0]
        inv_h2 = np.zeros_like(a)
        np.divide(1.0, h ** 2, out=inv_h2, where=np.isfinite(a))
        alpha = inv_h2[0].copy()
        beta = np.where(np.isfinite(a[0]), -2.0 * a[0] * inv_h2[0], 0.0)
        gamma = np.where(np.isfinite(a[0]), a[0] ** 2 * inv_h2[0], 0.0) - slowness ** 2
        for m in (1, 2):
            use = np.isfinite(a[m]) & (solution > a[m])
            alpha = alpha + np.where(use, inv_h2[m], 0.0)
            beta = beta + np.where(use, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma + np.where(use, a[m] ** 2 * inv_h2[m], 0.0)
            disc = beta ** 2 - 4.0 * alpha * gamma
            valid = use & (disc >= 0.0)
            candidate = np.where(valid, (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha), np.inf)
            improved = valid & (candidate >= a[m])
            solution = np.where(improved, candidate, solution)
            # roll back coefficients where the extra axis was rejected
            rollback = use & ~improved
            alpha = alpha - np.where(rollback, inv_h2[m], 0.0)
            beta = beta - np.where(rollback, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma - np.where(rollback, a[m] ** 2 * inv_h2[m], 0.0)
    return solution


def _axis_minima_grid(times: np.ndarray) -> np.ndarray:
    """Per-axis smaller neighbour value, INFINITY at the border."""
    minima = np.empty((3,) + times.shape, dtype=np.float64)
    for axis in range(3):
        forward = np.full_like(times, INFINITY)
        backward = np.full_like(times, INFINITY)
        front = [slice(None)] * 3
        back = [slice(None)] * 3
        front[axis] = slice(1, None)
        back[axis] = slice(None, -1)
        forward[tuple(back)] = times[tuple(front)]
        backward[tuple(front)] = times[tuple(back)]
        minima[axis] = np.minimum(forward, backward)
    return minima


def fast_iterative(slowness: np.ndarray, spacing: tuple[float, float, float],
                   tolerance: float = 1e-9, max_iterations: int | None = None) -> np.ndarray:
    """Vectorized Jacobi fast-iterative Eikonal solve (Jeong & Whitaker style).

    Updates every node simultaneously from its neighbours' current
    values and iterates to a fixed point.  Converges in roughly the
    number of grid cells the front traverses along its longest causal
    path; each iteration is a handful of whole-array numpy operations,
    so this is the fast default for large grids.
    """
    if np.any(slowness <= 0):
        raise ValueError("slowness must be strictly positive")
    times = initial_arrival(slowness, spacing)
    spacings = np.asarray(spacing, dtype=np.float64)
    if max_iterations is None:
        max_iterations = 4 * sum(slowness.shape)
    for _ in range(max_iterations):
        updated = _godunov_vectorized(_axis_minima_grid(times), spacings, slowness)
        new_times = np.minimum(times, updated)
        with np.errstate(invalid="ignore"):
            change = times - new_times
        finite_change = change[np.isfinite(change)]
        times = new_times
        if finite_change.size == 0 or finite_change.max() < tolerance:
            if not np.any(np.isinf(new_times)):
                break
    return times
