"""3D Eikonal solvers for development-front propagation.

The resist profile after development is the level set of the arrival
time S solving |∇S| = 1/R (Section II-A of the paper, citing the fast
iterative method of Jeong & Whitaker [31]).  Two solvers are provided:

* :func:`fast_iterative` — vectorized Jacobi iterations of the Godunov
  upwind update to a fixed point, each sweep restricted to the voxels
  next to the moving front; the one :mod:`repro.litho.profile` runs.
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
    if not np.all(slowness > 0):   # NaN fails the comparison too
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


def _stable_axis_orders() -> np.ndarray:
    """Row ``code``: the axes (0 z, 1 y, 2 x) in sorted order of their times.

    ``code`` packs a voxel's three comparisons z > y, z > x and y > x as
    bits 0-2.  A tie keeps the z, y, x order, as a stable argsort does;
    codes 2 and 5 are cyclic, so they never occur.
    """
    orders = np.zeros((8, 3), dtype=np.intp)
    for code in range(8):
        z_y, z_x, y_x = code & 1, code >> 1 & 1, code >> 2 & 1
        orders[code] = np.argsort([z_y + z_x, 1 - z_y + y_x, 2 - z_x - y_x], kind="stable")
    return orders


_AXIS_ORDERS = _stable_axis_orders()


def _godunov_front(axis_minima: list[np.ndarray], spacings: np.ndarray,
                   slowness: np.ndarray) -> np.ndarray:
    """:func:`godunov_update` of a set of voxels at once.

    ``axis_minima`` holds per axis (z, y, x) the smaller of each voxel's
    two neighbour times, ``slowness`` the voxels' own.  Three comparisons
    give each voxel the stable order of its axes and min/max the sorted
    times; the quadratic then grows one axis at a time in that order, and
    an axis that does not improve the root is subtracted back out.  Each
    voxel with a finite neighbour goes through one fixed sequence of
    float operations, so its result does not depend on which other
    voxels are updated with it; one without stays at INFINITY.
    """
    a_z, a_y, a_x = axis_minima
    code = ((a_z > a_y).view(np.int8) + 2 * (a_z > a_x).view(np.int8)
            + 4 * (a_y > a_x).view(np.int8)).astype(np.intp)
    low, high = np.minimum(a_z, a_y), np.maximum(a_z, a_y)
    a = (np.minimum(low, a_x), np.maximum(low, np.minimum(high, a_x)), np.maximum(high, a_x))
    inv_spacing2 = 1.0 / spacings ** 2
    inv_h2 = [inv_spacing2[_AXIS_ORDERS[:, m]][code] for m in range(3)]
    with np.errstate(invalid="ignore"):
        solution = a[0] + slowness * spacings[_AXIS_ORDERS[:, 0]][code]
        alpha = inv_h2[0]
        beta = -2.0 * a[0] * inv_h2[0]
        gamma = a[0] ** 2 * inv_h2[0] - slowness ** 2
        for m in (1, 2):
            use = np.isfinite(a[m]) & (solution > a[m])
            d_alpha = np.where(use, inv_h2[m], 0.0)
            d_beta = np.where(use, -2.0 * a[m] * inv_h2[m], 0.0)
            d_gamma = np.where(use, a[m] ** 2 * inv_h2[m], 0.0)
            alpha, beta, gamma = alpha + d_alpha, beta + d_beta, gamma + d_gamma
            disc = beta ** 2 - 4.0 * alpha * gamma
            candidate = (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha)
            improved = use & (disc >= 0.0) & (candidate >= a[m])
            solution = np.where(improved, candidate, solution)
            if m == 1:
                # the last axis builds on these: take back a rejected one
                rollback = use & ~improved
                alpha = alpha - np.where(rollback, d_alpha, 0.0)
                beta = beta - np.where(rollback, d_beta, 0.0)
                gamma = gamma - np.where(rollback, d_gamma, 0.0)
    return solution


def fast_iterative(slowness: np.ndarray, spacing: tuple[float, float, float],
                   tolerance: float = 1e-9, max_iterations: int | None = None) -> np.ndarray:
    """Jacobi fast-iterative Eikonal solve (Jeong & Whitaker style) on the front.

    Each sweep computes the Godunov update of every voxel from the
    previous sweep's arrival times, then writes them all, until the
    largest decrease falls below ``tolerance`` and every voxel has been
    reached.  A voxel none of whose six neighbours changed in the last
    sweep would only recompute the time it holds, so a sweep updates
    just the active set: the neighbours of the voxels whose time fell
    (the first sweep: the top two layers, the only voxels with a finite
    neighbour).  The sweeps, the stopping sweep and the result are those
    of the whole-grid iteration, bitwise; the work follows the moving
    front.  Converges in roughly the number of cells the front traverses
    along its longest causal path.
    """
    if not np.all(slowness > 0):   # NaN fails the comparison too
        raise ValueError("slowness must be strictly positive")
    if max_iterations is None:
        max_iterations = 4 * sum(slowness.shape)
    nz, ny, nx = slowness.shape
    spacings = np.asarray(spacing, dtype=np.float64)
    # flat views of the grid padded by one voxel of INFINITY on every side,
    # so each voxel's six neighbours sit at fixed offsets
    initial = initial_arrival(slowness, spacing)
    times = np.pad(initial, 1, constant_values=INFINITY).ravel()
    padded_slowness = np.pad(slowness, 1).ravel()  # the border is never active
    interior = np.pad(np.ones(slowness.shape, dtype=bool), 1).ravel()
    strides = ((ny + 2) * (nx + 2), nx + 2, 1)
    unreached = int(np.count_nonzero(np.isinf(initial)))
    marked = np.zeros((nz + 2, ny + 2, nx + 2), dtype=bool)
    marked[1:min(nz, 2) + 1, 1:-1, 1:-1] = True
    active = np.flatnonzero(marked)
    marked = marked.ravel()
    for _ in range(max_iterations):
        old = times[active]
        axis_minima = [np.minimum(times[active + stride], times[active - stride])
                       for stride in strides]
        new = np.minimum(old, _godunov_front(axis_minima, spacings, padded_slowness[active]))
        with np.errstate(invalid="ignore"):
            change = old - new
        # the largest finite decrease; a voxel outside the active set changed by 0
        largest = np.max(change, where=np.isfinite(change), initial=0.0)
        unreached -= int(np.count_nonzero(np.isinf(old) & ~np.isinf(new)))
        fell = new < old
        changed = active[fell]
        times[changed] = new[fell]
        if largest < tolerance and unreached == 0:
            break
        if changed.size == 0:
            break  # every later sweep would change nothing either
        marked[:] = False
        for stride in strides:
            marked[changed + stride] = True
            marked[changed - stride] = True
        active = np.flatnonzero(marked & interior)
    return times.reshape(nz + 2, ny + 2, nx + 2)[1:-1, 1:-1, 1:-1].copy()
