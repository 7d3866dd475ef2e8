"""Spectral (DCT) and finite-difference lateral diffusion operators.

The PEB reaction-diffusion system uses zero-flux (Neumann) boundary
conditions in x-y (Eq. 4 of the paper).  The Neumann Laplacian is
diagonalized by the type-II discrete cosine transform, so lateral
diffusion over a time step can be integrated *exactly* (at the level of
the spatial discretization) — this is the default "rigorous"
integrator.  The 2-D decay factor ``exp(dt D (lam_y + lam_x))`` is a
product of per-axis factors, so the step is one dense matrix per axis,
``P = C^T diag(exp(dt D lam)) C`` with ``C`` the orthonormal DCT-II
matrix, applied as ``P_y @ field @ P_x^T``: the same operator as a DCT
round trip, at the cost of two small matmuls.  An explicit-Euler
finite-difference step is kept for the solver-mode ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.config import GridConfig


def neumann_laplacian_eigenvalues(n: int, spacing: float) -> np.ndarray:
    """Eigenvalues of the 1D Neumann (zero-flux) discrete Laplacian.

    Under DCT-II, the standard 3-point Laplacian with mirrored boundaries
    has eigenvalues ``-4 sin^2(pi k / 2n) / h^2``.
    """
    k = np.arange(n)
    return -4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2 / spacing ** 2


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix ``C`` (``C @ u`` is the transform of ``u``).

    Row ``k`` is the k-th Neumann-Laplacian eigenvector
    ``cos(pi k (2i + 1) / 2n)``, normalized.  The phase is reduced modulo
    ``4n`` in integers first, so every entry is accurate to an ulp.
    """
    k = np.arange(n)
    phase = np.outer(k, 2 * k + 1) % (4 * n)
    matrix = np.cos(np.pi * phase / (2.0 * n)) * np.sqrt(2.0 / n)
    matrix[0] /= np.sqrt(2.0)
    return matrix


def _axis_propagator(n: int, spacing: float, diffusivity: float, dt: float) -> np.ndarray:
    """Exact diffusion step along one axis: ``C^T diag(exp(dt D lam)) C``."""
    basis = dct_matrix(n)
    decay = np.exp(dt * diffusivity * neumann_laplacian_eigenvalues(n, spacing))
    return (basis.T * decay) @ basis


class LateralDiffusionPropagator:
    """Exact integrator of lateral diffusion on a (nz, ny, nx) field."""

    def __init__(self, grid: GridConfig, diffusivity: float, dt: float):
        self.grid = grid
        self.diffusivity = diffusivity
        self.dt = dt
        self._step_y = _axis_propagator(grid.ny, grid.dy_nm, diffusivity, dt)
        self._step_x = _axis_propagator(grid.nx, grid.dx_nm, diffusivity, dt)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Advance the field by one time step (axes (1, 2) are y, x).

        numpy runs one product per z slice; up to 64×64 slices each stays
        under OpenBLAS's threading threshold.
        """
        return self._step_y @ (field @ self._step_x.T)


def lateral_step_fdm(field: np.ndarray, diffusivity: float, dt: float,
                     dx: float, dy: float) -> np.ndarray:
    """One explicit-Euler lateral diffusion step with zero-flux boundaries.

    Stability requires ``dt * D * (1/dx^2 + 1/dy^2) <= 1/2``.
    """
    padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge")
    lap = (
        (padded[:, 2:, 1:-1] - 2.0 * field + padded[:, :-2, 1:-1]) / dy ** 2
        + (padded[:, 1:-1, 2:] - 2.0 * field + padded[:, 1:-1, :-2]) / dx ** 2
    )
    return field + dt * diffusivity * lap
