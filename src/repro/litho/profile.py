"""Resist profile extraction and critical-dimension measurement.

Chains the development-rate model and the Eikonal solver into the
quantities the paper evaluates: the developed resist profile and the
per-contact CDs in x and y (Eq. 14), measured with sub-pixel linear
interpolation of the development-front arrival time.
"""

from __future__ import annotations

import numpy as np

from repro.config import DevelopConfig, GridConfig
from .develop import development_rate
from .eikonal import fast_iterative
from .mask import Contact


def development_arrival(inhibitor: np.ndarray, grid: GridConfig,
                        develop: DevelopConfig) -> np.ndarray:
    """Arrival time (s) of the development front at every voxel.

    Solved by :func:`repro.litho.eikonal.fast_iterative` from the Mack
    rate of ``inhibitor``.
    """
    rate = development_rate(inhibitor, develop)
    slowness = 1.0 / rate
    spacing = (grid.dz_nm, grid.dy_nm, grid.dx_nm)
    return fast_iterative(slowness, spacing)


def resist_mask(arrival: np.ndarray, develop: DevelopConfig) -> np.ndarray:
    """Boolean volume: True where resist remains after development."""
    return arrival > develop.duration_s


def _crossing(position_dev: float, position_undev: float,
              time_dev: float, time_undev: float, threshold: float) -> float:
    """Linear interpolation of the threshold crossing between two samples."""
    if time_undev == time_dev:
        return position_dev
    fraction = (threshold - time_dev) / (time_undev - time_dev)
    return position_dev + fraction * (position_undev - position_dev)


def measure_edges(arrival: np.ndarray, contact: Contact, grid: GridConfig,
                  develop: DevelopConfig, axis: str,
                  z_index: int | None = None) -> tuple[float, float] | None:
    """Sub-pixel printed-edge positions of one contact along ``axis``.

    Returns ``(low_edge_nm, high_edge_nm)`` of the developed opening
    along a line through the contact centre at depth ``z_index``
    (default: resist bottom), or None if the contact failed to open.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    z = arrival.shape[0] - 1 if z_index is None else z_index
    threshold = develop.duration_s
    if axis == "x":
        pitch = grid.dx_nm
        center_along = contact.center_x_nm
        row_index = int(np.clip(contact.center_y_nm / grid.dy_nm - 0.5, 0, grid.ny - 1))
        line = arrival[z, row_index, :]
    else:
        pitch = grid.dy_nm
        center_along = contact.center_y_nm
        col_index = int(np.clip(contact.center_x_nm / grid.dx_nm - 0.5, 0, grid.nx - 1))
        line = arrival[z, :, col_index]
    center_index = int(np.clip(center_along / pitch - 0.5, 0, line.size - 1))
    if line[center_index] > threshold:
        return None
    positions = (np.arange(line.size) + 0.5) * pitch
    # Walk outward to the first undeveloped sample on each side.
    left = center_index
    while left - 1 >= 0 and line[left - 1] <= threshold:
        left -= 1
    right = center_index
    while right + 1 < line.size and line[right + 1] <= threshold:
        right += 1
    if left == 0:
        edge_left = positions[0] - pitch / 2.0
    else:
        edge_left = _crossing(positions[left], positions[left - 1],
                              line[left], line[left - 1], threshold)
    if right == line.size - 1:
        edge_right = positions[-1] + pitch / 2.0
    else:
        edge_right = _crossing(positions[right], positions[right + 1],
                               line[right], line[right + 1], threshold)
    return (float(edge_left), float(edge_right))


def measure_cd(arrival: np.ndarray, contact: Contact, grid: GridConfig,
               develop: DevelopConfig, axis: str, z_index: int | None = None) -> float:
    """Measure one contact's printed CD along ``axis`` ('x' or 'y'), in nm.

    The CD is the width of the developed (removed) region along a line
    through the contact centre at depth ``z_index`` (default: resist
    bottom, i.e. the printed contact opening).  Returns 0.0 for a
    contact that failed to open at that depth.
    """
    edges = measure_edges(arrival, contact, grid, develop, axis, z_index)
    if edges is None:
        return 0.0
    return edges[1] - edges[0]


def contact_cds(arrival: np.ndarray, contacts, grid: GridConfig,
                develop: DevelopConfig, z_index: int | None = None) -> dict[str, np.ndarray]:
    """CDs for every contact: dict with 'x' and 'y' arrays in nm."""
    cds_x = np.array([measure_cd(arrival, c, grid, develop, "x", z_index) for c in contacts])
    cds_y = np.array([measure_cd(arrival, c, grid, develop, "y", z_index) for c in contacts])
    return {"x": cds_x, "y": cds_y}


def cd_error_rms(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square CD error (Eq. 14) over contacts, in nm."""
    predicted = np.asarray(predicted, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if predicted.shape != reference.shape:
        raise ValueError("CD arrays must have matching shapes")
    if predicted.size == 0:
        raise ValueError("no contacts to evaluate")
    return float(np.sqrt(np.mean((predicted - reference) ** 2)))
