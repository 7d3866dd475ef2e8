"""Lithography physics substrate: mask → optics → exposure → PEB → develop.

This package is the "rigorous simulator" side of the reproduction — the
ground-truth generator standing in for Synopsys S-Litho, plus the
development/profile chain used to evaluate CDs.
"""

from .mask import (
    Contact, MaskClip, generate_clip, generate_library, generate_line_space_clip,
    rasterize,
)
from .optics import (
    aerial_image_stack, source_points, pupil_cutoff, depth_positions,
    standing_wave_factor, depth_modulation,
)
from .exposure import initial_photoacid
from .dct import LateralDiffusionPropagator, lateral_step_fdm, neumann_laplacian_eigenvalues
from .peb import RigorousPEBSolver, PEBResult, catalysis_step, neutralization_step
from .develop import development_rate, mack_a
from .eikonal import fast_marching, fast_iterative, godunov_update
from .profile import (
    development_arrival, resist_mask, measure_cd, measure_edges, contact_cds,
    cd_error_rms,
)
from .surface import height_map, export_obj
from .opc import OPCResult, RigorousPEBBackend, calibrate_mask_bias
from .metrology import (
    EdgePlacement, ProfileReport, edge_placement_error, cd_uniformity,
    sidewall_angle, resist_loss, developed_fraction_by_depth, profile_report,
)

__all__ = [
    "Contact", "MaskClip", "generate_clip", "generate_library",
    "generate_line_space_clip", "rasterize",
    "aerial_image_stack", "source_points", "pupil_cutoff", "depth_positions",
    "standing_wave_factor", "depth_modulation",
    "initial_photoacid",
    "LateralDiffusionPropagator", "lateral_step_fdm", "neumann_laplacian_eigenvalues",
    "RigorousPEBSolver", "PEBResult", "catalysis_step", "neutralization_step",
    "development_rate", "mack_a",
    "fast_marching", "fast_iterative", "godunov_update",
    "development_arrival", "resist_mask", "measure_cd", "measure_edges",
    "contact_cds", "cd_error_rms",
    "height_map", "export_obj",
    "OPCResult", "RigorousPEBBackend", "calibrate_mask_bias",
    "EdgePlacement", "ProfileReport", "edge_placement_error", "cd_uniformity",
    "sidewall_angle", "resist_loss", "developed_fraction_by_depth", "profile_report",
]
