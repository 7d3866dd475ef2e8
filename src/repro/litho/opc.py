"""Rule-based OPC: per-contact mask bias calibration.

The paper motivates fast PEB surrogates with design-loop integration
(Section I).  This module closes that loop: iteratively resize each
mask contact so its *printed* CD converges to the design target, with
the PEB step computed either by the rigorous solver or by any trained
surrogate (:class:`repro.litho.ilt.DifferentiableSurrogateBackend`) —
the surrogate makes the loop cheap, which is exactly the acceleration
story of the paper.

The controller is a damped proportional update on each contact's mask
bias, the standard rule-based OPC baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.config import LithoConfig
from .mask import MaskClip, rasterize
from .optics import aerial_image_stack
from .exposure import initial_photoacid
from .peb import RigorousPEBSolver
from .profile import contact_cds, development_arrival


class RigorousPEBBackend:
    """PEB via the reaction-diffusion solver (slow, exact)."""

    def __init__(self, config: LithoConfig, time_step_s: float = 0.5,
                 splitting: str = "strang"):
        self.config = config
        self._solver = RigorousPEBSolver(config.grid, config.peb,
                                         splitting=splitting, time_step_s=time_step_s)

    def inhibitor(self, acid: np.ndarray) -> np.ndarray:
        return self._solver.solve(acid).inhibitor


@dataclass
class OPCResult:
    """Outcome of a mask-bias calibration run."""

    clip: MaskClip                     # the corrected mask
    biases_nm: np.ndarray              # final per-contact bias (applied to both axes)
    cd_errors_nm: list[np.ndarray]     # per-iteration signed CD error (x+y mean)
    iterations: int

    @property
    def initial_rms_nm(self) -> float:
        return float(np.sqrt(np.mean(self.cd_errors_nm[0] ** 2)))

    @property
    def final_rms_nm(self) -> float:
        return float(np.sqrt(np.mean(self.cd_errors_nm[-1] ** 2)))


def _printed_cds(contacts, config: LithoConfig, backend) -> dict[str, np.ndarray]:
    pattern = rasterize(contacts, config.grid)
    aerial = aerial_image_stack(pattern, config.grid, config.optics)
    acid = initial_photoacid(aerial, config.exposure)
    inhibitor = backend.inhibitor(acid)
    arrival = development_arrival(inhibitor, config.grid, config.develop)
    return contact_cds(arrival, contacts, config.grid, config.develop)


def calibrate_mask_bias(clip: MaskClip, config: LithoConfig, backend,
                        iterations: int = 3, gain: float = 0.7,
                        max_bias_nm: float = 60.0) -> OPCResult:
    """Iteratively bias each contact so printed CD matches design CD.

    Each iteration simulates the current mask, measures per-contact
    printed CDs, and grows/shrinks each contact by
    ``gain * (design - printed)`` (mean of x and y error), clamped to
    ``±max_bias_nm``.  Unopened contacts receive the maximum positive
    step.  Returns the corrected clip and per-iteration error traces.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    targets_x = np.array([c.width_nm for c in clip.contacts])
    targets_y = np.array([c.height_nm for c in clip.contacts])
    biases = np.zeros(len(clip.contacts), dtype=np.float64)
    current = list(clip.contacts)
    errors: list[np.ndarray] = []
    for _ in range(iterations):
        cds = _printed_cds(current, config, backend)
        error_x = cds["x"] - targets_x
        error_y = cds["y"] - targets_y
        mean_error = (error_x + error_y) / 2.0
        closed = cds["x"] <= 0.0
        errors.append(np.where(closed, -targets_x, mean_error))
        step = np.where(closed, max_bias_nm * 0.5, -gain * mean_error)
        biases = np.clip(biases + step, -max_bias_nm, max_bias_nm)
        current = [
            dc_replace(c, width_nm=max(c.width_nm + b, 10.0),
                       height_nm=max(c.height_nm + b, 10.0))
            for c, b in zip(clip.contacts, biases)
        ]
    # Measure the corrected mask so cd_errors_nm[-1] reflects the result.
    final_cds = _printed_cds(current, config, backend)
    final_error = ((final_cds["x"] - targets_x) + (final_cds["y"] - targets_y)) / 2.0
    errors.append(np.where(final_cds["x"] <= 0.0, -targets_x, final_error))
    corrected = MaskClip(pattern=rasterize(current, config.grid),
                         contacts=tuple(current), grid=config.grid,
                         seed=clip.seed, kind=clip.kind)
    return OPCResult(clip=corrected, biases_nm=biases, cd_errors_nm=errors,
                     iterations=iterations)
