"""Differentiable inverse lithography: gradient-based mask-bias OPC.

The perturbation OPC in :mod:`repro.litho.opc` treats the simulator as
a black box and nudges every contact by a damped proportional rule on
its *mean* x/y CD error — one knob per contact, so it can never fix an
x/y asymmetry.  This module instead differentiates straight through
mask rasterization → Abbe optics → Dill exposure → PEB → metrology
using the repro.tensor autograd tape, which makes the per-axis Jacobian
essentially free: a single backward pass yields exact gradients for
independent width *and* height biases of every contact.

Three pieces make the chain differentiable end to end:

* :func:`aerial_image_t` — a custom tensor op whose forward delegates
  to :func:`repro.litho.optics.aerial_image_stack` (bitwise-identical
  intensities) and whose backward applies the analytic adjoint of the
  Abbe sum.  For each source point ``s`` and depth ``k`` the coherent
  image is the linear map ``A = ifft2 ∘ diag(H) ∘ fft2`` with
  ``H = inside · phase``; since ``I = Σ |A p|² · w``, the vjp is
  ``Σ 2 w · Re(ifft2(conj(H) · fft2(g ⊙ A p)))``, recomputing the
  per-source fields in backward so memory stays bounded.
* :func:`rasterize_t` — the anti-aliased rectangle rasterizer of
  :mod:`repro.litho.mask` re-expressed in tensor ops, with the printed
  geometry a differentiable function of per-contact width/height biases
  (bitwise-identical to :func:`repro.litho.mask.rasterize` at any fixed
  bias).
* :func:`soft_contact_cds` — a sigmoid-relaxed CD measurement along the
  same centre-row/column convention :func:`repro.litho.profile.measure_cd`
  uses, so gradients flow where the hard Eikonal metrology cannot.

The soft CD differs from the true (Eikonal) CD by a smooth, slowly
varying offset; :class:`GradientOPC` measures the true CDs once per
iteration (on the inhibitor it already computed — no extra solve) and
retargets the soft loss by that offset, so the optimizer drives the
*true* printed CDs to the design targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro import tensor as T
from repro.config import DevelopConfig, GridConfig, LithoConfig, PEBConfig
from repro.tensor import Tensor

from .exposure import initial_photoacid
from .mask import Contact, MaskClip, rasterize
from .optics import (
    _frequency_grids, aerial_image_stack, depth_modulation, depth_positions,
    pupil_cutoff, source_points,
)
from .profile import contact_cds, development_arrival

__all__ = [
    "aerial_image_t", "rasterize_t", "photoacid_t", "label_to_inhibitor_t",
    "lateral_gaussian_blur_t", "soft_contact_cds",
    "GaussianPEBBackend", "DifferentiableSurrogateBackend",
    "GradientOPCConfig", "GradientOPCResult", "GradientOPC",
    "finite_difference_bias_gradient",
]


# ---------------------------------------------------------------------------
# Differentiable primitives
# ---------------------------------------------------------------------------

def _aerial_vjp(pattern: np.ndarray, grad_intensity: np.ndarray,
                grid: GridConfig, optics) -> np.ndarray:
    """Adjoint of the Abbe sum: d⟨g, I(p)⟩/dp for the (ny, nx) pattern."""
    fx, fy = _frequency_grids(grid)
    cutoff = pupil_cutoff(optics)
    sx, sy = source_points(optics)
    spectrum = np.fft.fft2(pattern)
    defocus = depth_positions(grid) - optics.focus_offset_nm
    wavelength = optics.wavelength_nm / optics.resist_index
    factors = depth_modulation(grid, optics)
    weighted = grad_intensity * factors[:, None, None] * (2.0 / len(sx))
    grad = np.zeros((grid.ny, grid.nx), dtype=np.float64)
    for shift_x, shift_y in zip(sx, sy):
        f_total_sq = (fx + shift_x) ** 2 + (fy + shift_y) ** 2
        inside = f_total_sq <= cutoff ** 2
        filtered = spectrum * inside
        for k, dz in enumerate(defocus):
            phase = np.exp(-1j * np.pi * wavelength * dz * f_total_sq)
            field = np.fft.ifft2(filtered * phase)
            transfer = inside * phase
            grad += np.fft.ifft2(
                np.conj(transfer) * np.fft.fft2(weighted[k] * field)).real
    return grad


def aerial_image_t(pattern: Tensor, grid: GridConfig, optics) -> Tensor:
    """Differentiable aerial image: forward is bitwise `aerial_image_stack`."""
    pattern = T.ensure_tensor(pattern)
    data = aerial_image_stack(pattern.data, grid, optics)

    def vjp(g):
        return _aerial_vjp(pattern.data, g, grid, optics)

    return Tensor.from_op(data, [(pattern, vjp)], op="aerial_image")


def rasterize_t(contacts, bias_x: Tensor, bias_y: Tensor, grid: GridConfig,
                min_cd_nm: float = 10.0) -> Tensor:
    """Differentiable rasterization of biased contacts.

    Contact ``i`` is drawn with width ``max(width + bias_x[i], min_cd)``
    and height ``max(height + bias_y[i], min_cd)`` about its original
    centre; at fixed biases the result is bitwise-identical to
    :func:`repro.litho.mask.rasterize` of the correspondingly resized
    contacts.
    """
    dx, dy = grid.dx_nm, grid.dy_nm
    x_lo = np.arange(grid.nx, dtype=np.float64) * dx
    y_lo = np.arange(grid.ny, dtype=np.float64) * dy
    pattern = Tensor(np.zeros((grid.ny, grid.nx), dtype=np.float64))
    for i, contact in enumerate(contacts):
        width = T.maximum(contact.width_nm + bias_x[i], min_cd_nm)
        height = T.maximum(contact.height_nm + bias_y[i], min_cd_nm)
        half_w = width / 2.0
        half_h = height / 2.0
        x0, x1 = contact.center_x_nm - half_w, contact.center_x_nm + half_w
        y0, y1 = contact.center_y_nm - half_h, contact.center_y_nm + half_h
        cover_x = T.clip(T.minimum(x_lo + dx, x1) - T.maximum(x_lo, x0),
                         0.0, None) / dx
        cover_y = T.clip(T.minimum(y_lo + dy, y1) - T.maximum(y_lo, y0),
                         0.0, None) / dy
        pattern = pattern + (T.reshape(cover_y, (grid.ny, 1))
                             * T.reshape(cover_x, (1, grid.nx)))
    return T.clip(pattern, 0.0, 1.0)


def photoacid_t(aerial: Tensor, exposure) -> Tensor:
    """Differentiable Dill model, bitwise-identical to `initial_photoacid`."""
    return 1.0 - T.exp(aerial * (-exposure.dill_c * exposure.dose_mj_cm2))


def label_to_inhibitor_t(label: Tensor, catalysis_rate: float) -> Tensor:
    """Differentiable ``[I] = exp(-k_c exp(-Y))`` (see repro.core.label)."""
    return T.exp(T.exp(T.neg(label)) * -catalysis_rate)


def lateral_gaussian_blur_t(x: Tensor, grid: GridConfig, sigma_nm: float) -> Tensor:
    """Per-layer FFT Gaussian blur; self-adjoint, so the vjp is the blur."""
    x = T.ensure_tensor(x)
    if sigma_nm <= 0.0:
        return x
    fx, fy = _frequency_grids(grid)
    kernel = np.exp(-2.0 * np.pi ** 2 * sigma_nm ** 2 * (fx ** 2 + fy ** 2))

    def blur(a):
        return np.fft.ifft2(np.fft.fft2(a, axes=(-2, -1)) * kernel,
                            axes=(-2, -1)).real

    return Tensor.from_op(blur(x.data), [(x, blur)], op="gaussian_blur")


def _z_mixing_matrix(grid: GridConfig, sigma_nm: float) -> np.ndarray:
    """Row-normalized Gaussian mixing of depth layers (reflecting edges)."""
    if grid.nz == 1 or sigma_nm <= 0.0:
        return np.eye(grid.nz, dtype=np.float64)
    z = depth_positions(grid)
    weights = np.exp(-0.5 * ((z[:, None] - z[None, :]) / sigma_nm) ** 2)
    return weights / weights.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Differentiable PEB backends
# ---------------------------------------------------------------------------

class GaussianPEBBackend:
    """Analytic, training-free differentiable PEB stand-in.

    Acid diffusion is modelled as a lateral Gaussian blur (σ = the
    acid's lateral diffusion length) plus Gaussian mixing across depth
    layers, and catalyzed deprotection as first-order kinetics over an
    effective catalysis time:  ``[I] = exp(-k_c · t_eff · blurred)``.
    Cheap and deterministic — the backend tests, benchmarks and CI use
    when a trained surrogate would be overkill.
    """

    def __init__(self, config: LithoConfig, effective_time_s: float = 1.3):
        self.config = config
        self.effective_time_s = effective_time_s
        self._z_matrix = _z_mixing_matrix(
            config.grid, config.peb.normal_diffusion_length_acid_nm)

    def inhibitor_t(self, acid: Tensor) -> Tensor:
        peb = self.config.peb
        blurred = lateral_gaussian_blur_t(
            acid, self.config.grid, peb.lateral_diffusion_length_acid_nm)
        mixed = T.einsum("zk,kyx->zyx", Tensor(self._z_matrix), blurred)
        return T.exp(mixed * (-peb.catalysis_rate * self.effective_time_s))

    def inhibitor(self, acid: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.inhibitor_t(Tensor(acid)).data


class DifferentiableSurrogateBackend:
    """A trained surrogate (SDM-PEB or a baseline) as the PEB backend.

    ``inhibitor`` is the model's ``predict_inhibitor``, a no-grad
    forward; rule-based OPC (:func:`repro.litho.opc.calibrate_mask_bias`)
    calls only that.  ``inhibitor_t`` runs the same forward on the tape
    so mask gradients flow through the network weights (which stay
    fixed — only the mask is optimized).
    """

    def __init__(self, model, peb: PEBConfig | None = None):
        self.model = model
        self.catalysis_rate = (peb or PEBConfig()).catalysis_rate

    def inhibitor_t(self, acid: Tensor) -> Tensor:
        label = self.model.forward(T.reshape(acid, (1,) + acid.shape))
        return label_to_inhibitor_t(label[0], self.catalysis_rate)

    def inhibitor(self, acid: np.ndarray) -> np.ndarray:
        return self.model.predict_inhibitor(acid)


# ---------------------------------------------------------------------------
# Soft metrology
# ---------------------------------------------------------------------------

def _center_indices(contact: Contact, grid: GridConfig) -> tuple[int, int]:
    """(row, col) through the contact centre — same convention as
    :func:`repro.litho.profile.measure_edges`."""
    row = int(np.clip(contact.center_y_nm / grid.dy_nm - 0.5, 0, grid.ny - 1))
    col = int(np.clip(contact.center_x_nm / grid.dx_nm - 0.5, 0, grid.nx - 1))
    return row, col


def _axis_window(n: int, pitch_nm: float, center_nm: float,
                 half_width_nm: float) -> np.ndarray:
    positions = (np.arange(n, dtype=np.float64) + 0.5) * pitch_nm
    return (np.abs(positions - center_nm) <= half_width_nm).astype(np.float64)


def soft_contact_cds(inhibitor: Tensor, contacts, grid: GridConfig,
                     develop: DevelopConfig, *,
                     tau: float = 0.05, window_margin_nm: float = 40.0,
                     z_index: int | None = None) -> tuple[Tensor, Tensor]:
    """Differentiable per-contact CDs, as (cds_x, cds_y) tensors in nm.

    Resist develops where the inhibitor falls below the Mack threshold,
    so ``sigmoid((threshold - inhibitor)/tau)`` is a soft printed
    indicator; integrating it along the contact's centre row/column
    (restricted to a window of the design extent plus
    ``window_margin_nm`` so neighbours do not contribute) gives a soft
    CD that tracks the Eikonal measurement up to a smooth offset.
    """
    z = grid.nz - 1 if z_index is None else z_index
    inv_tau = 1.0 / tau
    cds_x, cds_y = [], []
    for contact in contacts:
        row, col = _center_indices(contact, grid)
        line_x = inhibitor[z, row, :]
        line_y = inhibitor[z, :, col]
        window_x = _axis_window(grid.nx, grid.dx_nm, contact.center_x_nm,
                                contact.width_nm / 2.0 + window_margin_nm)
        window_y = _axis_window(grid.ny, grid.dy_nm, contact.center_y_nm,
                                contact.height_nm / 2.0 + window_margin_nm)
        printed_x = T.sigmoid((develop.threshold - line_x) * inv_tau)
        printed_y = T.sigmoid((develop.threshold - line_y) * inv_tau)
        cds_x.append(T.sum_(printed_x * window_x) * grid.dx_nm)
        cds_y.append(T.sum_(printed_y * window_y) * grid.dy_nm)
    return T.stack(cds_x, axis=0), T.stack(cds_y, axis=0)


# ---------------------------------------------------------------------------
# Gradient OPC
# ---------------------------------------------------------------------------

@dataclass
class GradientOPCConfig:
    """Knobs for the gradient mask-bias optimizer."""

    iterations: int = 8                #: optimizer steps (dimensionless count)
    optimizer: str = "gauss-newton"    #: "gauss-newton" or "adam"
    damping: float = 0.7               #: GN step damping (dimensionless)
    learning_rate_nm: float = 4.0
    max_bias_nm: float = 60.0
    max_step_nm: float = 20.0
    min_gain: float = 0.2              #: GN sensitivity clamp, low (dimensionless)
    max_gain: float = 5.0              #: GN sensitivity clamp, high (dimensionless)
    min_cd_nm: float = 10.0
    soft_edge_tau: float = 0.05        #: sigmoid width in inhibitor units
    window_margin_nm: float = 40.0
    asym_damping: float = 0.35         #: extra damping on the x−y channel (dimensionless)
    asym_max_step_nm: float = 3.0
    asym_max_nm: float = 12.0
    offset_clip_nm: float = 25.0
    adam_beta1: float = 0.9            #: Adam first-moment decay (dimensionless)
    adam_beta2: float = 0.999          #: Adam second-moment decay (dimensionless)


@dataclass
class GradientOPCResult:
    """Outcome of a gradient OPC run (per-axis, unlike `OPCResult`)."""

    clip: MaskClip                 # the corrected mask
    bias_x_nm: np.ndarray          # final per-contact width bias
    bias_y_nm: np.ndarray          # final per-contact height bias
    cd_errors_nm: np.ndarray       # final signed per-axis errors, concat(x, y)
    rms_history_nm: np.ndarray     # per-iteration true CD-RMSE trace
    iterations: int
    forward_solves: int

    @property
    def initial_rms_nm(self) -> float:
        return float(self.rms_history_nm[0])

    @property
    def final_rms_nm(self) -> float:
        return float(np.sqrt(np.mean(self.cd_errors_nm ** 2)))


def _axis_errors(cds: dict[str, np.ndarray], targets_x: np.ndarray,
                 targets_y: np.ndarray) -> np.ndarray:
    """Signed per-axis CD errors, concat(x, y); a closed axis counts as
    missing its target entirely (error = -target), matching
    `calibrate_mask_bias`'s convention."""
    err_x = np.where(cds["x"] > 0.0, cds["x"] - targets_x, -targets_x)
    err_y = np.where(cds["y"] > 0.0, cds["y"] - targets_y, -targets_y)
    return np.concatenate([err_x, err_y])


class GradientOPC:
    """Checkpointable gradient mask-bias optimizer.

    The optimizer is a pure function of its *state* — a flat dict of
    float64/int64 numpy arrays (biases, soft-vs-true CD offsets, Adam
    moments, counters, RMS history) that round-trips through ``np.savez``
    bit-for-bit.  ``step`` consumes a state and returns a new one plus a
    progress dict; no hidden attributes mutate, no RNG is drawn, so a
    run interrupted at any step and resumed from its checkpoint produces
    bitwise-identical final state.  The jobs executor leans on exactly
    this property.

    One forward solve per step.  The loss is the mean squared soft-CD
    residual against *offset-corrected* targets: each step measures the
    true (Eikonal) CDs on the inhibitor it just computed and retargets
    the soft CDs by the observed soft-vs-true offset, which makes the
    residual equal the true CD error wherever the contact prints.
    """

    def __init__(self, clip: MaskClip, config: LithoConfig, backend,
                 opt: GradientOPCConfig | None = None):
        self.clip = clip
        self.config = config
        self.backend = backend
        self.opt = opt or GradientOPCConfig()
        self.targets_x = np.array([c.width_nm for c in clip.contacts],
                                  dtype=np.float64)
        self.targets_y = np.array([c.height_nm for c in clip.contacts],
                                  dtype=np.float64)

    # -- state ----------------------------------------------------------
    def init_state(self) -> dict[str, np.ndarray]:
        k = len(self.clip.contacts)
        return {
            "bias_x": np.zeros(k, dtype=np.float64),
            "bias_y": np.zeros(k, dtype=np.float64),
            "offset_x": np.zeros(k, dtype=np.float64),
            "offset_y": np.zeros(k, dtype=np.float64),
            "adam_m": np.zeros(2 * k, dtype=np.float64),
            "adam_v": np.zeros(2 * k, dtype=np.float64),
            "iteration": np.int64(0),
            "forward_solves": np.int64(0),
            "rms_history": np.zeros(0, dtype=np.float64),
        }

    def biased_contacts(self, state) -> list[Contact]:
        """The clip's contacts resized by the state's biases (floored)."""
        return [
            dc_replace(c,
                       width_nm=max(c.width_nm + bx, self.opt.min_cd_nm),
                       height_nm=max(c.height_nm + by, self.opt.min_cd_nm))
            for c, bx, by in zip(self.clip.contacts,
                                 state["bias_x"], state["bias_y"])
        ]

    # -- forward chain --------------------------------------------------
    def _forward(self, bias_x: Tensor, bias_y: Tensor):
        """(inhibitor, soft_cds_x, soft_cds_y) for the given biases."""
        config, opt = self.config, self.opt
        pattern = rasterize_t(self.clip.contacts, bias_x, bias_y,
                              config.grid, min_cd_nm=opt.min_cd_nm)
        aerial = aerial_image_t(pattern, config.grid, config.optics)
        acid = photoacid_t(aerial, config.exposure)
        inhibitor = self.backend.inhibitor_t(acid)
        soft_x, soft_y = soft_contact_cds(
            inhibitor, self.clip.contacts, config.grid, config.develop,
            tau=opt.soft_edge_tau, window_margin_nm=opt.window_margin_nm)
        return inhibitor, soft_x, soft_y

    def loss(self, bias_x: Tensor, bias_y: Tensor,
             target_x: np.ndarray, target_y: np.ndarray) -> Tensor:
        """Mean squared soft-CD residual against explicit targets."""
        _, soft_x, soft_y = self._forward(bias_x, bias_y)
        residual = T.concatenate([soft_x - target_x, soft_y - target_y],
                                 axis=0)
        return T.mean(residual * residual)

    # -- one optimizer step ---------------------------------------------
    def step(self, state: dict[str, np.ndarray]):
        """Run one iteration; returns ``(new_state, progress)``."""
        opt = self.opt
        bias_x = Tensor(np.array(state["bias_x"], dtype=np.float64),
                        requires_grad=True)
        bias_y = Tensor(np.array(state["bias_y"], dtype=np.float64),
                        requires_grad=True)
        inhibitor, soft_x, soft_y = self._forward(bias_x, bias_y)

        # True metrology on the inhibitor we already computed: same
        # forward solve, no extra simulator work.
        arrival = development_arrival(inhibitor.data, self.config.grid,
                                      self.config.develop)
        cds = contact_cds(arrival, self.clip.contacts, self.config.grid,
                          self.config.develop)
        opened_x = cds["x"] > 0.0
        opened_y = cds["y"] > 0.0
        # The soft CD tracks the true CD up to a few-nm smoothing offset.
        # A huge apparent offset means the Eikonal measurement escaped the
        # soft window — openings merged with a neighbour, say — and would
        # poison the retargeting, so keep the previous estimate instead.
        raw_offset_x = cds["x"] - soft_x.data
        raw_offset_y = cds["y"] - soft_y.data
        offset_x = np.where(
            opened_x & (np.abs(raw_offset_x) <= opt.offset_clip_nm),
            raw_offset_x, state["offset_x"])
        offset_y = np.where(
            opened_y & (np.abs(raw_offset_y) <= opt.offset_clip_nm),
            raw_offset_y, state["offset_y"])
        adjusted_x = self.targets_x - offset_x
        adjusted_y = self.targets_y - offset_y

        residual = T.concatenate([soft_x - adjusted_x, soft_y - adjusted_y],
                                 axis=0)
        loss = T.mean(residual * residual)
        loss.backward()
        grads = np.concatenate([bias_x.grad, bias_y.grad])
        errors = residual.data
        opened = np.concatenate([opened_x, opened_y])

        step_sizes, adam_m, adam_v = self._update(state, grads, errors)
        # A closed contact sits in the saturated tail of the sigmoid, so
        # its gradient vanishes; kick it open with the same deterministic
        # positive step calibrate_mask_bias uses.
        step_sizes = np.where(opened, step_sizes, opt.max_bias_nm * 0.5)
        k = len(self.clip.contacts)
        new_bias_x = np.clip(state["bias_x"] + step_sizes[:k],
                             -opt.max_bias_nm, opt.max_bias_nm)
        new_bias_y = np.clip(state["bias_y"] + step_sizes[k:],
                             -opt.max_bias_nm, opt.max_bias_nm)
        # Keep contacts near-square: project the x−y split onto the
        # allowed asymmetry band so one runaway axis cannot drag the
        # geometry into the merge/closure regime.
        mean_bias = (new_bias_x + new_bias_y) / 2.0
        asym = np.clip((new_bias_x - new_bias_y) / 2.0,
                       -opt.asym_max_nm, opt.asym_max_nm)
        new_bias_x = mean_bias + asym
        new_bias_y = mean_bias - asym

        true_errors = _axis_errors(cds, self.targets_x, self.targets_y)
        rms = float(np.sqrt(np.mean(true_errors ** 2)))
        new_state = {
            "bias_x": new_bias_x,
            "bias_y": new_bias_y,
            "offset_x": offset_x,
            "offset_y": offset_y,
            "adam_m": adam_m,
            "adam_v": adam_v,
            "iteration": np.int64(int(state["iteration"]) + 1),
            "forward_solves": np.int64(int(state["forward_solves"]) + 1),
            "rms_history": np.concatenate(
                [state["rms_history"], np.array([rms], dtype=np.float64)]),
        }
        progress = {
            "iteration": int(new_state["iteration"]),
            "forward_solves": int(new_state["forward_solves"]),
            "cd_rmse_nm": rms,
            "loss": float(loss.data),
            "opened_fraction": float(np.mean(opened)),
        }
        return new_state, progress

    def _update(self, state, grads: np.ndarray, errors: np.ndarray):
        """Per-parameter step sizes (nm) from the loss gradient."""
        opt = self.opt
        if opt.optimizer == "adam":
            t = int(state["iteration"]) + 1
            m = opt.adam_beta1 * state["adam_m"] + (1 - opt.adam_beta1) * grads
            v = opt.adam_beta2 * state["adam_v"] + (1 - opt.adam_beta2) * grads ** 2
            m_hat = m / (1 - opt.adam_beta1 ** t)
            v_hat = v / (1 - opt.adam_beta2 ** t)
            steps = -opt.learning_rate_nm * m_hat / (np.sqrt(v_hat) + 1e-12)
            return np.clip(steps, -opt.max_step_nm, opt.max_step_nm), m, v
        if opt.optimizer != "gauss-newton":
            raise ValueError(f"unknown optimizer {opt.optimizer!r}")
        # Damped Gauss-Newton in decoupled coordinates.  Each contact's
        # 2×2 CD-vs-bias block is close to [[a, c], [c, a]] — widening a
        # contact brightens it, so its width bias moves the height CD
        # almost as much as its own (c ≈ a).  That block diagonalizes
        # exactly in the mean/asymmetry basis u = (bx+by)/2,
        # v = (bx−by)/2 with eigen-sensitivities a±c, and the loss
        # gradient recovers them per contact:
        #   d(ex+ey)/du = 2(a+c),  gu = gx+gy = (2/N)(a+c)(ex+ey)
        #   d(ex−ey)/dv = 2(a−c),  gv = gx−gy = (2/N)(a−c)(ex−ey)
        # so s = N·g/(2·e) in each coordinate, then a damped Newton step.
        n = float(errors.size)
        k = errors.size // 2
        error_sum = errors[:k] + errors[k:]
        error_diff = errors[:k] - errors[k:]
        grad_sum = grads[:k] + grads[k:]
        grad_diff = grads[:k] - grads[k:]

        def newton(error, grad, damping):
            safe = np.where(np.abs(error) > 1e-9, error, 1e-9)
            sensitivity = n * grad / (2.0 * safe)
            # Magnitude clamp preserving sign: a−c legitimately goes
            # negative for strongly coupled contacts.
            sign = np.where(sensitivity < 0.0, -1.0, 1.0)
            magnitude = np.clip(np.abs(sensitivity), opt.min_gain,
                                opt.max_gain)
            return -damping * error / (2.0 * sign * magnitude)

        step_u = newton(error_sum, grad_sum, opt.damping)
        # The asymmetry channel has a sensitivity near zero (a ≈ c) and
        # is perturbed by every mean-bias step, so walk it gently.
        step_v = np.clip(newton(error_diff, grad_diff, opt.asym_damping),
                         -opt.asym_max_step_nm, opt.asym_max_step_nm)
        steps = np.concatenate([step_u + step_v, step_u - step_v])
        return (np.clip(steps, -opt.max_step_nm, opt.max_step_nm),
                state["adam_m"], state["adam_v"])

    # -- driving --------------------------------------------------------
    def run(self, state=None, iterations: int | None = None,
            callback=None) -> dict[str, np.ndarray]:
        """Run ``iterations`` steps (default: the config budget)."""
        state = self.init_state() if state is None else state
        total = self.opt.iterations if iterations is None else iterations
        while int(state["iteration"]) < total:
            state, progress = self.step(state)
            if callback is not None:
                callback(progress)
        return state

    def finalize(self, state):
        """Measure the corrected mask; returns ``(result, final_state)``.

        Costs one forward solve (mirroring the final measurement
        `calibrate_mask_bias` appends) so ``cd_errors_nm`` reflects the
        mask actually produced, not the pre-update iterate.
        """
        config = self.config
        contacts = self.biased_contacts(state)
        pattern = rasterize(contacts, config.grid)
        aerial = aerial_image_stack(pattern, config.grid, config.optics)
        acid = initial_photoacid(aerial, config.exposure)
        inhibitor = self.backend.inhibitor(acid)
        arrival = development_arrival(inhibitor, config.grid, config.develop)
        cds = contact_cds(arrival, self.clip.contacts, config.grid,
                          config.develop)
        errors = _axis_errors(cds, self.targets_x, self.targets_y)
        final_state = dict(state)
        final_state["forward_solves"] = np.int64(
            int(state["forward_solves"]) + 1)
        corrected = MaskClip(pattern=pattern, contacts=tuple(contacts),
                             grid=config.grid, seed=self.clip.seed,
                             kind=self.clip.kind)
        history = state["rms_history"]
        if history.size == 0:
            history = np.array([np.sqrt(np.mean(errors ** 2))],
                               dtype=np.float64)
        result = GradientOPCResult(
            clip=corrected,
            bias_x_nm=np.array(state["bias_x"], dtype=np.float64),
            bias_y_nm=np.array(state["bias_y"], dtype=np.float64),
            cd_errors_nm=errors,
            rms_history_nm=history,
            iterations=int(state["iteration"]),
            forward_solves=int(final_state["forward_solves"]),
        )
        return result, final_state


def finite_difference_bias_gradient(opc: GradientOPC,
                                    bias_x: np.ndarray, bias_y: np.ndarray,
                                    target_x: np.ndarray, target_y: np.ndarray,
                                    eps_nm: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of `GradientOPC.loss`, concat(x, y).

    The perturbation oracle the autograd path is pinned against — 4·K
    forward solves versus one backward pass.
    """

    def evaluate(bx, by):
        with T.no_grad():
            return float(opc.loss(Tensor(bx), Tensor(by),
                                  target_x, target_y).data)

    grads = []
    for axis, base in (("x", bias_x), ("y", bias_y)):
        for i in range(base.size):
            plus, minus = base.copy(), base.copy()
            plus[i] += eps_nm
            minus[i] -= eps_nm
            if axis == "x":
                hi = evaluate(plus, bias_y)
                lo = evaluate(minus, bias_y)
            else:
                hi = evaluate(bias_x, plus)
                lo = evaluate(bias_x, minus)
            grads.append((hi - lo) / (2.0 * eps_nm))
    return np.array(grads, dtype=np.float64)
