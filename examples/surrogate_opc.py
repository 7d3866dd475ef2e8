"""Surrogate-in-the-loop OPC: the paper's acceleration story, end to end.

Optical proximity correction needs many PEB simulations per mask — the
exact workload the SDM-PEB surrogate is built to accelerate.  This
example:

1. trains an SDM-PEB surrogate on rigorous data,
2. runs rule-based mask-bias OPC twice — once with the rigorous solver
   in the loop, once with the surrogate —
3. compares the corrected masks, the residual CD errors, and the
   wall-clock time of the two loops.

    python examples/surrogate_opc.py
"""

import time

import numpy as np

from repro import nn
from repro.config import GridConfig, LithoConfig
from repro.experiments import ExperimentSettings, build_method, prepare_data, train_method
from repro.litho import RigorousPEBBackend, calibrate_mask_bias, generate_clip
from repro.litho.ilt import DifferentiableSurrogateBackend

config = LithoConfig(grid=GridConfig(size_um=1.0, nx=32, ny=32, nz=4))
settings = ExperimentSettings(num_clips=10, epochs=15, lr_step_size=6,
                              config=config, cache_dir=".repro_cache")

print("1) training the SDM-PEB surrogate on rigorous data...")
train_set, _ = prepare_data(settings)
nn.init.seed(0)
model, loss_config = build_method("SDM-PEB", config.grid)
trainer = train_method(model, loss_config, train_set, settings)
print(f"   trained ({model.num_parameters()} parameters)")

clip = generate_clip(seed=777, grid=config.grid)  # unseen mask
print(f"\n2) OPC on an unseen clip with {len(clip.contacts)} contacts")

start = time.perf_counter()
rigorous_result = calibrate_mask_bias(
    clip, config, RigorousPEBBackend(config, time_step_s=0.5), iterations=3)
rigorous_time = time.perf_counter() - start
print(f"   rigorous-in-the-loop : CD RMS {rigorous_result.initial_rms_nm:.1f} -> "
      f"{rigorous_result.final_rms_nm:.1f} nm in {rigorous_time:.1f}s")

start = time.perf_counter()
surrogate_result = calibrate_mask_bias(
    clip, config, DifferentiableSurrogateBackend(model, config.peb), iterations=3)
surrogate_time = time.perf_counter() - start
print(f"   surrogate-in-the-loop: CD RMS {surrogate_result.initial_rms_nm:.1f} -> "
      f"{surrogate_result.final_rms_nm:.1f} nm in {surrogate_time:.1f}s")

bias_gap = np.abs(surrogate_result.biases_nm - rigorous_result.biases_nm)
print(f"\n3) agreement: mean |bias difference| {bias_gap.mean():.1f} nm, "
      f"worst {bias_gap.max():.1f} nm")
print(f"   loop speedup from the surrogate: {rigorous_time / surrogate_time:.1f}x")
print("   (the surrogate's value compounds: production OPC runs thousands "
      "of such loops)")
