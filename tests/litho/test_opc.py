"""Rule-based OPC mask-bias calibration."""

import numpy as np
import pytest

from repro.config import GridConfig, LithoConfig
from repro.litho import generate_clip
from repro.litho.ilt import DifferentiableSurrogateBackend
from repro.litho.opc import OPCResult, RigorousPEBBackend, calibrate_mask_bias

CONFIG = LithoConfig(grid=GridConfig(size_um=0.8, nx=24, ny=24, nz=2))


@pytest.fixture(scope="module")
def clip():
    return generate_clip(3, grid=CONFIG.grid, cd_range_nm=(70.0, 100.0))


@pytest.fixture(scope="module")
def rigorous(clip):
    backend = RigorousPEBBackend(CONFIG, time_step_s=1.0)
    return calibrate_mask_bias(clip, CONFIG, backend, iterations=3, gain=0.7)


class TestCalibration:
    def test_error_improves(self, rigorous):
        assert rigorous.final_rms_nm < rigorous.initial_rms_nm

    def test_error_traces_recorded(self, rigorous):
        assert len(rigorous.cd_errors_nm) == rigorous.iterations + 1

    def test_biases_bounded(self, clip):
        backend = RigorousPEBBackend(CONFIG, time_step_s=1.0)
        result = calibrate_mask_bias(clip, CONFIG, backend, iterations=2,
                                     max_bias_nm=15.0)
        assert np.all(np.abs(result.biases_nm) <= 15.0 + 1e-9)

    def test_corrected_clip_geometry_changed(self, rigorous, clip):
        original = np.array([c.width_nm for c in clip.contacts])
        corrected = np.array([c.width_nm for c in rigorous.clip.contacts])
        assert not np.allclose(original, corrected)

    def test_invalid_iterations(self, clip):
        backend = RigorousPEBBackend(CONFIG, time_step_s=1.0)
        with pytest.raises(ValueError):
            calibrate_mask_bias(clip, CONFIG, backend, iterations=0)


class TestSurrogateBackend:
    class PerfectSurrogate:
        """Wraps the rigorous solver behind the surrogate interface."""

        def __init__(self):
            self.solver = RigorousPEBBackend(CONFIG, time_step_s=1.0)
            self.calls = 0

        def predict_inhibitor(self, acid):
            self.calls += 1
            return self.solver.inhibitor(acid)

    def test_surrogate_backend_used(self, clip):
        surrogate = self.PerfectSurrogate()
        backend = DifferentiableSurrogateBackend(surrogate)
        result = calibrate_mask_bias(clip, CONFIG, backend, iterations=2)
        assert surrogate.calls == 3  # 2 iterations + final measurement
        assert isinstance(result, OPCResult)

    def test_matching_backends_agree(self, clip, rigorous):
        surrogate = DifferentiableSurrogateBackend(self.PerfectSurrogate())
        result = calibrate_mask_bias(clip, CONFIG, surrogate, iterations=3, gain=0.7)
        assert np.allclose(result.biases_nm, rigorous.biases_nm)
