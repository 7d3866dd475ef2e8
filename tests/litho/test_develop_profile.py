"""Mack development model, exposure model, resist profile and CD measurement."""

import numpy as np
import pytest

from repro.config import DevelopConfig, ExposureConfig, GridConfig
from repro.litho import develop, eikonal, exposure, profile
from repro.litho.mask import Contact

DEV = DevelopConfig()


class TestExposure:
    def test_range(self):
        image = np.linspace(0.0, 2.0, 10)
        acid = exposure.initial_photoacid(image, ExposureConfig())
        assert np.all((acid >= 0.0) & (acid < 1.0))

    def test_monotone(self):
        image = np.linspace(0.0, 1.0, 10)
        acid = exposure.initial_photoacid(image, ExposureConfig())
        assert np.all(np.diff(acid) > 0.0)

    def test_zero_intensity_zero_acid(self):
        assert exposure.initial_photoacid(np.zeros(3), ExposureConfig())[0] == 0.0

    def test_negative_intensity_raises(self):
        with pytest.raises(ValueError):
            exposure.initial_photoacid(np.array([-0.1]), ExposureConfig())


class TestMackModel:
    def test_limits(self):
        rate = develop.development_rate(np.array([0.0, 1.0]), DEV)
        assert np.isclose(rate[1], DEV.r_min_nm_s, atol=1e-9)
        assert rate[0] > 0.9 * DEV.r_max_nm_s

    def test_monotone_decreasing_in_inhibitor(self):
        inhibitor = np.linspace(0.0, 1.0, 50)
        rate = develop.development_rate(inhibitor, DEV)
        assert np.all(np.diff(rate) <= 1e-12)

    def test_threshold_switch(self):
        """Rate collapses by orders of magnitude across the Mack threshold."""
        rate = develop.development_rate(np.array([0.2, 0.8]), DEV)
        assert rate[0] / rate[1] > 1e3

    def test_out_of_range_inputs_clipped(self):
        rate = develop.development_rate(np.array([-0.5, 1.5]), DEV)
        assert np.all(np.isfinite(rate)) and np.all(rate > 0.0)

    def test_mack_a_value(self):
        n = DEV.reaction_order
        expected = (1.0 - DEV.threshold) ** n * (n + 1.0) / (n - 1.0)
        assert np.isclose(develop.mack_a(DEV), expected)


def synthetic_inhibitor(grid: GridConfig, contact: Contact, depth_taper: float = 0.0):
    """Inhibitor volume: ~0 inside the contact cylinder, 1 outside."""
    x = (np.arange(grid.nx) + 0.5) * grid.dx_nm
    y = (np.arange(grid.ny) + 0.5) * grid.dy_nm
    inside_x = np.abs(x - contact.center_x_nm) <= contact.width_nm / 2.0
    inside_y = np.abs(y - contact.center_y_nm) <= contact.height_nm / 2.0
    opening = np.outer(inside_y, inside_x)
    volume = np.ones(grid.shape)
    for k in range(grid.nz):
        level = min(0.05 + depth_taper * k, 0.95)
        volume[k] = np.where(opening, level, 1.0)
    return volume


class TestProfileAndCD:
    GRID = GridConfig(nx=40, ny=40, nz=4, size_um=0.8)  # 20 nm pixels

    def test_contact_opens_and_resist_remains(self):
        contact = Contact(400.0, 400.0, 120.0, 120.0)
        inhibitor = synthetic_inhibitor(self.GRID, contact)
        arrival = profile.development_arrival(inhibitor, self.GRID, DEV)
        kept = profile.resist_mask(arrival, DEV)
        center = (slice(None), self.GRID.ny // 2, self.GRID.nx // 2)
        assert not kept[center].any()       # contact fully develops
        assert kept[:, 2, 2].all()          # far corner stays

    def test_measured_cd_close_to_geometry(self):
        contact = Contact(400.0, 400.0, 120.0, 80.0)
        inhibitor = synthetic_inhibitor(self.GRID, contact)
        arrival = profile.development_arrival(inhibitor, self.GRID, DEV)
        cd_x = profile.measure_cd(arrival, contact, self.GRID, DEV, "x")
        cd_y = profile.measure_cd(arrival, contact, self.GRID, DEV, "y")
        assert abs(cd_x - 120.0) < 2.5 * self.GRID.dx_nm
        assert abs(cd_y - 80.0) < 2.5 * self.GRID.dy_nm
        assert cd_x > cd_y

    def test_unopened_contact_reports_zero(self):
        contact = Contact(400.0, 400.0, 120.0, 120.0)
        inhibitor = np.ones(self.GRID.shape)  # fully protected resist
        arrival = profile.development_arrival(inhibitor, self.GRID, DEV)
        assert profile.measure_cd(arrival, contact, self.GRID, DEV, "x") == 0.0

    def test_invalid_axis_raises(self):
        contact = Contact(400.0, 400.0, 120.0, 120.0)
        arrival = np.zeros(self.GRID.shape)
        with pytest.raises(ValueError):
            profile.measure_cd(arrival, contact, self.GRID, DEV, "diagonal")

    def test_contact_cds_batches(self):
        contacts = [Contact(250.0, 250.0, 120.0, 120.0), Contact(550.0, 550.0, 100.0, 140.0)]
        inhibitor = np.ones(self.GRID.shape)
        for contact in contacts:
            inhibitor = np.minimum(inhibitor, synthetic_inhibitor(self.GRID, contact))
        arrival = profile.development_arrival(inhibitor, self.GRID, DEV)
        cds = profile.contact_cds(arrival, contacts, self.GRID, DEV)
        assert cds["x"].shape == (2,) and cds["y"].shape == (2,)
        assert np.all(cds["x"] > 0.0)

    def test_arrival_agrees_with_fast_marching(self):
        contact = Contact(400.0, 400.0, 120.0, 120.0)
        inhibitor = synthetic_inhibitor(self.GRID, contact)
        arrival = profile.development_arrival(inhibitor, self.GRID, DEV)
        spacing = (self.GRID.dz_nm, self.GRID.dy_nm, self.GRID.dx_nm)
        fmm = eikonal.fast_marching(1.0 / develop.development_rate(inhibitor, DEV), spacing)
        finite = np.isfinite(fmm)
        assert np.allclose(arrival[finite], fmm[finite], rtol=1e-6)


class TestCDErrorMetric:
    def test_rms(self):
        predicted = np.array([100.0, 102.0])
        reference = np.array([101.0, 100.0])
        assert np.isclose(profile.cd_error_rms(predicted, reference), np.sqrt((1 + 4) / 2))

    def test_zero_error(self):
        cds = np.array([50.0, 60.0])
        assert profile.cd_error_rms(cds, cds) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            profile.cd_error_rms(np.zeros(2), np.zeros(3))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            profile.cd_error_rms(np.zeros(0), np.zeros(0))
