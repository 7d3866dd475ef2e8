"""Eikonal solvers: analytic cases and cross-solver agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.litho import eikonal


class TestGodunovUpdate:
    def test_single_axis(self):
        value = eikonal.godunov_update([(1.0, 2.0), (np.inf, 1.0), (np.inf, 1.0)], 3.0)
        assert np.isclose(value, 1.0 + 3.0 * 2.0)

    def test_two_axes_symmetric(self):
        value = eikonal.godunov_update([(0.0, 1.0), (0.0, 1.0), (np.inf, 1.0)], 1.0)
        assert np.isclose(value, np.sqrt(0.5))

    def test_all_infinite(self):
        assert eikonal.godunov_update([(np.inf, 1.0)] * 3, 1.0) == np.inf

    def test_causality(self):
        """Result never below the smallest upwind neighbour."""
        value = eikonal.godunov_update([(2.0, 1.0), (2.5, 1.0), (9.0, 1.0)], 0.5)
        assert value > 2.0


class TestConstantSlowness:
    def test_planar_front(self):
        """Uniform slowness: arrival is depth * slowness (planar front)."""
        slowness = np.full((6, 5, 5), 2.0)
        spacing = (3.0, 1.0, 1.0)
        times = eikonal.fast_marching(slowness, spacing)
        for k in range(6):
            assert np.allclose(times[k], 2.0 * 3.0 * (k + 1))

    def test_fim_matches_analytic(self):
        slowness = np.full((5, 4, 4), 0.7)
        times = eikonal.fast_iterative(slowness, (2.0, 1.0, 1.0))
        expected = 0.7 * 2.0 * (np.arange(5) + 1)
        assert np.allclose(times, expected[:, None, None])


class TestLayeredMedium:
    def test_slow_layer_delays_arrival(self):
        slowness = np.ones((4, 4, 4))
        slowness[2] = 10.0
        times = eikonal.fast_marching(slowness, (1.0, 1.0, 1.0))
        assert np.allclose(times[3], 1.0 + 1.0 + 10.0 + 1.0)

    def test_fast_channel_wins(self):
        """A fast vertical channel lets the front undercut a slow region."""
        slowness = np.full((6, 9, 9), 5.0)
        slowness[:, 4, 4] = 0.1  # fast channel down the middle
        times = eikonal.fast_marching(slowness, (1.0, 1.0, 1.0))
        assert times[5, 4, 4] < times[5, 0, 0] / 3.0
        # neighbours of the channel benefit from lateral spill
        assert times[5, 4, 5] < times[5, 0, 0]


class TestSolverAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_fmm_fim_agree(self, seed):
        rng = np.random.default_rng(seed)
        slowness = np.exp(rng.uniform(-1.0, 2.0, size=(4, 6, 6)))
        spacing = (2.0, 1.0, 1.5)
        fmm = eikonal.fast_marching(slowness, spacing)
        fim = eikonal.fast_iterative(slowness, spacing)
        assert np.allclose(fmm, fim, rtol=1e-6, atol=1e-8)

    def test_high_contrast_agreement(self):
        rng = np.random.default_rng(9)
        slowness = np.where(rng.random((5, 8, 8)) > 0.5, 100.0, 0.01)
        fmm = eikonal.fast_marching(slowness, (1.0, 1.0, 1.0))
        fim = eikonal.fast_iterative(slowness, (1.0, 1.0, 1.0))
        assert np.allclose(fmm, fim, rtol=1e-6)


class TestValidation:
    @pytest.mark.parametrize("solver", [eikonal.fast_marching, eikonal.fast_iterative])
    def test_nonpositive_slowness_raises(self, solver):
        with pytest.raises(ValueError):
            solver(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0))

    def test_monotone_in_depth_for_uniform_lateral(self):
        rng = np.random.default_rng(3)
        column = np.exp(rng.uniform(0.0, 1.0, size=4))
        slowness = np.tile(column[:, None, None], (1, 5, 5))
        times = eikonal.fast_iterative(slowness, (1.0, 1.0, 1.0))
        assert np.all(np.diff(times, axis=0) > 0.0)
