"""Eikonal solvers: analytic cases, cross-solver agreement, and the
fast iterative solver's active set against the whole-grid iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import GridConfig, LithoConfig
from repro.data import simulate_clip
from repro.litho import contact_cds, development_arrival, development_rate, eikonal


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

    def test_nan_inhibitor_raises(self):
        """``development_rate`` clips to [0, 1], which keeps a NaN, so one NaN
        inhibitor voxel reaches the solver as a NaN slowness."""
        config = LithoConfig(grid=GridConfig(size_um=0.8, nx=16, ny=16, nz=4))
        inhibitor = simulate_clip(101, config).inhibitor.copy()
        inhibitor[2, 8, 8] = np.nan
        with pytest.raises(ValueError, match="strictly positive"):
            development_arrival(inhibitor, config.grid, config.develop)

    def test_monotone_in_depth_for_uniform_lateral(self):
        rng = np.random.default_rng(3)
        column = np.exp(rng.uniform(0.0, 1.0, size=4))
        slowness = np.tile(column[:, None, None], (1, 5, 5))
        times = eikonal.fast_iterative(slowness, (1.0, 1.0, 1.0))
        assert np.all(np.diff(times, axis=0) > 0.0)


def _godunov_whole_grid(axis_minima, spacings, slowness):
    """The Godunov update of every voxel at once, sorting the three axes
    with a stable argsort (a tie keeps the z, y, x order)."""
    h = np.broadcast_to(spacings.reshape(3, *([1] * (axis_minima.ndim - 1))), axis_minima.shape)
    order = np.argsort(axis_minima, axis=0, kind="stable")
    a = np.take_along_axis(axis_minima, order, axis=0)
    h = np.take_along_axis(h, order, axis=0)
    with np.errstate(invalid="ignore"):
        solution = a[0] + slowness * h[0]
        inv_h2 = np.zeros_like(a)
        np.divide(1.0, h ** 2, out=inv_h2, where=np.isfinite(a))
        alpha = inv_h2[0].copy()
        beta = np.where(np.isfinite(a[0]), -2.0 * a[0] * inv_h2[0], 0.0)
        gamma = np.where(np.isfinite(a[0]), a[0] ** 2 * inv_h2[0], 0.0) - slowness ** 2
        for m in (1, 2):
            use = np.isfinite(a[m]) & (solution > a[m])
            alpha = alpha + np.where(use, inv_h2[m], 0.0)
            beta = beta + np.where(use, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma + np.where(use, a[m] ** 2 * inv_h2[m], 0.0)
            disc = beta ** 2 - 4.0 * alpha * gamma
            valid = use & (disc >= 0.0)
            candidate = np.where(valid, (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha), np.inf)
            improved = valid & (candidate >= a[m])
            solution = np.where(improved, candidate, solution)
            rollback = use & ~improved
            alpha = alpha - np.where(rollback, inv_h2[m], 0.0)
            beta = beta - np.where(rollback, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma - np.where(rollback, a[m] ** 2 * inv_h2[m], 0.0)
    return solution


def _axis_minima_whole_grid(times):
    """Per axis, the smaller neighbour time of every voxel, inf at the border."""
    minima = np.empty((3,) + times.shape, dtype=np.float64)
    for axis in range(3):
        forward = np.full_like(times, np.inf)
        backward = np.full_like(times, np.inf)
        front = [slice(None)] * 3
        back = [slice(None)] * 3
        front[axis] = slice(1, None)
        back[axis] = slice(None, -1)
        forward[tuple(back)] = times[tuple(front)]
        backward[tuple(front)] = times[tuple(back)]
        minima[axis] = np.minimum(forward, backward)
    return minima


def whole_grid_jacobi(slowness, spacing, tolerance=1e-9, max_iterations=None):
    """Reference: Jacobi sweeps that update every voxel, with the same
    stopping rule as ``fast_iterative`` (largest finite decrease below
    ``tolerance`` and no voxel left at inf)."""
    times = eikonal.initial_arrival(slowness, spacing)
    spacings = np.asarray(spacing, dtype=np.float64)
    if max_iterations is None:
        max_iterations = 4 * sum(slowness.shape)
    for _ in range(max_iterations):
        updated = _godunov_whole_grid(_axis_minima_whole_grid(times), spacings, slowness)
        new_times = np.minimum(times, updated)
        with np.errstate(invalid="ignore"):
            change = times - new_times
        finite_change = change[np.isfinite(change)]
        times = new_times
        if finite_change.size == 0 or finite_change.max() < tolerance:
            if not np.any(np.isinf(new_times)):
                break
    return times


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


#: powers of two, so that neighbour times often tie exactly, and 1.5 and 3,
#: so that a tie's arithmetic rounds and the order of the tied axes shows
SLOWNESS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
HIGH_CONTRAST = st.sampled_from([1.0 / 64.0, 64.0])
SPACINGS = st.tuples(*[st.sampled_from([0.5, 0.75, 1.0, 2.0, 3.0])] * 3)

#: media where a tie between two axes' neighbour times reaches the
#: quadratic, so sorting the tied axes the other way changes the result
TIED_MEDIA = {
    "z-y": ([[[0.5, 1.5], [0.5, 1.5], [1.5, 1.5]], [[0.5, 0.5], [1.0, 1.0], [1.0, 1.5]],
             [[1.0, 0.5], [1.0, 1.0], [1.5, 1.5]]], (3.0, 1.0, 3.0)),
    "z-x": ([[[0.5, 1.0], [1.5, 1.0]], [[0.5, 1.0], [1.0, 0.5]], [[1.0, 1.0], [0.5, 0.5]]],
            (1.0, 3.0, 3.0)),
    "y-x": ([[[1.0, 1.5], [1.0, 1.5], [1.5, 0.5]], [[1.5, 0.5], [0.5, 1.5], [1.5, 1.5]],
             [[1.5, 0.5], [1.0, 1.0], [1.0, 1.5]]], (1.0, 3.0, 1.0)),
}


class TestActiveSetIsTheWholeGridIteration:
    """``fast_iterative`` updates only voxels next to one whose time fell;
    every sweep, the stopping sweep and the result must be the whole-grid
    Jacobi iteration's, bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(slowness=st.tuples(*[st.integers(1, 6)] * 3).flatmap(
               lambda shape: arrays(np.float64, shape, elements=SLOWNESS | HIGH_CONTRAST)),
           spacing=SPACINGS,
           max_iterations=st.none() | st.integers(1, 5))
    def test_property_bitwise(self, slowness, spacing, max_iterations):
        assert_bitwise(eikonal.fast_iterative(slowness, spacing, max_iterations=max_iterations),
                       whole_grid_jacobi(slowness, spacing, max_iterations=max_iterations))

    @pytest.mark.parametrize("axes", sorted(TIED_MEDIA))
    def test_tied_axes_keep_z_y_x_order(self, axes):
        slowness, spacing = TIED_MEDIA[axes]
        slowness = np.array(slowness)
        for max_iterations in (1, 2, 3, None):
            assert_bitwise(eikonal.fast_iterative(slowness, spacing, max_iterations=max_iterations),
                           whole_grid_jacobi(slowness, spacing, max_iterations=max_iterations))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 4), (2, 1, 5), (5, 1, 1)])
    def test_degenerate_shapes(self, shape):
        slowness = np.linspace(0.5, 2.0, int(np.prod(shape))).reshape(shape)
        assert_bitwise(eikonal.fast_iterative(slowness, (1.0, 1.0, 1.0)),
                       whole_grid_jacobi(slowness, (1.0, 1.0, 1.0)))


def check_clip_bitwise(seed, config):
    """A ``simulate_clip`` clip develops to the whole-grid arrival and CDs."""
    sample = simulate_clip(seed, config)
    grid, develop = config.grid, config.develop
    arrival = development_arrival(sample.inhibitor, grid, develop)
    reference = whole_grid_jacobi(1.0 / development_rate(sample.inhibitor, develop),
                                  (grid.dz_nm, grid.dy_nm, grid.dx_nm))
    assert_bitwise(arrival, reference)
    cds, reference_cds = (contact_cds(times, sample.contacts, grid, develop)
                          for times in (arrival, reference))
    assert np.array_equal(cds["x"], reference_cds["x"])
    assert np.array_equal(cds["y"], reference_cds["y"])


@pytest.mark.parametrize("seed", [101, 202])
def test_simulated_clip_develops_bitwise(seed):
    check_clip_bitwise(seed, LithoConfig(grid=GridConfig(size_um=1.0, nx=32, ny=32, nz=4)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_simulated_clip_develops_bitwise_litho_flow_grid(seed):
    """The 64×64×8 grid of the offline flow."""
    check_clip_bitwise(seed, LithoConfig(grid=GridConfig()))
