"""Rigorous PEB solver: each sub-step against independent references."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.config import GridConfig, PEBConfig
from repro.litho import dct, peb
from repro.litho.exposure import initial_photoacid
from repro.config import ExposureConfig

GRID = GridConfig(nx=24, ny=24, nz=4)


def gaussian_acid(grid=GRID, amplitude=0.8, sigma_nm=120.0):
    """A smooth blob of photoacid centred in the clip."""
    x = (np.arange(grid.nx) + 0.5) * grid.dx_nm
    y = (np.arange(grid.ny) + 0.5) * grid.dy_nm
    cx, cy = x.mean(), y.mean()
    blob = np.exp(-(((x[None, :] - cx) ** 2 + (y[:, None] - cy) ** 2) / (2 * sigma_nm ** 2)))
    profile = np.linspace(1.0, 0.6, grid.nz)
    return amplitude * profile[:, None, None] * blob[None, :, :]


def reference_neutralization(acid, base, rate, dt):
    """The straightforward closed form (one temporary per operation) that
    ``neutralization_step`` evaluates in place, in the same order."""
    diff = acid - base
    small = np.abs(diff) < 1e-10
    degenerate = acid < 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(degenerate, 0.0, base / np.where(degenerate, 1.0, acid))
        decay = np.exp(np.clip(-rate * diff * dt, -700.0, 700.0))
        general = diff / (1.0 - ratio * decay)
        limit = acid / (1.0 + rate * acid * dt)
    acid_new = np.where(small, limit, general)
    acid_new = np.where(degenerate, 0.0, acid_new)
    acid_new = np.clip(acid_new, 0.0, None)
    base_new = np.clip(acid_new - diff, 0.0, None)
    return acid_new, base_new


class TestLateralDiffusion:
    def test_dct_conserves_mass(self):
        field = gaussian_acid()
        propagator = dct.LateralDiffusionPropagator(GRID, diffusivity=30.0, dt=1.0)
        out = propagator.apply(field)
        assert np.allclose(out.sum(), field.sum())

    def test_dct_smooths(self):
        field = gaussian_acid()
        propagator = dct.LateralDiffusionPropagator(GRID, diffusivity=100.0, dt=5.0)
        out = propagator.apply(field)
        assert out.max() < field.max()
        assert out.min() >= -1e-12

    def test_dct_matches_many_small_fdm_steps(self):
        field = gaussian_acid()
        total_t, diffusivity = 2.0, 50.0
        propagator = dct.LateralDiffusionPropagator(GRID, diffusivity, total_t)
        exact = propagator.apply(field)
        steps, approx = 400, field.copy()
        for _ in range(steps):
            approx = dct.lateral_step_fdm(approx, diffusivity, total_t / steps,
                                          GRID.dx_nm, GRID.dy_nm)
        assert np.allclose(exact, approx, atol=1e-5)

    def test_dct_uniform_is_fixed_point(self):
        field = np.full(GRID.shape, 0.3)
        propagator = dct.LateralDiffusionPropagator(GRID, 100.0, 10.0)
        assert np.allclose(propagator.apply(field), field)

    def test_eigenvalues_signs(self):
        lam = dct.neumann_laplacian_eigenvalues(16, 2.0)
        assert lam[0] == 0.0
        assert np.all(lam[1:] < 0.0)

    @pytest.mark.parametrize("n", [1, 7, 24, 256])
    def test_dct_matrix_is_the_orthonormal_dct_ii(self, n):
        from scipy import fft as spfft

        basis = dct.dct_matrix(n)
        vector = np.random.default_rng(n).random(n)
        assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-13)
        assert np.allclose(basis @ vector, spfft.dct(vector, type=2, norm="ortho"), atol=1e-13)


class TestZPropagator:
    def test_neumann_conserves_mass(self):
        propagator = peb._ZPropagator(GRID, diffusivity=20.0, transfer=0.0, saturation=0.0, dt=1.0)
        field = gaussian_acid()
        out = propagator.apply(field)
        assert np.allclose(out.sum(axis=0), field.sum(axis=0))

    def test_robin_drains_toward_saturation(self):
        propagator = peb._ZPropagator(GRID, diffusivity=20.0, transfer=0.1, saturation=0.0, dt=5.0)
        field = np.full(GRID.shape, 1.0)
        out = propagator.apply(field)
        assert out.sum() < field.sum()
        assert out[0].mean() < out[-1].mean()  # loss happens at the top

    def test_robin_equilibrium_at_saturation(self):
        saturation = 0.5
        propagator = peb._ZPropagator(GRID, diffusivity=20.0, transfer=0.05,
                                      saturation=saturation, dt=2.0)
        field = np.full(GRID.shape, saturation)
        assert np.allclose(propagator.apply(field), field, atol=1e-12)

    def test_matches_fine_step_composition(self):
        """Exactness: one dt step equals ten dt/10 steps."""
        coarse = peb._ZPropagator(GRID, 25.0, 0.03, 0.9, dt=1.0)
        fine = peb._ZPropagator(GRID, 25.0, 0.03, 0.9, dt=0.1)
        field = gaussian_acid()
        stepped = field.copy()
        for _ in range(10):
            stepped = fine.apply(stepped)
        assert np.allclose(coarse.apply(field), stepped, atol=1e-12)


class TestReactionSteps:
    def test_catalysis_matches_ode(self):
        rng = np.random.default_rng(0)
        inhibitor = rng.uniform(0.2, 1.0, size=(5,))
        acid = rng.uniform(0.0, 1.0, size=(5,))
        out = peb.catalysis_step(inhibitor, acid, rate=0.9, dt=2.0)
        assert np.allclose(out, inhibitor * np.exp(-0.9 * acid * 2.0))

    def test_neutralization_conserves_difference(self):
        acid, base = np.array([0.9, 0.1, 0.5]), np.array([0.4, 0.7, 0.5])
        new_acid, new_base = peb.neutralization_step(acid, base, rate=8.7, dt=0.5)
        assert np.allclose(new_acid - new_base, acid - base, atol=1e-12)

    def test_neutralization_matches_scipy_ivp(self):
        rate, dt = 8.6993, 0.3
        acid0, base0 = 0.8, 0.35

        def rhs(_, y):
            return [-rate * y[0] * y[1], -rate * y[0] * y[1]]

        solution = solve_ivp(rhs, (0.0, dt), [acid0, base0], rtol=1e-11, atol=1e-13)
        ours = peb.neutralization_step(np.array([acid0]), np.array([base0]), rate, dt)
        assert np.isclose(ours[0][0], solution.y[0, -1], atol=1e-8)
        assert np.isclose(ours[1][0], solution.y[1, -1], atol=1e-8)

    def test_neutralization_equal_concentrations(self):
        acid, base = np.array([0.5]), np.array([0.5])
        new_acid, new_base = peb.neutralization_step(acid, base, rate=2.0, dt=1.0)
        expected = 0.5 / (1.0 + 2.0 * 0.5 * 1.0)
        assert np.isclose(new_acid[0], expected)
        assert np.isclose(new_base[0], expected)

    def test_neutralization_zero_acid(self):
        new_acid, new_base = peb.neutralization_step(np.array([0.0]), np.array([0.4]), 8.7, 1.0)
        assert new_acid[0] == 0.0 and np.isclose(new_base[0], 0.4)

    def test_neutralization_zero_base(self):
        new_acid, new_base = peb.neutralization_step(np.array([0.6]), np.array([0.0]), 8.7, 1.0)
        assert np.isclose(new_acid[0], 0.6) and new_base[0] == 0.0

    def test_neutralization_long_time_annihilates_minority(self):
        new_acid, new_base = peb.neutralization_step(np.array([0.9]), np.array([0.4]), 8.7, 1000.0)
        assert np.isclose(new_acid[0], 0.5, atol=1e-6)
        assert np.isclose(new_base[0], 0.0, atol=1e-6)

    @pytest.mark.parametrize("dt", [0.125, 1.0, 1000.0])
    def test_neutralization_bitwise_matches_reference_closed_form(self, dt):
        rng = np.random.default_rng(7)
        acid = rng.uniform(0.0, 1.0, size=(4, 16, 16))
        base = rng.uniform(0.0, 1.0, size=acid.shape)
        flat_acid, flat_base = acid.reshape(-1), base.reshape(-1)
        kind = rng.integers(0, 5, size=flat_acid.size)
        flat_acid[kind == 1] = 0.0                                # degenerate
        flat_acid[kind == 2] = rng.uniform(0.0, 1e-301, size=(kind == 2).sum())
        near = kind == 3                                          # |A - B| < 1e-10
        flat_base[near] = flat_acid[near] + rng.uniform(-5e-11, 5e-11, size=near.sum())
        flat_base[kind == 4] = flat_acid[kind == 4]               # exactly equal
        assert {0, 1, 2, 3, 4} <= set(kind.tolist())
        acid_in, base_in = acid.copy(), base.copy()
        new_acid, new_base = peb.neutralization_step(acid, base, 8.6993, dt)
        ref_acid, ref_base = reference_neutralization(acid, base, 8.6993, dt)
        assert np.array_equal(new_acid, ref_acid)
        assert np.array_equal(new_base, ref_base)
        assert np.array_equal(acid, acid_in) and np.array_equal(base, base_in)  # pure


class TestSolver:
    def test_inhibitor_decreases_where_acid_high(self):
        solver = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=1.0)
        result = solver.solve(gaussian_acid())
        center = result.inhibitor[:, GRID.ny // 2, GRID.nx // 2]
        corner = result.inhibitor[:, 0, 0]
        assert center.mean() < corner.mean()
        assert np.all(result.inhibitor <= 1.0) and np.all(result.inhibitor >= 0.0)

    def test_zero_acid_mostly_untouched(self):
        """With zero initial acid, only the Robin surface in-diffusion of
        acid (h_A(A_top - A_sat), Table I gives A_sat = 0.9) perturbs the
        top layer; the bulk stays protected."""
        solver = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=1.0)
        result = solver.solve(np.zeros(GRID.shape))
        assert np.allclose(result.inhibitor[-1], 1.0, atol=5e-3)
        assert result.inhibitor.min() > 0.85
        assert np.allclose(result.base[-1], PEBConfig().base_initial, atol=5e-3)

    def test_zero_acid_no_surface_exchange_is_exact(self):
        """Switching the Robin transfer off makes zero-acid a fixed point."""
        from dataclasses import replace

        cfg = replace(PEBConfig(), transfer_coefficient_acid=0.0)
        solver = peb.RigorousPEBSolver(GRID, cfg, time_step_s=1.0)
        result = solver.solve(np.zeros(GRID.shape))
        assert np.allclose(result.inhibitor, 1.0)
        assert np.allclose(result.base, cfg.base_initial, atol=1e-9)
        assert np.allclose(result.acid, 0.0)

    def test_strang_more_accurate_than_lie(self):
        acid0 = gaussian_acid()
        reference = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=0.05).solve(acid0)
        lie = peb.RigorousPEBSolver(GRID, PEBConfig(), splitting="lie", time_step_s=2.0).solve(acid0)
        strang = peb.RigorousPEBSolver(GRID, PEBConfig(), splitting="strang", time_step_s=2.0).solve(acid0)
        err_lie = np.abs(lie.inhibitor - reference.inhibitor).max()
        err_strang = np.abs(strang.inhibitor - reference.inhibitor).max()
        assert err_strang < err_lie

    def test_coarse_strang_close_to_baseline(self):
        """Strang at dt=0.25 s stays close to the Table I baseline dt=0.1 s
        (this is the dataset-generation setting)."""
        acid0 = gaussian_acid()
        baseline = peb.RigorousPEBSolver(GRID, PEBConfig()).solve(acid0)  # dt=0.1, lie
        coarse = peb.RigorousPEBSolver(GRID, PEBConfig(), splitting="strang",
                                       time_step_s=0.25).solve(acid0)
        assert np.abs(coarse.inhibitor - baseline.inhibitor).max() < 0.025

    def test_fdm_mode_matches_dct_mode(self):
        acid0 = gaussian_acid()
        dct_result = peb.RigorousPEBSolver(GRID, PEBConfig(), lateral_mode="dct",
                                           time_step_s=0.1).solve(acid0)
        fdm_result = peb.RigorousPEBSolver(GRID, PEBConfig(), lateral_mode="fdm",
                                           time_step_s=0.1).solve(acid0)
        assert np.abs(dct_result.inhibitor - fdm_result.inhibitor).max() < 5e-3

    def test_vertical_continuity(self):
        """Fig. 4: depthwise profiles change gradually, no jumps."""
        solver = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=0.5)
        result = solver.solve(gaussian_acid())
        jumps = np.abs(np.diff(result.inhibitor, axis=0))
        assert jumps.max() < 0.6
        layer_means = result.inhibitor.mean(axis=(1, 2))
        assert np.all(np.diff(layer_means) > -1e-6)  # deprotection strongest at top

    def test_trajectory_recording(self):
        solver = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=1.0)
        result = solver.solve(gaussian_acid(), record_every=30)
        assert len(result.trajectory) == 3
        assert result.times == [30.0, 60.0, 90.0]

    def test_bad_shapes_and_modes_raise(self):
        with pytest.raises(ValueError):
            peb.RigorousPEBSolver(GRID, PEBConfig(), lateral_mode="magic")
        with pytest.raises(ValueError):
            peb.RigorousPEBSolver(GRID, PEBConfig(), splitting="trotter-kato")
        with pytest.raises(ValueError):
            peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=-1.0)
        solver = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=1.0)
        with pytest.raises(ValueError):
            solver.solve(np.zeros((2, 2, 2)))

    def test_realistic_acid_input(self):
        """End-to-end sanity on an exposure-derived acid image."""
        rng = np.random.default_rng(5)
        aerial = np.clip(rng.random(GRID.shape), 0.0, 1.0)
        acid0 = initial_photoacid(aerial, ExposureConfig())
        result = peb.RigorousPEBSolver(GRID, PEBConfig(), time_step_s=1.0).solve(acid0)
        assert np.all(np.isfinite(result.inhibitor))
