"""Experiment harness: registry, evaluation plumbing, formatters.

Heavy end-to-end training runs live in the benchmarks; these tests use
micro settings to exercise the full code path quickly.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig, LithoConfig
from repro.experiments import (
    ExperimentSettings, TABLE2_METHODS, build_method, build_ablation,
    prepare_data, train_method, evaluate_method, sdmpeb_config_for,
    table2, table3, fig6, fig7, runtime as runtime_exp,
)
from repro.experiments.fig7 import bucket_percentages
from repro.experiments.fig6 import histogram, imbalance_ratio

SRC = str(Path(__file__).resolve().parents[2] / "src")


def micro_settings(tmp_path) -> ExperimentSettings:
    return ExperimentSettings(
        num_clips=3, train_fraction=0.67, epochs=1, batch_size=2,
        config=LithoConfig(grid=GridConfig(size_um=0.8, nx=16, ny=16, nz=4)),
        time_step_s=1.0, cache_dir=str(tmp_path), cd_clips=1,
    )


class TestRegistry:
    def test_all_table2_methods_build(self):
        grid = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)
        for name in TABLE2_METHODS:
            nn.init.seed(0)
            model, loss_config = build_method(name, grid)
            assert model.num_parameters() > 0, name

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            build_method("ResNet-50", GridConfig())

    def test_ablations_build(self):
        grid = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)
        for name in table3.ABLATIONS:
            nn.init.seed(0)
            model, loss_config = build_ablation(name, grid)
            assert model.num_parameters() > 0, name

    def test_ablation_loss_flags(self):
        grid = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)
        _, no_focal = build_ablation("w/o. Focal Loss", grid)
        assert not no_focal.use_focal and no_focal.use_divergence
        _, no_reg = build_ablation("w/o. Regularization", grid)
        assert no_reg.use_focal and not no_reg.use_divergence

    def test_unknown_ablation_raises(self):
        with pytest.raises(ValueError):
            build_ablation("w/o. Everything", GridConfig())

    def test_sdmpeb_config_scales_with_grid(self):
        small = sdmpeb_config_for(GridConfig(size_um=1.0, nx=32, ny=32, nz=4))
        large = sdmpeb_config_for(GridConfig())
        assert small.strides[0] < large.strides[0]
        override = sdmpeb_config_for(GridConfig(), single_stage=True)
        assert override.single_stage


class TestEndToEndMicro:
    def test_train_and_evaluate_micro(self, tmp_path):
        settings = micro_settings(tmp_path)
        train_set, test_set = prepare_data(settings)
        nn.init.seed(0)
        model, loss_config = build_method("DeepCNN", settings.config.grid)
        trainer = train_method(model, loss_config, train_set, settings)
        result = evaluate_method("DeepCNN", trainer, test_set, settings)
        assert np.isfinite(result.inhibitor_rmse)
        assert np.isfinite(result.rate_nrmse)
        assert result.runtime_s > 0.0
        assert result.num_parameters == model.num_parameters()

    def test_cd_evaluation_optional(self, tmp_path):
        settings = micro_settings(tmp_path)
        settings.evaluate_cd = False
        train_set, test_set = prepare_data(settings)
        nn.init.seed(0)
        model, loss_config = build_method("TEMPO-resist", settings.config.grid)
        trainer = train_method(model, loss_config, train_set, settings)
        result = evaluate_method("TEMPO-resist", trainer, test_set, settings)
        assert np.isnan(result.cd_error_x)


class TestFormatters:
    def _fake_result(self, name="X"):
        from repro.experiments.harness import MethodResult

        return MethodResult(name=name, inhibitor_rmse=1e-3, inhibitor_nrmse=0.01,
                            rate_rmse=0.1, rate_nrmse=0.02, cd_error_x=0.5,
                            cd_error_y=0.6, runtime_s=0.1, num_parameters=10,
                            train_seconds=1.0, final_train_loss=0.5)

    def test_table2_format(self):
        text = table2.format_table([self._fake_result("A"), self._fake_result("B")])
        assert "A" in text and "RMSE" in text
        assert len(text.split("\n")) == 4

    def test_table3_format(self):
        text = table3.format_table([self._fake_result()])
        assert "NRMSE" in text


class TestFig6:
    def test_histogram_normalized(self):
        freq = histogram(np.random.default_rng(0).random(1000))
        assert np.isclose(freq.sum(), 1.0)

    def test_imbalance_ratio(self):
        freq = np.array([0.9, 0.1, 0.0])
        assert np.isclose(imbalance_ratio(freq), 9.0)

    def test_run_micro(self, tmp_path):
        settings = micro_settings(tmp_path)
        frequencies = fig6.run(settings)
        assert set(frequencies) == {"photoacid", "inhibitor"}
        assert np.isclose(frequencies["inhibitor"].sum(), 1.0)
        # both distributions are imbalanced; the full-scale comparative
        # claim (inhibitor >> photoacid imbalance) is checked in the
        # fig6 benchmark where the realistic grid is used.
        assert imbalance_ratio(frequencies["inhibitor"]) > 1.0

    def test_format(self):
        text = fig6.format_figure({"photoacid": np.full(10, 0.1), "inhibitor": np.full(10, 0.1)})
        assert "photoacid" in text and "Fig. 6" in text


class TestFig7:
    def test_bucket_percentages(self):
        errors = np.array([0.5, 1.5, 1.7, 4.5])
        pct = bucket_percentages(errors)
        assert np.isclose(pct.sum(), 100.0)
        assert np.isclose(pct[0], 25.0)
        assert np.isclose(pct[1], 50.0)
        assert np.isclose(pct[4], 25.0)

    def test_empty_errors_nan(self):
        assert np.isnan(bucket_percentages(np.zeros(0))).all()

    def test_format(self):
        buckets = {"M": {"x": np.full(5, 20.0), "y": np.full(5, 20.0)}}
        text = fig7.format_figure(buckets)
        assert "Fig. 7a" in text and "Fig. 7b" in text and "M" in text


class TestRuntimeExperiment:
    def test_run_micro(self, tmp_path):
        settings = micro_settings(tmp_path)
        rigorous, rows = runtime_exp.run(settings)
        assert rigorous.seconds > 0.0
        assert len(rows) == len(TABLE2_METHODS)
        assert all(r.seconds > 0.0 for r in rows)
        text = runtime_exp.format_table(rigorous, rows)
        assert "speedup" in text

    def test_rows_are_distributions(self):
        """Each row is a median with quartiles over repeated runs, and a
        speedup is the ratio of medians, printed with one decimal."""
        rigorous, rows = runtime_exp.run(ExperimentSettings.quick())
        assert rigorous.name == "Rigorous (ours)"
        assert rigorous.runs >= 3 and rigorous.speedup_vs_rigorous == 1.0
        assert [row.name for row in rows] == list(TABLE2_METHODS)
        for row in [rigorous] + rows:
            assert 0.0 < row.q1_s <= row.seconds <= row.q3_s
            assert row.runs >= (3 if row is rigorous else 5)
        for row in rows:
            assert row.speedup_vs_rigorous == pytest.approx(rigorous.seconds / row.seconds)
        text = runtime_exp.format_table(rigorous, rows)
        for row in [rigorous] + rows:
            assert f"{row.speedup_vs_rigorous:.1f}x" in text
            assert f"[{row.q1_s:.3f}, {row.q3_s:.3f}]" in text

    def test_from_times(self):
        row = runtime_exp.RuntimeRow.from_times("m", [0.4, 0.1, 0.2, 0.3, 0.5], reference=0.6)
        assert (row.q1_s, row.seconds, row.q3_s, row.runs) == (0.2, 0.3, 0.4, 5)
        assert row.speedup_vs_rigorous == pytest.approx(2.0)

    def test_runs_as_a_module_without_runpy_warning(self):
        """``python -m repro.experiments.runtime`` must not find its own
        module already imported by the package (runpy's RuntimeWarning)."""
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.experiments.runtime", "--help"],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
