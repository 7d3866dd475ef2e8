"""Experiment harness regenerating every table and figure of the paper."""

from .harness import (
    ExperimentSettings, MethodResult, TABLE2_METHODS,
    build_method, build_ablation, prepare_data, train_method,
    evaluate_method, run_methods, sdmpeb_config_for,
)

__all__ = [
    "ExperimentSettings", "MethodResult", "TABLE2_METHODS",
    "build_method", "build_ablation", "prepare_data", "train_method",
    "evaluate_method", "run_methods", "sdmpeb_config_for",
]
