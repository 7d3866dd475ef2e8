"""The tail-percentile rule and ``BENCHMARK.json`` validation."""

import copy
from pathlib import Path

import pytest

import spec

ROOT = Path(__file__).resolve().parents[3]


@pytest.mark.parametrize("samples", [20, 40, 60, 199, 200, 262, 1000])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(samples):
    tail = spec.tail_percentile(samples)
    assert samples * (1.0 - tail / 100.0) >= 10.0
    # and it is the highest such percentile on the half-percent grid
    assert samples * (1.0 - (tail + 0.5) / 100.0) < 10.0


def test_too_few_samples_fall_back_to_the_median():
    assert spec.tail_percentile(19) == 50.0


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_frozen_tail_matches_the_default_length_plan(workload):
    planned = spec.planned_samples(workload, spec.DEFAULT_SECONDS)
    assert spec.WORKLOADS[workload].tail_percentile == spec.tail_percentile(planned)


def test_percentile_interpolates_linearly():
    assert spec.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert spec.percentile([5.0], 99.0) == 5.0


def test_repo_benchmark_json_is_the_spec():
    payload = spec.load_benchmark_json(ROOT)
    assert payload == spec.expected_benchmark_json()
    assert spec.validate_benchmark_json(payload) == []


def _broken(mutate):
    payload = copy.deepcopy(spec.expected_benchmark_json())
    mutate(payload)
    return spec.validate_benchmark_json(payload)


def test_validation_rejects_bad_names():
    problems = _broken(lambda p: p["per_layer"][0].update(name="serve server!"))
    assert any("bad name" in p for p in problems)
    problems = _broken(lambda p: p["end_to_end"][1].update(name=p["end_to_end"][0]["name"]))
    assert any("used twice" in p for p in problems)


def test_validation_rejects_too_many_metrics():
    def many_e2e(payload):
        payload["end_to_end"] += [{"name": f"extra{i}", "unit": "ms", "better": "lower",
                                   "bound": 0.1} for i in range(spec.MAX_E2E)]

    def many_layers(payload):
        payload["per_layer"] += [{"name": f"layer{i}", "unit": "ms", "better": "lower"}
                                 for i in range(spec.MAX_LAYERS)]

    assert any("end_to_end metrics" in p for p in _broken(many_e2e))
    assert any("per_layer metrics" in p for p in _broken(many_layers))


def test_validation_requires_setup_with_the_largest_bound():
    def shrink_setup_bound(payload):
        setup = next(m for m in payload["end_to_end"] if m["name"] == "setup_s")
        setup["bound"] = 0.01

    assert any("largest bound" in p for p in _broken(shrink_setup_bound))


def test_every_layer_metric_names_an_e2e_metric_and_a_workload():
    assert spec.validate_benchmark_json(spec.expected_benchmark_json()) == []
    drop_metric = _broken(lambda p: p.update(end_to_end=[
        m for m in p["end_to_end"] if m["name"] != "throughput_per_s"]))
    assert any("moves unknown metric 'throughput_per_s'" in p for p in drop_metric)
    drop_workload = _broken(lambda p: p.update(workloads=[
        w for w in p["workloads"] if w["name"] != "litho_flow"]))
    assert any("unknown workload 'litho_flow'" in p for p in drop_workload)


def test_layer_map_covers_exactly_the_declared_layers():
    names = [layer.metric.name for layer in spec.LAYERS]
    assert len(names) == len(set(names)) <= spec.MAX_LAYERS
    assert all(spec.NAME_RE.match(name) for name in names)
