"""The pair comparator on synthetic run records."""

import json

import pytest

import compare
import spec

METRICS = spec.expected_benchmark_json()["end_to_end"]
BASE = {"setup_s": 1.0, "latency_ms": 20.0, "throughput_per_s": 100.0, "rss_mb": 80.0}


def _records(scale=None, jitter=0.005, failed=0, workload="serve_small", cpu_count=2):
    scale = scale or {}
    records = []
    for seed in range(10):
        wiggle = 1.0 + jitter * ((seed % 5) - 2)
        metrics = {name: {"value": value * scale.get(name, 1.0) * wiggle, "unit": "x"}
                   for name, value in BASE.items()}
        records.append({"workload": workload, "seed": seed, "trace": 0,
                        "cpu_count": cpu_count,
                        "result": {"correct": True, "attempted": 100,
                                   "failed": failed if seed == 0 else 0,
                                   "metrics": metrics}})
    return records


def _verdicts(parent, change, claims=()):
    rows, ok = compare.compare(parent, change, METRICS, set(claims))
    return {row[1]: row[-1] for row in rows}, ok


def test_claimed_win():
    verdicts, ok = _verdicts(_records(), _records({"latency_ms": 0.8}),
                             claims=[("latency_ms", "serve_small")])
    assert verdicts["latency_ms"] == "gain" and ok


def test_claim_needs_ten_pairs():
    verdicts, ok = _verdicts(_records()[:9], _records({"latency_ms": 0.8})[:9],
                             claims=[("latency_ms", "serve_small")])
    assert verdicts["latency_ms"] == "not met" and not ok


def test_regression_beyond_the_bound():
    verdicts, ok = _verdicts(_records(), _records({"throughput_per_s": 0.7}))
    assert verdicts["throughput_per_s"] == "regression" and not ok
    assert verdicts["latency_ms"] == "same"


def test_wide_spread_is_unresolved():
    verdicts, ok = _verdicts(_records(jitter=0.3), _records(jitter=0.3))
    assert verdicts["latency_ms"] == "unresolved" and ok


def test_a_rising_failed_share_is_rejected():
    verdicts, ok = _verdicts(_records(), _records(failed=1))
    assert verdicts["failed_share"] == "regression" and not ok


def test_mixed_cpu_counts_are_refused():
    with pytest.raises(ValueError):
        compare.compare(_records(), _records(cpu_count=4), METRICS, set())


def test_cli_reads_record_files(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text("".join(json.dumps(r) + "\n" for r in _records()))
    change.write_text(json.dumps({"runs": _records({"rss_mb": 0.5})}))
    assert compare.main(["--parent", str(parent), "--change", str(change),
                         "--claim", "rss_mb@serve_small"]) == 0
    out = capsys.readouterr().out
    assert "rss_mb" in out and "gain" in out
