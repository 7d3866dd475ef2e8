"""``run.py --smoke`` on every workload emits every metric name, correctly.

Each smoke run starts the real server or flow process with every phase
cut to about a second, so this module takes roughly half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spec

E2E = Path(__file__).resolve().parents[1]


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(E2E / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.E2E if trace == 0 else [layer.metric for layer in spec.LAYERS]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m.name: m.unit for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in E2E.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                           "serve_small", "--seed", "1", "--seconds", "2", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
