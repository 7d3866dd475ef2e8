"""CLI: every subcommand exercised end-to-end at micro scale."""

import io
import json
import os
import shutil
import signal
import subprocess
import sys
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.config import PEBConfig
from repro.core import label_to_inhibitor
from repro.serve import manifest_path_for, read_manifest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args) -> int:
    return cli.main(args)


#: simulate and train take the grid; predict, evaluate and serve read it
#: from the checkpoint's manifest
COMMON = ["--clips", "3", "--nx", "16", "--nz", "2", "--clip-um", "0.8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cache = str(base / "cache")
    weights = str(base / "model.npz")
    # simulate + train once for the whole module
    assert run_cli(["simulate", *COMMON, "--cache", cache]) == 0
    assert run_cli(["train", *COMMON, "--cache", cache, "--method", "DeepCNN",
                    "--epochs", "2", "--weights", weights]) == 0
    return base, cache, weights


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--method", "GPT-7"])

    def test_defaults(self):
        args = cli.build_parser().parse_args(["simulate"])
        assert args.clips == 12 and args.nx == 32

    @pytest.mark.parametrize("command", ["predict", "evaluate", "serve"])
    def test_grid_flags_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.build_parser().parse_args([command, "--nx", "16"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --nx 16" in capsys.readouterr().err


class TestSimulate:
    def test_cache_populated(self, workspace):
        _, cache, _ = workspace
        assert len(list(Path(cache).glob("clip_*.npz"))) >= 3


class TestTrain:
    def test_weights_and_metadata_written(self, workspace):
        base, _, weights = workspace
        assert Path(weights).exists()
        # the manifest is the one metadata file: no JSON sidecar
        assert not Path(weights).with_suffix(".json").exists()
        manifest = read_manifest(weights)
        assert manifest.model_class == "DeepCNN"
        assert np.isfinite(manifest.output_mean) and manifest.output_std > 0
        assert manifest.extra == {"epochs": 2}


class TestPredict:
    def test_prediction_file(self, workspace):
        base, cache, weights = workspace
        out = str(base / "prediction.npz")
        code = run_cli(["predict", "--clips", "3", "--cache", cache,
                        "--weights", weights, "--clip", "0", "--out", out])
        assert code == 0
        with np.load(out) as archive:
            assert archive["inhibitor"].shape == (2, 16, 16)
            assert np.all(np.isfinite(archive["inhibitor"]))


class TestEvaluate:
    def test_evaluation_runs(self, workspace, capsys):
        base, cache, weights = workspace
        code = run_cli(["evaluate", "--clips", "3", "--cache", cache,
                        "--weights", weights])
        assert code == 0
        output = capsys.readouterr().out
        assert "NRMSE(I)" in output and "CD error" in output


class TestFriendlyErrors:
    """Missing/broken weights must produce a short message, not a traceback."""

    def test_predict_missing_weights(self, workspace, capsys):
        base, cache, _ = workspace
        code = run_cli(["predict", "--clips", "3", "--cache", cache,
                        "--weights", str(base / "nope.npz"),
                        "--out", str(base / "p.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nope.npz" in err
        assert "Traceback" not in err
        assert "train" in err  # points at the command that produces weights

    def test_evaluate_missing_weights(self, workspace, capsys):
        base, cache, _ = workspace
        code = run_cli(["evaluate", "--clips", "3", "--cache", cache,
                        "--weights", str(base / "missing" / "w.npz")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_corrupt_weights_file(self, workspace, capsys):
        base, cache, _ = workspace
        bad = base / "corrupt.npz"
        bad.write_bytes(b"definitely not a zip archive")
        code = run_cli(["evaluate", "--clips", "3", "--cache", cache,
                        "--weights", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_serve_missing_checkpoint(self, capsys):
        code = run_cli(["serve", "--ckpt", "/nonexistent/model.npz"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def copy_checkpoint(weights, target_dir: Path) -> Path:
    """The weights and their manifest, copied under ``target_dir``."""
    target_dir.mkdir()
    copy = target_dir / "model.npz"
    shutil.copy(weights, copy)
    shutil.copy(manifest_path_for(weights), manifest_path_for(copy))
    return copy


def loading_command(command: str, weights: Path, cache: str) -> list[str]:
    if command == "serve":
        return ["serve", "--ckpt", str(weights), "--port", "0", "--no-jobs"]
    argv = [command, "--clips", "3", "--cache", cache, "--weights", str(weights)]
    if command == "predict":
        argv += ["--out", str(weights.with_name("p.npz"))]
    return argv


def single_error(capsys) -> str:
    """stderr of a command that failed closed: one ``error:`` line, no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1, err
    return err


#: manifests that parse as JSON but describe no model the weights fit;
#: the value is the field the error must name
MALFORMED = {
    "unknown-model-class": (lambda m: m.update(model_class="GPT-7"), "model_class"),
    "unknown-grid-key": (lambda m: m["grid"].update(bogus=1), "grid"),
    "missing-grid-field": (lambda m: m["grid"].pop("thickness_nm"), "grid"),
    "grid-not-an-object": (lambda m: m.update(grid=[16, 16, 2]), "grid"),
    "weights-of-another-class": (lambda m: m.update(model_class="TEMPO-resist"),
                                 "model_class"),
    "output-std-zero": (lambda m: m.update(output_std=0.0), "output_std"),
    "output-mean-infinite": (lambda m: m.update(output_mean=float("inf")), "output_mean"),
    "schema-version-string": (lambda m: m.update(schema_version="1"), "schema_version"),
    "version-string": (lambda m: m.update(version="1"), "version"),
    "grid-value-string": (lambda m: m["grid"].update(nx="16"), "nx"),
    "grid-value-bool": (lambda m: m["grid"].update(nz=True), "nz"),
    "grid-value-negative": (lambda m: m["grid"].update(size_um=-0.8), "size_um"),
}


class TestFailClosed:
    """predict, evaluate and serve load one way, through the manifest, and
    refuse a checkpoint they cannot trust with one line and exit 2."""

    @pytest.fixture(autouse=True)
    def serving_never_starts(self, monkeypatch):
        # a serve that got past loading would block in its accept loop
        import repro.serve

        def refuse(*_args, **_kwargs):
            raise AssertionError("serve got past checkpoint loading")
        monkeypatch.setattr(repro.serve, "ServedModel", refuse)

    @pytest.mark.parametrize("command", ["predict", "evaluate", "serve"])
    def test_altered_weights(self, workspace, command, capsys):
        base, cache, weights = workspace
        copy = copy_checkpoint(weights, base / f"altered-{command}")
        with np.load(copy) as archive:
            state = {name: archive[name] for name in archive.files}
        first = sorted(state)[0]
        state[first] = state[first] + 1.0
        np.savez(copy, **state)
        assert run_cli(loading_command(command, copy, cache)) == 2
        assert "integrity" in single_error(capsys)

    @pytest.mark.parametrize("command", ["predict", "evaluate", "serve"])
    def test_weights_without_manifest(self, workspace, command, capsys):
        base, cache, weights = workspace
        copy = copy_checkpoint(weights, base / f"bare-{command}")
        manifest_path_for(copy).unlink()
        assert run_cli(loading_command(command, copy, cache)) == 2
        err = single_error(capsys)
        assert "no manifest" in err and "train" in err

    @pytest.mark.parametrize("command", ["predict", "serve"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_manifest(self, workspace, command, case, capsys):
        base, cache, weights = workspace
        copy = copy_checkpoint(weights, base / f"{case}-{command}")
        edit, field = MALFORMED[case]
        manifest = json.loads(manifest_path_for(copy).read_text())
        edit(manifest)
        manifest_path_for(copy).write_text(json.dumps(manifest))
        assert run_cli(loading_command(command, copy, cache)) == 2
        err = single_error(capsys)
        assert str(copy.parent) in err and f"'{field}'" in err


class TestRoundTrip:
    """train → predict → evaluate → serve on one manifest: each command
    loads the checkpoint ``train`` wrote, and the served prediction is
    ``predict``'s, bitwise (both one batch-1 forward under no_grad)."""

    def start_server(self, weights, workdir):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--ckpt", str(weights),
             "--port", "0", "--no-jobs"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=workdir, env=env)
        output = []
        for line in process.stdout:
            output.append(line)
            if line.startswith("listening on http://"):
                return process, int(line.split()[2].rsplit(":", 1)[1])
        process.wait(10.0)
        pytest.fail("server died early:\n" + "".join(output))

    def test_served_prediction_is_predicts(self, workspace, capsys):
        base, cache, weights = workspace
        out = base / "roundtrip.npz"
        assert run_cli(["predict", "--clips", "3", "--cache", cache,
                        "--weights", weights, "--out", str(out)]) == 0
        assert run_cli(["evaluate", "--clips", "3", "--cache", cache,
                        "--weights", weights]) == 0
        assert "DeepCNN" in capsys.readouterr().out
        with np.load(out) as archive:
            acid, inhibitor = archive["acid"], archive["inhibitor"]
        process, port = self.start_server(weights, base)
        try:
            body = io.BytesIO()
            np.savez(body, acid=acid)
            connection = HTTPConnection("127.0.0.1", port, timeout=60)
            connection.request("POST", "/v1/predict", body=body.getvalue(),
                               headers={"Content-Type": "application/octet-stream"})
            response = connection.getresponse()
            assert response.status == 200
            with np.load(io.BytesIO(response.read())) as archive:
                label = archive["prediction"]
            connection.close()
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60.0) == 0
        served = label_to_inhibitor(label, PEBConfig().catalysis_rate)
        assert served.shape == inhibitor.shape == (2, 16, 16)
        assert np.array_equal(served, inhibitor)


class TestReport:
    """Trace analytics CLI: friendly on broken input, Chrome export valid."""

    def trace_lines(self):
        return [
            {"type": "span", "name": "serve.request", "pid": 1, "tid": 1,
             "id": "1-1", "parent": None, "trace": "req-1", "t_wall_s": 10.0,
             "dur_s": 0.05, "attrs": {"request_id": "req-1"}},
            {"type": "span", "name": "serve.batch", "pid": 1, "tid": 2,
             "id": "1-2", "parent": "1-1", "trace": "req-1", "t_wall_s": 10.01,
             "dur_s": 0.03, "attrs": {}},
            # multi-pid child and an orphan from a killed process
            {"type": "span", "name": "pool.worker_task", "pid": 9, "tid": 9,
             "id": "9-1", "parent": "1-2", "trace": "req-1", "t_wall_s": 10.02,
             "dur_s": 0.01, "attrs": {}},
            {"type": "span", "name": "lost.child", "pid": 3, "tid": 3,
             "id": "3-1", "parent": "3-999", "t_wall_s": 11.0,
             "dur_s": 0.002, "attrs": {}},
        ]

    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in self.trace_lines()))
        return path

    def test_missing_file_is_friendly(self, tmp_path, capsys):
        code = run_cli(["report", str(tmp_path / "nope.jsonl")])
        assert code == 1
        out = capsys.readouterr().out
        assert "no trace file" in out and "Traceback" not in out

    def test_empty_file_exits_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli(["report", str(empty)]) == 0
        assert "no trace events" in capsys.readouterr().out

    def test_summary_table(self, trace_file, capsys):
        assert run_cli(["report", str(trace_file)]) == 0
        assert "serve.request" in capsys.readouterr().out

    def test_export_chrome_parses_as_json(self, trace_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert run_cli(["report", str(trace_file),
                        "--export-chrome", str(out)]) == 0
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert len(events) == 4
        assert all(e["ph"] == "X" for e in events)
        assert {e["pid"] for e in events} == {1, 3, 9}

    def test_critical_path_tolerates_orphans_and_pids(self, trace_file, capsys):
        assert run_cli(["report", str(trace_file), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path from 'serve.request'" in out
        assert "pool.worker_task" in out  # followed across the pid hop

    def test_requests_view(self, trace_file, capsys):
        assert run_cli(["report", str(trace_file), "--requests"]) == 0
        out = capsys.readouterr().out
        assert "req-1" in out and "serve.request" in out


class TestTrainManifest:
    def test_train_writes_manifest_sidecar(self, workspace):
        _, _, weights = workspace
        manifest_file = Path(weights).with_suffix("").with_name("model.manifest.json")
        assert manifest_file.exists()
        manifest = json.loads(manifest_file.read_text())
        assert manifest["model_class"] == "DeepCNN"
        assert manifest["content_hash"].startswith("sha256:")


class TestJobsCLI:
    """`repro jobs …` against a live in-process server with a job queue."""

    @pytest.fixture(scope="class")
    def jobs_server(self, tmp_path_factory):
        from repro import nn
        from repro.config import GridConfig
        from repro.experiments import build_method
        from repro.jobs import JobExecutorConfig
        from repro.serve import (
            BatchPolicy, JobService, ModelRegistry, PredictServer,
            ServeConfig, ServedModel,
        )

        grid = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)
        registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
        nn.init.seed(0)
        model, _ = build_method("DeepCNN", grid)
        model.set_output_stats(0.5, 1.0)
        registry.publish(model, "DeepCNN", grid, "peb")
        loaded, manifest = registry.load("peb")
        served = ServedModel(loaded, manifest, BatchPolicy(max_wait_ms=2.0))
        jobs = JobService(tmp_path_factory.mktemp("jobs"),
                          JobExecutorConfig(poll_interval_s=0.02))
        server = PredictServer(served, ServeConfig(port=0),
                               jobs=jobs).start()
        yield server
        server.shutdown()

    def url(self, jobs_server):
        host, port = jobs_server.address
        return f"http://{host}:{port}"

    def test_submit_watch_and_list(self, jobs_server, capsys):
        url = self.url(jobs_server)
        code = run_cli(["jobs", "submit", "--url", url, "--type", "counter",
                        "--params", '{"iterations": 4}', "--watch",
                        "--poll-s", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "completed" in out
        assert '"checksum"' in out

        assert run_cli(["jobs", "list", "--url", url]) == 0
        assert "counter" in capsys.readouterr().out

    def test_status_and_cancel(self, jobs_server, capsys):
        url = self.url(jobs_server)
        assert run_cli(["jobs", "submit", "--url", url, "--type", "counter",
                        "--params", '{"iterations": 100000}']) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert run_cli(["jobs", "status", "--url", url, job_id]) == 0
        assert job_id in capsys.readouterr().out
        assert run_cli(["jobs", "cancel", "--url", url, job_id]) == 0
        assert job_id in capsys.readouterr().out

    def test_unknown_type_is_friendly(self, jobs_server, capsys):
        code = run_cli(["jobs", "submit", "--url", self.url(jobs_server),
                        "--type", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown job type" in err
        assert "Traceback" not in err

    def test_unreachable_server_is_friendly(self, capsys):
        code = run_cli(["jobs", "list", "--url", "http://127.0.0.1:1",
                        "--timeout", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "is the server running" in err

    def test_serve_parser_jobs_flags(self):
        args = cli.build_parser().parse_args(["serve"])
        assert args.jobs_dir == ".repro_jobs"
        assert not args.no_jobs
        args = cli.build_parser().parse_args(["serve", "--no-jobs"])
        assert args.no_jobs
