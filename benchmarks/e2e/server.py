"""The ``repro serve`` process under test: spawn, readiness, scrape, stop.

The server runs exactly as a user starts it: ``python -m repro.cli
serve`` with CLI defaults for the engine, workers, batching, cache,
health checks, telemetry, flight recorder and jobs.  Only deployment
paths are given (``--port 0``, ``--jobs-dir``, ``--flight-dir`` and the
working directory, all inside the benchmark's scratch directory), and
``REPRO_*`` variables are removed from its environment, so a later
change of a default is measured rather than masked.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def program_env(root: Path) -> dict:
    """The caller's environment without ``REPRO_*``, importing ``root/src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro serve`` process over a checkpoint, in its own directory."""

    def __init__(self, root: Path, workdir: Path, ckpt: Path,
                 spans_dir: Path | None = None):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        serve = ["serve", "--ckpt", str(ckpt), "--port", "0",
                 "--jobs-dir", str(workdir / "jobs"), "--flight-dir", str(workdir)]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_host.py"), str(spans_dir), *serve]
        self._out = open(workdir / "stdout.log", "w")
        self._err = open(workdir / "stderr.log", "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=workdir, env=program_env(root),
                                     stdout=self._out, stderr=self._err,
                                     stdin=subprocess.DEVNULL)
        self.host, self.port = "127.0.0.1", 0

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers 200."""
        deadline = self.started + READY_TIMEOUT_S
        log = self.workdir / "stdout.log"
        while not self.port:
            match = re.search(r"listening on http://([\d.]+):(\d+)", log.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.stderr_tail()}")
            else:
                time.sleep(0.005)
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server never became healthy: {self.stderr_tail()}")
            time.sleep(0.005)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` samples as ``{flat name: value}``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        samples = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()
        return self.proc.returncode

    def stderr_tail(self) -> str:
        self._err.flush()
        return (self.workdir / "stderr.log").read_text()[-2000:]
