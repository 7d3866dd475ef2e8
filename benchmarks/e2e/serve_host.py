"""Traced server launcher: ``repro serve`` with the benchmark's span wrappers.

    python3 serve_host.py SPANS_DIR serve --ckpt ... [any serve flags]

Installs :func:`tracing.install_server`, then runs the unmodified CLI
entry point ``repro.cli.main(["serve", ...])``.  The CLI drains and
returns on SIGTERM; the spans recorded in memory are then written to
``SPANS_DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    directory = Path(argv[0])
    recorder = tracing.Recorder()
    tracing.install_server(recorder)
    try:
        return cli_main(argv[1:])
    finally:
        recorder.flush(directory)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
