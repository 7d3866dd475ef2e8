"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

The benchmark's modules import each other by file name, as they do when
``run.py`` runs them, so their directory goes on ``sys.path``.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
for entry in (ROOT / "src", E2E):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
