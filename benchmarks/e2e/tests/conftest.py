"""Make the benchmark's modules and the program under test importable.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repo root.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
for path in (E2E.parent.parent / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
