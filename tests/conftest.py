"""Let child processes (the mock provider) import igprobe from ``src``
when the package is not installed; ``pythonpath`` in pyproject.toml
covers the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
