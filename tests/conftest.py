"""The `python -m polyfam` processes that the tests start import the same
`src/` tree as the tests themselves, never an installed copy."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)
