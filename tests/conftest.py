"""The `python -m polyfam` processes that the tests start import the same
`src/` tree as the tests themselves, never an installed copy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)


def run_cli(*args):
    """Run `python -m polyfam` with `args`. A child that hangs fails its test
    after two minutes instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "polyfam", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
