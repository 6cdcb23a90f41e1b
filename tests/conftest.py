"""The `python -m polyfam` processes that the tests start import the same
`src/` tree as the tests themselves, never an installed copy. Each runs in
development mode with warnings as errors (`-X dev -W error`), so a command
that warns fails its test. `readme_table` reads a README table for the tests
that hold the README in step with the code."""

import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)
PYTHON = (sys.executable, "-X", "dev", "-W", "error")
CLI = (*PYTHON, "-m", "polyfam")


def run_cli(*args):
    """Run `python -m polyfam` with `args`. A child that hangs fails its test
    after two minutes instead of stalling the suite."""
    return subprocess.run(
        [*CLI, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def readme_table(header):
    """The rows of the README table under the line `header`, each a tuple of
    its cells, stripped."""
    lines = (Path(SRC).parent / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    return [tuple(cell.strip() for cell in row.strip("|").split("|")) for row in rows]
