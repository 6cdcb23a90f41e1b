"""The bytecode instructions of one seed-0 deep sweep.

    python3 tools/opcount.py [TREE]

In a child process with PYTHONHASHSEED=0 it imports polyfam from TREE's
`src/` (this checkout by default), runs one untraced warm-up sweep, then
counts the `opcode` trace events of one seed-0 sweep at the grid
`perfbench/run.py` names SWEEP_GRID, and prints the count. The count repeats
to the instruction across runs and hash seeds, but differs between Python
versions: compare counts taken on one. It does not see work inside C.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = """
import sys
from polyfam.harness import GridSpec, sweep

grid, count = GridSpec(**{grid!r}), 0

def trace(frame, event, arg):
    global count
    frame.f_trace_opcodes = True
    count += event == "opcode"
    return trace

sweep(grid=grid, seed=0)
sys.settrace(trace)
sweep(grid=grid, seed=0)
sys.settrace(None)
print(count)
"""


def sweep_grid() -> dict:
    """SWEEP_GRID as `perfbench/run.py` assigns it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "SWEEP_GRID"
    ]
    return ast.literal_eval(value)


def count(tree: Path, grid: dict | None = None, hashseed: int = 0) -> int:
    """The instructions of one seed-0 sweep at `grid` (SWEEP_GRID by default)
    of the package in `tree`/src, in a child with PYTHONHASHSEED=`hashseed`."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    env["PYTHONHASHSEED"] = str(hashseed)
    code = CHILD.format(grid=sweep_grid() if grid is None else grid)
    child = [sys.executable, "-c", code]
    proc = subprocess.run(child, env=env, check=True, capture_output=True, text=True)
    return int(proc.stdout)


if __name__ == "__main__":
    print(count(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT))
