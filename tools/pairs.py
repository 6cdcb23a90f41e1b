"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/pairs.py --parent REV [--scratch DIR]

Run it from the root of a checkout. It exports the committed files of REV
(`git archive`) into a fresh directory under DIR (the system temporary
directory by default) and runs `perfbench/run.py --trace 0` there and in the
working tree, each side with its own unchanged copy of the benchmark, for
BENCHMARK.json's run_seconds per run. Pair i of ten runs both sides at seed
i; even pairs run the parent first and odd pairs the change, so that a drift
in the host's speed does not favour one side. Every run of the tool has the
same length and count, so two changes' tables can be compared.

For each workload it prints every pair's end-to-end values, then per metric
the two medians, the parent's interquartile range, the change of the medians
against the metric's bound, and how many pairs the change won. A failed or
incorrect run is printed and counted, never folded into a median. The export
is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]
PAIRS = 10


def export(rev: str, scratch: str | None) -> Path:
    """The committed files of `rev`, unpacked into a new directory."""
    tree = Path(tempfile.mkdtemp(prefix="pairs-parent-", dir=scratch))
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as handle:
        handle.extractall(tree)
    return tree


def run(tree: Path, workload: str, seed: int) -> dict | None:
    """The end-to-end metrics of one untraced run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  FAILED {tree.name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(workload: str, pairs: list[tuple[dict, dict]]) -> None:
    print(f"\n{workload}: {len(pairs)} complete pairs")
    for metric in METRICS:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        mp, mc = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        worse = (mc - mp) / mp if lower else (mp - mc) / mp
        print(
            f"  {name:12s} parent median {mp:.6g} (IQR {q1:.6g}..{q3:.6g}, "
            f"{q3 - q1:.3g})  change median {mc:.6g}  worse by {worse:+.1%} "
            f"(bound {metric['bound']:.0%})  change wins {wins}/{len(pairs)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--scratch", default=None, help="where the export goes")
    args = parser.parse_args(argv)
    parent = export(args.parent, args.scratch)
    names = [m["name"] for m in METRICS]
    failed = 0
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            print(f"\n{workload}: seed  " + "  ".join(f"{n} parent/change" for n in names))
            pairs = []
            for seed in range(PAIRS):
                sides = [parent, ROOT] if seed % 2 == 0 else [ROOT, parent]
                got = {tree: run(tree, workload, seed) for tree in sides}
                p, c = got[parent], got[ROOT]
                if p is None or c is None:
                    failed += 1
                    continue
                pairs.append((p, c))
                cells = "  ".join(f"{p[n]:.6g}/{c[n]:.6g}" for n in names)
                first = "parent" if seed % 2 == 0 else "change"
                print(f"  {seed:4d}  {cells}  ({first} first)", flush=True)
            if len(pairs) > 1:
                report(workload, pairs)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    if failed:
        print(f"\n{failed} pair(s) had a failed run", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
