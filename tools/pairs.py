"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/pairs.py --parent REV [--scratch DIR] [--record PATH]

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
against the metric's bound, how many pairs the change won, and the review
verdict (`figures`): gain, worse, unresolved or no regression. A failed or
incorrect run is printed and counted, never folded into a median. The export
is removed at the end.

With `--record PATH` it also writes what it printed as one JSON document
(`document`): every pair's values, and per workload and metric the medians,
the parent's IQR, the wins and the verdict; beside them the two commits, the
Python version, the CPU count (`nproc`), each side's `wc -l src/polyfam/*.py`
and `wc -l tests/*.py` totals, and each side's bytecode instructions in one
seed-0 deep sweep, as this checkout's `tools/opcount.py` counts them, with
their ratio. No verdict reads the counts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
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
        handle.extractall(tree, filter="data")
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


def figures(
    parent: list[float], change: list[float], lower: bool, bound: float
) -> dict:
    """The review rule for one metric over pairs (parent[i], change[i]), with
    the figures it reads: the two medians, the parent's quartiles and IQR, how
    much worse the change's median is (relative to the parent's, so negative
    is better), the bound, the change's wins (a tie counts for neither side)
    and the verdict:

    worse          the change's median is worse than the parent's by more
                   than `bound` (relative to the parent's median);
    unresolved     the parent's IQR over its median is wider than `bound`,
                   unless every change run beats every parent run;
    gain           the change wins at least 9 of 10 pairs and its median is
                   better than the parent's by more than the parent's IQR;
    no regression  none of these.
    """
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gained = mp - mc if lower else mc - mp
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if -gained > bound * abs(mp):
        rule = "worse"
    elif q3 - q1 > bound * abs(mp) and not separated:
        rule = "unresolved"
    elif wins * 10 >= 9 * len(parent) and gained > q3 - q1:
        rule = "gain"
    else:
        rule = "no regression"
    return {
        "parent_median": mp,
        "change_median": mc,
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_iqr": q3 - q1,
        "worse_by": -gained / mp,
        "bound": bound,
        "change_wins": wins,
        "verdict": rule,
    }


def summary(pairs: list[tuple[dict, dict]]) -> dict:
    """`figures` per end-to-end metric, over pairs (parent, change) of run
    values."""
    return {
        metric["name"]: figures(
            [p[metric["name"]] for p, _ in pairs],
            [c[metric["name"]] for _, c in pairs],
            metric["better"] == "lower",
            metric["bound"],
        )
        for metric in METRICS
    }


def report(workload: str, pairs: list[tuple[dict, dict]]) -> None:
    print(f"\n{workload}: {len(pairs)} complete pairs")
    for name, s in summary(pairs).items():
        print(
            f"  {name:12s} parent median {s['parent_median']:.6g} "
            f"(IQR {s['parent_q1']:.6g}..{s['parent_q3']:.6g}, {s['parent_iqr']:.3g})  "
            f"change median {s['change_median']:.6g}  worse by {s['worse_by']:+.1%} "
            f"(bound {s['bound']:.0%})  change wins {s['change_wins']}/{len(pairs)}  "
            f"{s['verdict']}"
        )


def line_counts(parent: Path, pattern: str) -> dict:
    """The totals that `wc -l PATTERN` prints in the parent's tree and in this
    checkout."""
    return {
        side: sum(path.read_bytes().count(b"\n") for path in tree.glob(pattern))
        for side, tree in (("parent", parent), ("change", ROOT))
    }


def instructions(tree: Path) -> int | None:
    """The count `tools/opcount.py` prints for `tree`, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "opcount.py"), str(tree)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"  opcount FAILED {tree.name}", proc.stderr[-2000:], file=sys.stderr)
        return None
    return int(proc.stdout)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def document(meta: dict, runs: dict) -> dict:
    """The JSON document `--record` writes. `meta` holds the commits, the
    Python version, nproc and the source and test line counts; `runs` maps each
    workload to its list of (seed, parent values, change values), a failed
    side as None. Every pair is listed with the side that ran first; only
    the complete ones enter the medians."""
    workloads = {}
    for workload, rows in runs.items():
        complete = [(p, c) for _, p, c in rows if p is not None and c is not None]
        workloads[workload] = {
            "pairs": [
                {
                    "seed": seed,
                    "first": "parent" if seed % 2 == 0 else "change",
                    "parent": p,
                    "change": c,
                }
                for seed, p, c in rows
            ],
            "failed": len(rows) - len(complete),
            "metrics": summary(complete) if len(complete) > 1 else {},
        }
    return {**meta, "run_seconds": SPEC["run_seconds"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--scratch", default=None, help="where the export goes")
    parser.add_argument("--record", default=None, help="write the pairs as JSON here")
    args = parser.parse_args(argv)
    parent = export(args.parent, args.scratch)
    names = [m["name"] for m in METRICS]
    runs, failed = {}, 0
    try:
        meta = {
            "commits": {
                "parent": git("rev-parse", args.parent),
                "change": git("rev-parse", "HEAD"),
                "change_uncommitted": bool(git("status", "--porcelain", "--", "src")),
            },
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": line_counts(parent, "src/polyfam/*.py"),
            "test_lines": line_counts(parent, "tests/*.py"),
        }
        counts = {"parent": instructions(parent), "change": instructions(ROOT)}
        ratio = None if None in counts.values() else counts["change"] / counts["parent"]
        meta["instructions"] = {**counts, "ratio": ratio}
        print(f"instructions per deep sweep: {counts}, ratio {ratio}")
        for workload in (w["name"] for w in SPEC["workloads"]):
            print(f"\n{workload}: seed  " + "  ".join(f"{n} parent/change" for n in names))
            rows = runs[workload] = []
            for seed in range(PAIRS):
                sides = [parent, ROOT] if seed % 2 == 0 else [ROOT, parent]
                got = {tree: run(tree, workload, seed) for tree in sides}
                p, c = got[parent], got[ROOT]
                rows.append((seed, p, c))
                if p is None or c is None:
                    failed += 1
                    continue
                cells = "  ".join(f"{p[n]:.6g}/{c[n]:.6g}" for n in names)
                first = "parent" if seed % 2 == 0 else "change"
                print(f"  {seed:4d}  {cells}  ({first} first)", flush=True)
            pairs = [(p, c) for _, p, c in rows if p is not None and c is not None]
            if len(pairs) > 1:
                report(workload, pairs)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    if args.record:
        text = json.dumps(document(meta, runs), indent=2) + "\n"
        Path(args.record).write_text(text)
    if failed:
        print(f"\n{failed} pair(s) had a failed run", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
