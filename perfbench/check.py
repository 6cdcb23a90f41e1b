"""Check BENCHMARK.json against what the benchmark actually emits.

    python3 perfbench/check.py

Run it from the root of a checkout. It validates the shape of BENCHMARK.json
and every workload, metric and unit name in it, then makes a short smoke run
of each workload (seed 0, so the golden outputs are checked too) with
--trace 0 and --trace 1 and confirms that each run is correct and emits
exactly the metrics BENCHMARK.json lists, with their units.
Exits 1 and lists the problems if anything disagrees.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
SMOKE_SECONDS = 1


def check_spec(spec: dict) -> list:
    problems = []
    if set(spec) != TOP_KEYS:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(TOP_KEYS)}")
        return problems
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir():
            problems.append(f"path {path!r} is not a directory")
    names = []
    sections = (
        ("workloads", {"name", "why"}, 2, 8),
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    )
    for section, keys, low, high in sections:
        entries = spec[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section} has {len(entries)} entries, not {low}..{high}")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section} entry {entry} has keys other than {sorted(keys)}")
                continue
            names.append(entry["name"])
            if not NAME.fullmatch(entry["name"]):
                problems.append(f"bad name {entry['name']!r}")
            if "unit" in keys and not UNIT.fullmatch(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r} of {entry['name']}")
            if "better" in keys and entry["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better' of {entry['name']}")
            if "bound" in keys and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} outside (0, 0.25]")
            if "why" in keys and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of {entry['name']} is not one line of <= 200 chars")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    setup = [e for e in spec["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, better lower")
    listed = [w["name"] for w in spec["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        problems.append(f"workloads {listed} != run.py's {list(WORKLOADS)}")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", "0",
        "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where} exited {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: not correct ({result['failed']} failed); {proc.stderr[-1000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    expected = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    for name in sorted(set(expected) - set(emitted)):
        problems.append(f"{where}: {name} listed but not emitted")
    for name in sorted(set(emitted) - set(expected)):
        problems.append(f"{where}: {name} emitted but not listed")
    for name in sorted(set(expected) & set(emitted)):
        metric = emitted[name]
        if metric.get("unit") != expected[name]:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r} != {expected[name]!r}")
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} value {value!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    if not problems:
        for workload in WORKLOADS:
            for trace in (0, 1):
                problems += check_run(spec, workload, trace)
                print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
