"""The review rule that `tools/pairs.py` prints per metric, on synthetic
pairs: ten parent runs against ten change runs of one metric; the JSON
document its `--record` writes, from synthetic runs; and the instruction
count of `tools/opcount.py`, on small sweeps."""

import importlib.util
import json
import platform
import shutil
import statistics
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, opcount = _load("pairs"), _load("opcount")

# A parent whose median is 100 and whose IQR is 2 (quartiles 99 and 101).
PARENT = [98, 99, 99, 99.5, 100, 100, 100.5, 101, 101, 102]


@pytest.mark.parametrize("lower", [False, True])
def test_a_change_that_wins_nine_pairs_by_more_than_the_iqr_is_a_gain(lower):
    step = -5 if lower else 5
    change = [p + step for p in PARENT]
    change[0] = PARENT[0] - step  # one lost pair of ten
    assert pairs.figures(PARENT, change, lower, 0.25)["verdict"] == "gain"


def test_eight_wins_or_a_gap_within_the_iqr_is_no_gain():
    eight = [p + 5 for p in PARENT]
    eight[0], eight[1] = PARENT[0] - 1, PARENT[1]  # a loss and a tie
    assert pairs.figures(PARENT, eight, False, 0.25)["verdict"] == "no regression"
    close = [p + 1 for p in PARENT]  # wins every pair, medians 1 apart
    assert pairs.figures(PARENT, close, False, 0.25)["verdict"] == "no regression"
    assert (
        pairs.figures(PARENT, list(PARENT), False, 0.25)["verdict"] == "no regression"
    )


@pytest.mark.parametrize("lower", [False, True])
def test_a_median_past_the_bound_is_worse(lower):
    change = [p * 0.7 for p in PARENT] if not lower else [p * 1.3 for p in PARENT]
    assert pairs.figures(PARENT, change, lower, 0.25)["verdict"] == "worse"
    within = [p * 0.8 for p in PARENT] if not lower else [p * 1.2 for p in PARENT]
    assert pairs.figures(PARENT, within, lower, 0.25)["verdict"] == "no regression"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]  # IQR / median > 0.25
    assert pairs.figures(wide, list(wide), False, 0.25)["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    above = [150 + i for i in range(10)]
    assert pairs.figures(wide, above, False, 0.25)["verdict"] == "gain"
    below = [50 - i for i in range(10)]
    assert pairs.figures(wide, below, True, 0.25)["verdict"] == "gain"
    # A worse median is reported as worse, however wide the spread.
    assert pairs.figures(wide, [v / 2 for v in wide], False, 0.25)["verdict"] == "worse"


def _values(ops):
    return {"setup_s": 0.015, "ops_per_s": ops, "peak_rss_mb": 22.9}


def test_record_writes_every_pair_and_the_printed_summary(tmp_path, monkeypatch):
    # Synthetic runs: the change is 10% faster on every workload, and one
    # parent run of the first workload fails.
    parent_tree = tmp_path / "parent"
    (parent_tree / "src" / "polyfam").mkdir(parents=True)
    (parent_tree / "src" / "polyfam" / "a.py").write_text("x = 1\ny = 2\n")
    monkeypatch.setattr(pairs, "export", lambda rev, scratch: parent_tree)
    # rev-parse echoes its revision, and status finds nothing uncommitted.
    git = lambda *args: "" if args[0] == "status" else args[-1]  # noqa: E731
    monkeypatch.setattr(pairs, "git", git)
    first = pairs.SPEC["workloads"][0]["name"]

    def run(tree, workload, seed):
        if tree == parent_tree:
            return None if (workload, seed) == (first, 3) else _values(PARENT[seed])
        return _values(PARENT[seed] * 1.1)

    monkeypatch.setattr(pairs, "run", run)
    # The fake tree has no package to count.
    count = lambda tree: 400 if tree == parent_tree else 404  # noqa: E731
    monkeypatch.setattr(pairs, "instructions", count)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--parent", "abc123", "--record", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["commits"] == {
        "parent": "abc123", "change": "HEAD", "change_uncommitted": False
    }
    assert doc["python"] == platform.python_version() and doc["nproc"] >= 1
    assert doc["src_lines"]["parent"] == 2 and doc["src_lines"]["change"] > 0
    assert doc["instructions"] == {"parent": 400, "change": 404, "ratio": 1.01}
    assert doc["run_seconds"] == pairs.SPEC["run_seconds"]
    assert list(doc["workloads"]) == [w["name"] for w in pairs.SPEC["workloads"]]
    for name, workload in doc["workloads"].items():
        rows = workload["pairs"]
        assert [r["seed"] for r in rows] == list(range(pairs.PAIRS))
        assert [r["first"] for r in rows] == ["parent", "change"] * (pairs.PAIRS // 2)
        assert rows[4]["change"]["ops_per_s"] == PARENT[4] * 1.1
        complete = [i for i in range(pairs.PAIRS) if not (name == first and i == 3)]
        assert workload["failed"] == pairs.PAIRS - len(complete)
        ops = workload["metrics"]["ops_per_s"]
        parent = [PARENT[i] for i in complete]
        assert ops["parent_median"] == statistics.median(parent)
        assert ops["change_wins"] == len(complete) and ops["verdict"] == "gain"
        assert ops["worse_by"] == pytest.approx(-0.1)
        assert workload["metrics"]["setup_s"]["verdict"] == "no regression"
    assert doc["workloads"][first]["pairs"][3]["parent"] is None


# Every id at a few small points: counted in a fraction of SWEEP_GRID's time.
SMALL_GRID = {"n_max": 3, "k_max": 2, "points": 1, "series_order": 3, "bound": 5}


def test_the_count_repeats_over_runs_and_hash_seeds():
    assert opcount.sweep_grid() == {
        "n_max": 14, "k_max": 2, "points": 3, "series_order": 6, "bound": 20
    }
    counts = [opcount.count(opcount.ROOT, SMALL_GRID, seed) for seed in (0, 0, 1)]
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_a_planted_loop_raises_the_count(tmp_path):
    shutil.copytree(opcount.ROOT / "src" / "polyfam", tmp_path / "src" / "polyfam")
    harness = tmp_path / "src" / "polyfam" / "harness.py"
    body = "    entry = _BY_ID.get(identity)\n"
    text = harness.read_text()
    assert text.count(body) == 1
    harness.write_text(text.replace(body, "    for _ in range(3):\n        pass\n" + body))
    planted = opcount.count(tmp_path, SMALL_GRID)
    assert planted > opcount.count(opcount.ROOT, SMALL_GRID)
