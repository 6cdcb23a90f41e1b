"""The review rule that `tools/pairs.py` prints per metric, on synthetic
pairs: ten parent runs against ten change runs of one metric."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# A parent whose median is 100 and whose IQR is 2 (quartiles 99 and 101).
PARENT = [98, 99, 99, 99.5, 100, 100, 100.5, 101, 101, 102]


@pytest.mark.parametrize("lower", [False, True])
def test_a_change_that_wins_nine_pairs_by_more_than_the_iqr_is_a_gain(lower):
    step = -5 if lower else 5
    change = [p + step for p in PARENT]
    change[0] = PARENT[0] - step  # one lost pair of ten
    assert pairs.verdict(PARENT, change, lower, 0.25) == "gain"


def test_eight_wins_or_a_gap_within_the_iqr_is_no_gain():
    eight = [p + 5 for p in PARENT]
    eight[0], eight[1] = PARENT[0] - 1, PARENT[1]  # a loss and a tie
    assert pairs.verdict(PARENT, eight, False, 0.25) == "no regression"
    close = [p + 1 for p in PARENT]  # wins every pair, medians 1 apart
    assert pairs.verdict(PARENT, close, False, 0.25) == "no regression"
    assert pairs.verdict(PARENT, list(PARENT), False, 0.25) == "no regression"


@pytest.mark.parametrize("lower", [False, True])
def test_a_median_past_the_bound_is_worse(lower):
    change = [p * 0.7 for p in PARENT] if not lower else [p * 1.3 for p in PARENT]
    assert pairs.verdict(PARENT, change, lower, 0.25) == "worse"
    within = [p * 0.8 for p in PARENT] if not lower else [p * 1.2 for p in PARENT]
    assert pairs.verdict(PARENT, within, lower, 0.25) == "no regression"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]  # IQR / median > 0.25
    assert pairs.verdict(wide, list(wide), False, 0.25) == "unresolved"
    # Unless every change run beats every parent run.
    above = [150 + i for i in range(10)]
    assert pairs.verdict(wide, above, False, 0.25) == "gain"
    below = [50 - i for i in range(10)]
    assert pairs.verdict(wide, below, True, 0.25) == "gain"
    # A worse median is reported as worse, however wide the spread.
    assert pairs.verdict(wide, [v / 2 for v in wide], False, 0.25) == "worse"
