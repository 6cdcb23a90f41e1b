import gc
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from polyfam.algebra import Polynomial
from polyfam.cauchy import FamilyPoint, mp_second_def
from polyfam.harness import (
    CATALOG,
    IDENTITY_IDS,
    GridSpec,
    ParamPoint,
    bernoulli_from_first,
    bernoulli_from_second,
    errata_ledger,
    first_from_bernoulli,
    point_to_json,
    second_from_bernoulli,
    summarize,
    sweep,
    verify,
)

SMALL = GridSpec(n_max=3, k_max=1, points=2, series_order=4, bound=6)


def rand_vectors(seed, size):
    rng = random.Random(seed)
    alpha = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)
    )
    numbers = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(size + 1)
    ]
    polys = [
        Polynomial([rng.randint(-4, 4) for _ in range(j + 2)])
        for j in range(size + 1)
    ]
    return alpha, numbers, polys


README = Path(__file__).resolve().parents[1] / "README.md"


def test_identity_catalog_is_complete_and_unique():
    assert IDENTITY_IDS == tuple(entry.id for entry in CATALOG)
    assert len(IDENTITY_IDS) == 31
    assert len(set(IDENTITY_IDS)) == 31
    for entry in CATALOG:
        assert entry.statement
        assert callable(entry.evaluate)
        # Exactly the single-integral corollaries are evaluated at k = 1.
        assert entry.k1_only == entry.statement.startswith("single-integral case")


def test_corollaries_evaluate_their_parent_with_one_integration():
    point = ParamPoint(
        n=3, k=2, alpha=(1, "1/2", -2), lengths=(3, "1/3"), z0=2, q=2,
        series_order=4,
    )
    forced = ParamPoint(
        n=3, k=1, alpha=point.alpha, lengths=(3,), z0=2, q=2, series_order=4
    )
    for corollary, parent in (("C2.1", "T2.1"), ("C4.2b", "T4.3b"),
                              ("C5.1b", "T5.1b")):
        report = verify(corollary, point)
        expected = verify(parent, forced)
        assert report.point == point
        assert (report.verbatim, report.corrected, report.lhs, report.rhs) == (
            expected.verbatim, expected.corrected, expected.lhs, expected.rhs
        )


def test_readme_identity_table_matches_the_catalog():
    lines = README.read_text().splitlines()
    start = lines.index("| id | checks | status |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    assert rows == [
        (entry.id, entry.statement, "corrected" if entry.correction else "verbatim")
        for entry in CATALOG
    ]


def test_param_point_coerces_string_rationals():
    pt = ParamPoint(n=2, alpha=("1/2", -3), lengths=("2",), z0="1/4")
    assert pt.alpha == (Fraction(1, 2), Fraction(-3))
    assert pt.lengths == (Fraction(2),)
    assert pt.z0 == Fraction(1, 4)


def test_point_to_json_shape():
    pt = ParamPoint(n=1, k=2, alpha=(Fraction(1, 2),), lengths=(1, 1), q=3)
    doc = point_to_json(pt)
    assert sorted(doc) == ["alpha", "k", "lengths", "n", "order", "q", "z0"]
    assert doc["alpha"] == ["1/2"]
    assert doc["q"] == "3"
    assert doc["z0"] is None


def test_verify_reports_a_pass():
    pt = ParamPoint(n=2, k=1, alpha=(Fraction(1, 3), Fraction(-2)))
    report = verify("T2.1", pt)
    assert report.identity == "T2.1"
    assert report.verbatim == "PASS"
    assert report.corrected == "PASS"
    assert report.lhs == report.rhs


def test_verify_rejects_unknown_ids():
    with pytest.raises(ValueError):
        verify("T9.9", ParamPoint(n=0))


def test_precondition_violations_become_na():
    # The reciprocal-power-sum route needs nonzero parameters.
    report = verify("T2.4", ParamPoint(n=2, alpha=(0, 1)))
    assert report.verbatim == "NA"
    assert report.corrected == "NA"
    assert report.note.startswith("precondition violated")


def test_verbatim_and_corrected_columns_can_disagree():
    report = verify("T3.1", ParamPoint(n=2, alpha=(-1, 2)))
    assert report.corrected == "PASS"
    assert report.verbatim == "FAIL"
    assert "absolute-value" in report.note


def test_inversion_transform_anchor_values():
    # n = 1 with a single parameter 2 on the unit interval: the number
    # vector of the factorial-weighted family is (1, -3/2) and the
    # second-kind value it recovers is -5/2.
    alpha = (Fraction(2),)
    assert second_from_bernoulli(1, alpha, [Fraction(1), Fraction(-3, 2)]) == (
        Fraction(-5, 2)
    )
    assert mp_second_def(
        FamilyPoint(1, 1, alpha, (Fraction(1),))
    ) == Fraction(-5, 2)


def test_number_transforms_round_trip():
    for seed in range(3):
        alpha, numbers, _ = rand_vectors(seed, 5)
        via_b = [
            bernoulli_from_second(n, alpha, numbers[: n + 1])
            for n in range(6)
        ]
        back = [
            second_from_bernoulli(n, alpha, via_b[: n + 1]) for n in range(6)
        ]
        assert back == numbers

        via_b = [
            bernoulli_from_first(n, alpha, numbers[: n + 1]) for n in range(6)
        ]
        back = [
            first_from_bernoulli(n, alpha, via_b[: n + 1]) for n in range(6)
        ]
        assert back == numbers


def test_polynomial_transforms_round_trip():
    alpha, _, polys = rand_vectors(11, 4)
    via_b = [bernoulli_from_first(n, alpha, polys[: n + 1]) for n in range(5)]
    back = [first_from_bernoulli(n, alpha, via_b[: n + 1]) for n in range(5)]
    assert back == polys


def test_sweep_is_deterministic_and_ordered():
    first = sweep(grid=SMALL, seed=3)
    second = sweep(grid=SMALL, seed=3)
    assert first == second
    order = [IDENTITY_IDS.index(r.identity) for r in first]
    assert order == sorted(order)
    assert sweep(grid=SMALL, seed=4) != first


def test_repeated_sweeps_hold_no_growing_state():
    grid = GridSpec(n_max=6, points=5)
    held = []
    tracemalloc.start()
    try:
        for seed in (101, 102, 103):
            sweep(grid=grid, seed=seed)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[2] <= held[0] + 64 * 1024, held


def test_sweep_rejects_unknown_ids():
    with pytest.raises(ValueError):
        sweep(ids=["T2.1", "bogus"], grid=SMALL)


def test_summarize_counts_verdicts():
    reports = sweep(ids=["T2.1"], grid=SMALL, seed=0)
    summary = summarize(reports)
    assert list(summary) == ["T2.1"]
    counts = summary["T2.1"]
    total = sum(counts["corrected"].values())
    assert total == len(reports)
    assert counts["corrected"]["FAIL"] == 0


def test_errata_ledger_entries():
    reports = sweep(ids=["T2.1", "T3.1"], grid=GridSpec(points=6), seed=0)
    ledger = errata_ledger(reports)
    ids = [e["identity"] for e in ledger["entries"]]
    assert ids == ["T3.1"]
    entry = ledger["entries"][0]
    assert sorted(entry) == [
        "corrected_reading",
        "counterexample",
        "identity",
        "points_checked",
        "statement",
        "verbatim_failures",
    ]
    assert entry["verbatim_failures"] >= 1
    assert entry["points_checked"] == len(
        [r for r in reports if r.identity == "T3.1"]
    )
    cex = entry["counterexample"]
    assert sorted(cex) == ["lhs", "note", "point", "rhs"]
    # Minimality: no failing point is smaller than the chosen one.
    again = errata_ledger(sweep(ids=["T2.1", "T3.1"], grid=GridSpec(points=6), seed=0))
    assert again == ledger


def test_corrected_mode_passes_everywhere_on_a_small_grid():
    reports = sweep(grid=SMALL, seed=2)
    bad = [r for r in reports if r.corrected == "FAIL"]
    assert bad == []
