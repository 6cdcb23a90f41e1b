"""End-to-end acceptance gate for the package.

Every check here is exact: values are `fractions.Fraction` and comparisons
are zero tolerance. Random grids are seeded, so the whole module is
deterministic. The two command-line checks run the installed module in a
subprocess and compare raw bytes.
"""

import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from conftest import run_cli
from oracles import mp_poly_first_oracle, mp_poly_second_oracle
from polyfam.algebra import box_moments, integer_samples
from polyfam.bernoulli import (
    classic_poly_bernoulli,
    li_gf_check,
    mp_bernoulli,
    mp_bernoulli_gf_check,
    mp_bernoulli_poly,
)
from polyfam.cauchy import (
    FamilyPoint,
    generalized_harmonic,
    lif_gf_check,
    modified_bell,
    mp_first_bell,
    mp_first_closed,
    mp_first_def,
    mp_first_noncentral,
    mp_first_via_polycauchy,
    mp_poly_first,
    mp_poly_second,
    mp_second_closed,
    mp_second_def,
    mp_second_lah,
)
from polyfam.harness import GridSpec, sweep
from polyfam.stirling import comtet_first, inversion_check
from polyfam.transforms import bernoulli_from_first

SEED = 108


def rand_rat(rng, bound=20, nonzero=False, nonnegative=False):
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if nonnegative:
            value = abs(value)
        if value != 0 or not nonzero:
            return value


def random_grid(seed, count, n_max, k_max, nonzero_alpha=False,
                nonnegative_alpha=False):
    """Seeded random family points: (n, k, alpha, lengths) tuples."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        n = rng.randint(0, n_max)
        k = rng.randint(1, k_max)
        alpha = tuple(
            rand_rat(rng, nonzero=nonzero_alpha,
                     nonnegative=nonnegative_alpha)
            for _ in range(n)
        )
        lengths = tuple(rand_rat(rng, nonzero=True) for _ in range(k))
        points.append(FamilyPoint(n, k, alpha, lengths))
    return points


def test_first_kind_oracle_equivalence():
    started = time.monotonic()
    for p in random_grid(SEED, 25, n_max=8, k_max=3):
        value = mp_first_def(p)
        assert mp_first_closed(p) == value
        assert mp_first_noncentral(p) == value
        assert mp_first_via_polycauchy(p) == value
    assert time.monotonic() - started < 10.0


def test_all_twelve_routes_agree_at_a_large_point():
    # One seeded n=30, k=2 point with height-20 parameters and lengths: every
    # triangle route against the definitions, every polynomial against its
    # numbers at z=0, and the Bernoulli type against the inversion from the
    # definitional first-kind vector.
    rng = random.Random(SEED + 30)
    n, k = 30, 2
    alpha = tuple(rand_rat(rng, nonzero=True) for _ in range(n))
    lengths = tuple(rand_rat(rng, nonzero=True) for _ in range(k))
    p = FamilyPoint(n, k, alpha, lengths)
    first, second = mp_first_def(p), mp_second_def(p)
    for route in (mp_first_closed, mp_first_noncentral, mp_first_via_polycauchy,
                  mp_first_bell):
        assert route(p) == first, route.__name__
    for route in (mp_second_closed, mp_second_lah):
        assert route(p) == second, route.__name__
    bernoulli = mp_bernoulli(p)
    assert mp_poly_first(p)(0) == first
    assert mp_poly_second(p)(0) == second
    assert mp_bernoulli_poly(p)(0) == bernoulli
    vector = [mp_first_def(FamilyPoint(j, k, alpha, lengths)) for j in range(n + 1)]
    assert bernoulli_from_first(n, alpha, vector) == bernoulli


def test_the_table_routes_hold_no_whole_triangle():
    # One seeded n=320, k=2 point: the closed forms and the Bernoulli type
    # read row n on the way (`stirling._rows`), so neither holds the O(n^3)
    # bits of a size-n table, which peaked near 25 and 6 MiB here.
    rng = random.Random(SEED + 320)
    n, k = 320, 2
    alpha = tuple(rand_rat(rng) for _ in range(n))
    lengths = tuple(rand_rat(rng, nonzero=True) for _ in range(k))
    p = FamilyPoint(n, k, alpha, lengths)
    for route in (mp_bernoulli, mp_first_closed):
        tracemalloc.start()
        try:
            route(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (route.__name__, peak / 2**20)


def test_second_kind_oracle_equivalence():
    started = time.monotonic()
    for p in random_grid(SEED, 25, n_max=8, k_max=3):
        value = mp_second_def(p)
        assert mp_second_lah(p) == value
        assert mp_second_closed(p) == value
    # On nonnegative parameters the signless triangle coincides with the
    # entrywise absolute value of the first-kind one, so the closed form
    # survives being read with absolute values.
    for p in random_grid(SEED + 1, 25, n_max=8, k_max=3,
                         nonnegative_alpha=True):
        value = mp_second_def(p)
        assert mp_second_closed(p) == value
        row = comtet_first(p.alpha[: p.n], p.n).row(p.n)
        moments = box_moments(p.lengths, p.n)
        abs_reading = Fraction((-1) ** p.n) * sum(
            (abs(c) * moments.coefficient(m) for m, c in enumerate(row)),
            Fraction(0),
        )
        assert abs_reading == value
    assert time.monotonic() - started < 10.0


def test_bell_polynomial_route():
    for p in random_grid(SEED + 2, 20, n_max=6, k_max=3, nonzero_alpha=True):
        assert mp_first_bell(p) == mp_first_def(p)
    # Reciprocal power sums of n parameters kill every weighted Bell
    # polynomial above index n.
    rng = random.Random(SEED + 3)
    for _ in range(10):
        n = rng.randint(0, 6)
        alpha = tuple(rand_rat(rng, nonzero=True) for _ in range(n))
        harmonics = generalized_harmonic(alpha, n, 10)
        args = tuple(-h for h in harmonics)
        for m in range(n + 1, 11):
            assert modified_bell(m, args) == 0


def test_classical_anchor_values():
    first = [
        mp_first_def(FamilyPoint(n, 1, tuple(range(n)), (1,))) for n in range(5)
    ]
    assert first == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-19, 30),
    ]
    assert mp_second_def(FamilyPoint(2, 1, (0, 1), (1,))) == Fraction(5, 6)
    assert classic_poly_bernoulli(1, 1) == Fraction(1, 2)
    assert classic_poly_bernoulli(2, 1) == Fraction(1, 6)


def test_generating_function_checks():
    started = time.monotonic()
    for k in (1, 2, 3):
        lhs, rhs = lif_gf_check(k, 8)
        assert lhs == rhs
        lhs, rhs = li_gf_check(k, 8)
        assert lhs == rhs
    for k in (1, 2):
        lhs, rhs = mp_bernoulli_gf_check(
            FamilyPoint(6, k, tuple(range(1, 8)), (Fraction(1),) * k)
        )
        assert lhs == rhs
    assert time.monotonic() - started < 5.0


def test_orthogonality_and_inversion_round_trips():
    rng = random.Random(SEED + 4)
    for _ in range(10):
        alpha = tuple(rand_rat(rng, bound=10) for _ in range(10))
        assert inversion_check(alpha, 10)
    ids = ["T4.2a", "T4.2b", "T4.3a", "T4.3b",
           "T5.2a", "T5.2b", "T5.2c", "T5.2d"]
    for report in sweep(ids=ids, grid=GridSpec(), seed=SEED):
        assert report.corrected == "PASS", (report.identity, report.note)


def test_polynomial_families_match_shifted_oracles():
    for p in random_grid(SEED + 5, 15, n_max=6, k_max=2):
        samples = integer_samples(p.n + 1)
        first = mp_poly_first(p)
        second = mp_poly_second(p)
        bern = mp_bernoulli_poly(p)
        for z in samples:
            assert first(z) == mp_poly_first_oracle(p, z)
            assert second(z) == mp_poly_second_oracle(p, z)
            # The factorial-weighted family has no direct integral
            # definition; its oracle is the first-kind connection applied
            # to shifted definitional integrals.
            oracle_values = [
                mp_poly_first_oracle(
                    FamilyPoint(j, p.k, p.alpha, p.lengths), z
                )
                for j in range(p.n + 1)
            ]
            assert bern(z) == bernoulli_from_first(
                p.n, p.alpha, oracle_values
            )
        prod = Fraction(1)
        for l in p.lengths:
            prod *= l
        for poly, leading in (
            (first, Fraction((-1) ** p.n) * prod),
            (second, prod),
            (bern, Fraction((-1) ** p.n) * math.factorial(p.n) * prod),
        ):
            assert len(poly.num) - 1 == p.n
            assert poly.coeffs[-1] == leading


def test_specialization_web():
    ids = ["CASES-2", "CASES-3",
           "C2.1", "C2.2", "C3.1", "C3.2",
           "C4.1a", "C4.1b", "C4.2a", "C4.2b", "C5.1a", "C5.1b"]
    for report in sweep(ids=ids, grid=GridSpec(), seed=SEED):
        assert report.corrected == "PASS", (report.identity, report.note)


def test_errata_ledger_via_cli():
    full = run_cli("verify", "--ids", "all")
    assert full.returncode == 0
    failed_ids = []
    for line in full.stdout.splitlines():
        rec = json.loads(line)
        assert rec["corrected"] != "FAIL", rec
        if rec["verbatim"] == "FAIL" and rec["identity"] not in failed_ids:
            failed_ids.append(rec["identity"])
    errata = run_cli("verify", "--ids", "all", "--errata")
    assert errata.returncode == 0
    entries = json.loads(errata.stdout)["entries"]
    assert [e["identity"] for e in entries] == failed_ids
    for entry in entries:
        assert entry["verbatim_failures"] >= 1
        assert entry["counterexample"]["point"]["n"] >= 0
        assert entry["corrected_reading"]
    again = run_cli("verify", "--ids", "all", "--errata")
    assert again.stdout == errata.stdout


def test_verify_is_deterministic_across_processes():
    first = run_cli("verify")
    second = run_cli("verify")
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_readme_quick_start_runs_as_stated():
    # The README's Python block runs as written, and every value a comment
    # states as a Fraction is the value of the line it annotates.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        match = re.match(r" Fraction\((-?\d+), (\d+)\)", comment)
        if match:
            want = Fraction(int(match[1]), int(match[2]))
            assert eval(code, scope) == want, line
            stated.append(want)
    assert stated == [Fraction(73, 48), Fraction(73, 48), Fraction(35, 48)]
