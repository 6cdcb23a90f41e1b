import gc
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import readme_table
from test_records import SWEEP_GRID
import polyfam
from polyfam import algebra, bernoulli, cauchy, harness, stirling, transforms
from polyfam.algebra import Polynomial, PreconditionError, TruncatedSeries
from polyfam.cauchy import FamilyPoint, mp_second_def
from polyfam.harness import (
    CATALOG,
    FAIL,
    IDENTITY_IDS,
    NA,
    PASS,
    GridSpec,
    ParamPoint,
    _ABS_FIRST,
    _ABS_FIRST_UNSIGNED,
    _FIRST,
    _SECOND,
    errata_ledger,
    point_to_json,
    summarize,
    sweep,
    verify,
)
from polyfam.stirling import comtet_first, comtet_second, signless_comtet_first
from polyfam.transforms import (
    _FROM_FIRST,
    _FROM_SECOND,
    _SIGNLESS_FIRST,
    _TO_FIRST,
    _expand,
    bernoulli_from_first,
    bernoulli_from_second,
    first_from_bernoulli,
    second_from_bernoulli,
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


def test_identity_catalog_is_complete_and_unique():
    assert IDENTITY_IDS == tuple(entry.id for entry in CATALOG)
    assert len(IDENTITY_IDS) == 31
    assert len(set(IDENTITY_IDS)) == 31
    for entry in CATALOG:
        assert entry.statement
        assert callable(entry.evaluate)
        # Exactly the single-integral corollaries are evaluated at k = 1.
        corollary = entry.statement.startswith("single-integral case")
        assert (entry.points == "k1") == corollary


def test_corollaries_evaluate_their_parent_with_one_integration():
    # At k = 1 a corollary is its parent; at any other k it is refused, and
    # the report names the point it was given.
    one = ParamPoint(
        n=3, k=1, alpha=(1, "1/2", -2), lengths=(3,), z0=2, q=2, series_order=4
    )
    two = ParamPoint(3, 2, one.alpha, (3, "1/3"), one.z0, one.q, one.series_order)
    for corollary, parent in (("C2.1", "T2.1"), ("C4.2b", "T4.3b"),
                              ("C5.1b", "T5.1b")):
        report, expected = verify(corollary, one), verify(parent, one)
        assert report.point == one
        assert (report.verbatim, report.corrected, report.lhs, report.rhs) == (
            expected.verbatim, expected.corrected, expected.lhs, expected.rhs
        )
        refused = verify(corollary, two)
        assert refused.point == two
        assert (refused.verbatim, refused.corrected, refused.lhs, refused.rhs) == (
            "NA", "NA", "", ""
        )
        assert refused.note == (
            "precondition violated: single-integral case needs k = 1, got 2"
        )


COROLLARIES = [entry for entry in CATALOG if entry.points == "k1"]
# The corollaries printed in a reading of their own: their stated reading and
# its note are theirs, not their parent's.
OWN_READINGS = {"C3.2", "C4.1a"}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "entry", COROLLARIES, ids=[entry.id for entry in COROLLARIES]
)
def test_each_corollary_is_its_parent_at_one_integration(entry, seed):
    # The statement names the parent, an earlier entry with the same
    # evaluator; only a corollary printed in a reading of its own has
    # arguments of its own.
    parent_id = entry.statement.removeprefix("single-integral case of ")
    assert IDENTITY_IDS.index(parent_id) < IDENTITY_IDS.index(entry.id)
    parent = CATALOG[IDENTITY_IDS.index(parent_id)]
    assert entry.evaluate is parent.evaluate
    own = entry.id in OWN_READINGS
    assert (entry.args != parent.args) == own
    # At each of the corollary's points both readings agree with the
    # parent's, and so does the note unless the reading is the corollary's.
    points = harness._points_for(entry.id, GridSpec(), seed)
    assert len(points) == 15
    for point in points:
        report, expected = verify(entry.id, point), verify(parent_id, point)
        fields = ["corrected", "lhs", "rhs"] + ([] if own else ["verbatim", "note"])
        assert [getattr(report, f) for f in fields] == [
            getattr(expected, f) for f in fields
        ], point


def _named_functions(args):
    """The strings in `args` that name a function of the harness module."""
    for arg in args:
        if isinstance(arg, str) and callable(vars(harness).get(arg)):
            yield arg


REBINDINGS = [
    (entry, name)
    for entry in CATALOG
    for name in dict.fromkeys(_named_functions(entry.args))
]


@pytest.mark.parametrize(
    "entry, name", REBINDINGS, ids=[f"{e.id}:{name}" for e, name in REBINDINGS]
)
def test_an_entry_calls_what_its_arguments_name_through_the_harness(
    entry, name, monkeypatch
):
    # A route, kernel, pairing or check named by its string is looked up in
    # the harness module when the entry is evaluated, so a rebinding there
    # (a per-layer tracer's, a mutation's) sees the entry's calls.
    point = ParamPoint(
        n=3, k=1, alpha=(1, "1/2", -2), lengths=(3,), z0=2, q=2, series_order=4
    )
    real, calls = getattr(harness, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    report = verify(entry.id, point)
    assert report.corrected == PASS and calls


def test_readme_identity_table_matches_the_catalog():
    rows = readme_table("| id | checks | status |")
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


def test_a_report_prints_a_polynomial_as_its_fractions():
    # _fmt reads the integers over the one denominator; the text is the
    # Fractions' own: zero, negative, integral and reducible coefficients.
    for num, den in [((0, -3, 4, 6), 4), ((-6, 0, 9), 3), ((5, -7), 1), ((), 1)]:
        poly = Polynomial.over(num, den)
        expected = [str(Fraction(c, poly.den)) for c in poly.num]
        assert harness._fmt(poly) == "[" + ", ".join(expected) + "]"
    assert harness._fmt(Polynomial.over((0, -3, 4, 6), 4)) == "[0, -3/4, 1, 3/2]"


def test_a_report_prints_a_series_as_all_its_coefficients(monkeypatch):
    # A series reaches _fmt as its coefficient tuple, order + 1 entries: the
    # zeros past its last nonzero coefficient print, and two series that
    # differ only in order differ in the report.
    point = ParamPoint(series_order=3)
    for lhs, rhs, verdict, texts in [
        ((3, (1, "-1/2")), (3, (1, "-1/2", 0)), PASS, ("[1, -1/2, 0, 0]",) * 2),
        ((2, (1,)), (3, (1,)), FAIL, ("[1, 0, 0]", "[1, 0, 0, 0]")),
    ]:
        sides = (TruncatedSeries(*lhs), TruncatedSeries(*rhs))
        monkeypatch.setattr(harness, "lif_gf_check", lambda k, order: sides)
        report = verify("GF-Lif", point)
        assert (report.verbatim, report.corrected) == (verdict, verdict)
        assert (report.lhs, report.rhs) == texts


@pytest.mark.parametrize("bound", [1, 20, 10**6])
def test_point_draws_keep_the_randint_stream(bound):
    # _rand_rat draws through randrange; the stream, and so every seeded
    # sweep, is the one that randint(-bound, bound) over randint(1, bound)
    # gave, value for value, on every Python.
    ours, theirs = random.Random(f"draws:{bound}"), random.Random(f"draws:{bound}")
    for i in range(10**4):
        nonzero = i % 3 == 0
        while True:
            value = Fraction(theirs.randint(-bound, bound), theirs.randint(1, bound))
            if value != 0 or not nonzero:
                break
        assert harness._rand_rat(ours, bound, nonzero) == value
    assert ours.getstate() == theirs.getstate()


def test_verify_reports_a_pass():
    pt = ParamPoint(n=2, k=1, alpha=(Fraction(1, 3), Fraction(-2)))
    report = verify("T2.1", pt)
    assert report.identity == "T2.1"
    assert report.verbatim == "PASS"
    assert report.corrected == "PASS"
    assert report.lhs == report.rhs


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize("identity", ["T4.3a", "T4.3b", "T5.2a"])
def test_verify_reports_values_past_the_int_string_digit_limit(identity):
    # 64-bit numerators over 16-bit denominators at n = 40: the report's
    # integers run past CPython's default limit of 4300 digits for int/str
    # conversion, and the process's limit is the same after the call.
    rng = random.Random(0)

    def rat():
        return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**16))

    alpha = [rat() for _ in range(40)]
    point = ParamPoint(40, 2, alpha, (rat(), rat()), z0=rat(), q=rat())
    limit = sys.get_int_max_str_digits()
    report = verify(identity, point)
    assert sys.get_int_max_str_digits() == limit
    assert report.corrected == PASS
    text = report.lhs + report.rhs + report.note
    assert max(map(len, re.findall(r"\d+", text))) > 4300


def test_verify_rejects_unknown_ids():
    with pytest.raises(ValueError):
        verify("T9.9", ParamPoint(n=0))


def test_precondition_violations_become_na():
    # The reciprocal-power-sum route needs nonzero parameters.
    report = verify("T2.4", ParamPoint(n=2, alpha=(0, 1)))
    assert report.verbatim == "NA"
    assert report.corrected == "NA"
    assert report.note.startswith("precondition violated")


@pytest.mark.parametrize("identity", ["T4.1", "GF-Lif", "GF-Li"])
def test_a_negative_series_order_reads_na(identity):
    report = verify(identity, ParamPoint(series_order=-1))
    assert (report.verbatim, report.corrected) == ("NA", "NA")
    assert report.note == "precondition violated: series order must be nonnegative"


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
    for to_b, from_b in (
        (bernoulli_from_first, first_from_bernoulli),
        (bernoulli_from_second, second_from_bernoulli),
    ):
        via_b = [to_b(n, alpha, polys[: n + 1]) for n in range(5)]
        back = [from_b(n, alpha, via_b[: n + 1]) for n in range(5)]
        assert back == polys, to_b.__name__


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


def test_sweep_reads_a_string_as_one_id():
    assert sweep(ids="T2.1", grid=SMALL) == sweep(ids=["T2.1"], grid=SMALL)
    with pytest.raises(ValueError, match="unknown identity ids: T2"):
        sweep(ids="T2", grid=SMALL)


@pytest.mark.parametrize("ids", [[], (), iter(())])
def test_sweep_refuses_an_empty_id_list(ids):
    with pytest.raises(ValueError, match="no identity ids"):
        sweep(ids=ids, grid=SMALL)


def test_every_public_name_is_exported_by_the_package():
    for module in (algebra, bernoulli, cauchy, harness, stirling, transforms):
        for name in module.__all__:
            assert getattr(polyfam, name) is getattr(module, name), name
    assert "SPECIAL_FAMILIES" in cauchy.__all__


def test_sweep_checks_a_repeated_id_once():
    assert sweep(ids=["T3.1", "T3.1"]) == sweep(ids=["T3.1"])
    repeated = sweep(ids=["T5.2a", "T2.1", "T5.2a"], grid=SMALL)
    assert repeated == sweep(ids=["T2.1", "T5.2a"], grid=SMALL)


@pytest.mark.parametrize(
    "field, value",
    [("n_max", -1), ("k_max", 0), ("points", -1), ("series_order", -1), ("bound", 0)],
)
def test_grid_rejects_out_of_range_sizes(field, value):
    with pytest.raises(PreconditionError, match=field):
        GridSpec(**{field: value})


@pytest.mark.parametrize("bound", [1, 2, 5, 20])
def test_t41_points_need_enough_distinct_rationals(bound):
    # A T4.1 point needs series_order + 1 distinct parameters of height at
    # most `bound`; one more than the pool is refused, not searched for.
    heights = range(1, bound + 1)
    pool = len({Fraction(p, q) for p in range(-bound, bound + 1) for q in heights})
    grid = GridSpec(series_order=pool - 1, bound=bound)
    point = harness._random_point(random.Random(0), grid, "T4.1")
    assert len(set(point.alpha)) == pool
    with pytest.raises(PreconditionError, match=f"only {pool} rationals"):
        harness._random_point(
            random.Random(0), GridSpec(series_order=pool, bound=bound), "T4.1"
        )


def test_a_sweep_with_too_few_distinct_rationals_is_refused():
    with pytest.raises(PreconditionError):
        sweep(ids=["T4.1"], grid=GridSpec(bound=1, points=1))


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


def _sympy_absolute_reading(point):
    """The absolute-value reading of T3.1 and T5.1b, written out in sympy:
    (-1)^n times the box integral of sum_m |c_m| (x_1...x_k - z)^m, where c_m
    is the x^m coefficient of prod_{i<n} (x - a_i). A polynomial in z; its
    value at 0 is T3.1's stated value."""
    x, z = sympy.symbols("x z")
    n, xs = point["n"], sympy.symbols(f"x0:{point['k']}")
    product = sympy.prod([x - sympy.Rational(a) for a in point["alpha"][:n]])
    coeffs = sympy.Poly(product, x).all_coeffs()[::-1]
    integrand = sum(abs(c) * (sympy.prod(xs) - z) ** m for m, c in enumerate(coeffs))
    for var, length in zip(xs, point["lengths"]):
        integrand = sympy.integrate(integrand, (var, 0, sympy.Rational(length)))
    return sympy.Poly((-1) ** n * sympy.expand(integrand), z)


def _fractions(text):
    return [Fraction(v) for v in text.strip("[]").split(", ")]


@pytest.mark.parametrize("seed", [0, 7])
def test_the_absolute_value_readings_have_a_sympy_witness(seed):
    ids = ["T3.1", "C3.1", "T5.1b", "C5.1b"]
    entries = errata_ledger(sweep(ids=ids, seed=seed))["entries"]
    assert [e["identity"] for e in entries] == ids
    for entry in entries:
        cex = entry["counterexample"]
        point, note = cex["point"], cex["note"]
        stated = _sympy_absolute_reading(point)
        if entry["identity"] in ("T5.1b", "C5.1b"):
            assert note.startswith("stated expansion gives ")
            coeffs = [Fraction(str(c)) for c in stated.all_coeffs()[::-1]]
            assert coeffs == _fractions(note.rpartition(" gives ")[2])
            # lhs holds the definition at integer_samples(n + 1) and z0.
            samples = list(algebra.integer_samples(point["n"] + 1))
            if Fraction(point["z0"]) not in samples:
                samples.append(Fraction(point["z0"]))
            values = [Fraction(str(stated.eval(sympy.Rational(v)))) for v in samples]
            assert values != _fractions(cex["lhs"])
        else:
            assert note.startswith("absolute-value reading gives ")
            value = Fraction(str(stated.eval(0)))
            assert value == Fraction(note.rpartition(" ")[2])
            assert value != Fraction(cex["lhs"])
        if (seed, entry["identity"]) == (0, "T3.1"):
            assert (point["n"], point["alpha"], point["lengths"]) == (
                1, ["-4/15"], ["6", "7/8"]
            )
            assert (value, Fraction(cex["lhs"])) == (
                Fraction(-2653, 320), Fraction(-1757, 320)
            )


# The stated sides of the other errata entries, written out in sympy from the
# definitions alone: X is a triangle's variable and z a polynomial family's.
X, Z = sympy.symbols("X z")


def _newton_row(expr, nodes):
    """The coefficients c_0..c_d of the polynomial `expr` in X, of degree d,
    in the Newton basis prod_{i<m} (X - nodes[i]), by repeated division:
    expr = c_0 + (X - nodes[0]) (c_1 + (X - nodes[1]) (c_2 + ...))."""
    quotient, row = sympy.Poly(expr, X), []
    for node in nodes[: quotient.degree()]:
        quotient, rest = sympy.div(quotient, sympy.Poly(X - node, X))
        row.append(rest.as_expr())
    return row + [quotient.as_expr()]


class _Witness:
    """A ledger point in sympy: its parameters, its box (one integration
    variable for a corollary) and the family values by integration."""

    def __init__(self, identity, point):
        self.n = point["n"]
        self.alpha = [sympy.Rational(a) for a in point["alpha"]]
        lengths = point["lengths"][:1] if identity.startswith("C") else point["lengths"]
        self.lengths = [sympy.Rational(l) for l in lengths]
        self.xs = sympy.symbols(f"x0:{len(self.lengths)}")

    def box(self, integrand, unit=False):
        """The integral of `integrand` in T = x_1...x_k over the box."""
        out = sympy.expand(integrand.subs(X, sympy.prod(self.xs)))
        for var, length in zip(self.xs, self.lengths):
            out = sympy.integrate(out, (var, 0, 1 if unit else length))
        return sympy.expand(out)

    def first(self, n, m):
        """s_a(n, m): the X^m coefficient of prod_{i<n} (X - a_i)."""
        row = sympy.Poly(self.product(n, 1), X).all_coeffs()[::-1]
        return row[m] if m < len(row) else 0

    def second(self, n, m):
        """S_a(n, m): X^n in the Newton basis of the parameters."""
        row = _newton_row(X**n, self.alpha)
        return row[m] if m < len(row) else 0

    def product(self, j, sign, z=0):
        """prod_{i<j} (sign (X - z) - a_i)."""
        return sympy.Mul(*(sign * (X - z) - a for a in self.alpha[:j]))

    def value(self, family, j, z=0):
        """The first-kind, second-kind or Bernoulli-type value (a polynomial
        in z when z is the symbol) at index j, by its defining integral."""
        if family in ("first", "second"):
            return self.box(self.product(j, 1 if family == "first" else -1, z))
        terms = (
            (-1) ** (j - m) * sympy.factorial(m) * self.second(j, m) * (X - z) ** m
            for m in range(j + 1)
        )
        return self.box(sum(terms))


def _unit_classic(w, m):
    """C_m at the classical parameters 0..m-1 over the unit box."""
    return w.box(sympy.Mul(*(X - i for i in range(m))), unit=True)


def _stated_t23(w):
    # sum_m S(n, m; a) C_n(unit box): the classical factor indexed by n.
    noncentral = _newton_row(w.product(w.n, 1), range(w.n))
    return sum(noncentral) * _unit_classic(w, w.n)


def _stated_t32(w):
    # sum_{l<=m<=n} S(n, m; a) L(m, l) C_l(unit box), L(m, l) the expansion
    # of (-X)_m = (-X)(-X-1)...(-X-m+1) in falling factorials.
    noncentral = _newton_row(w.product(w.n, 1), range(w.n))
    return sum(
        c * sum(
            lah * _unit_classic(w, l)
            for l, lah in enumerate(
                _newton_row(sympy.Mul(*(-X - i for i in range(m))), range(m))
            )
        )
        for m, c in enumerate(noncentral)
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_the_classical_factor_readings_have_a_sympy_witness(seed):
    ids = ["T2.3", "T3.2", "C3.2"]
    entries = errata_ledger(sweep(ids=ids, seed=seed))["entries"]
    assert [e["identity"] for e in entries] == ids
    for entry in entries:
        identity, cex = entry["identity"], entry["counterexample"]
        w = _Witness(identity, cex["point"])
        if identity == "T2.3":
            label, value = "stated reading", _stated_t23(w)
        else:
            label, value = "unit-length reading", _stated_t32(w)
        stated, _, remark = cex["note"].partition("; ")
        assert stated == f"{label} gives {value}"
        assert Fraction(str(value)) != Fraction(cex["lhs"])
        # C3.2's reuse of the length symbol is named, not evaluated.
        assert remark == (harness._C32_REMARK if identity == "C3.2" else "")


# The printed weights w(n, m, j) of the expansion entries, with s and S the
# point's first- and second-kind triangles.
def _abs_first(n, m, j, s, S):
    return (-1) ** n * abs(s(n, m)) * s(m, j) / sympy.factorial(m)


def _abs_first_unsigned(n, m, j, s, S):
    return abs(s(n, m)) * s(m, j) / sympy.factorial(m)


def _first(n, m, j, s, S):
    return s(n, m) * s(m, j) / sympy.factorial(m)


def _second(n, m, j, s, S):
    return (-1) ** (n - m) * S(n, m) * S(m, j) / sympy.factorial(m)


def _second_times_factorial(n, m, j, s, S):
    return (-1) ** (n - m) * sympy.factorial(m) * S(n, m) * S(m, j)


# Each entry's stated side: sum_{j<=m<=n} w(n, m, j) values[j] over one
# family's values at 0..n (polynomials in z for T5.2).
_STATED_EXPANSIONS = {
    "T4.2a": ("bernoulli", _abs_first),
    "C4.1a": ("bernoulli", _abs_first_unsigned),
    "T4.2b": ("second", _second),
    "C4.1b": ("second", _second),
    "T4.3a": ("bernoulli", _first),
    "C4.2a": ("bernoulli", _first),
    "T4.3b": ("first", _second),
    "C4.2b": ("first", _second),
    "T5.2b": ("second", _second_times_factorial),
    "T5.2c": ("bernoulli", _first),
    "T5.2d": ("bernoulli", _abs_first),
}


@pytest.mark.parametrize("seed", [0, 7])
def test_the_stated_expansions_have_a_sympy_witness(seed):
    ids = list(_STATED_EXPANSIONS)
    entries = errata_ledger(sweep(ids=ids, seed=seed))["entries"]
    assert sorted(e["identity"] for e in entries) == sorted(ids)
    for entry in entries:
        identity, cex = entry["identity"], entry["counterexample"]
        family, weight = _STATED_EXPANSIONS[identity]
        w, z = _Witness(identity, cex["point"]), Z if identity.startswith("T5") else 0
        n = w.n
        stated = sympy.expand(sum(
            weight(n, m, j, w.first, w.second) * w.value(family, j, z)
            for m in range(n + 1)
            for j in range(m + 1)
        ))
        coeffs = [Fraction(str(c)) for c in sympy.Poly(stated, Z).all_coeffs()[::-1]]
        assert cex["note"].startswith("stated reading gives ")
        assert coeffs == _fractions(cex["note"].rpartition(" gives ")[2])
        assert coeffs != _fractions(cex["lhs"])


def test_corrected_mode_passes_everywhere_on_a_small_grid():
    reports = sweep(grid=SMALL, seed=2)
    bad = [r for r in reports if r.corrected == "FAIL"]
    assert bad == []


@pytest.mark.parametrize(
    "grid", [GridSpec(), GridSpec(**SWEEP_GRID)], ids=["default", "deep"]
)
def test_the_structured_points_read_no_na(grid):
    # `_points_for` builds an entry's structured points inside its
    # preconditions, from its `points`: every point of a "series" entry, and
    # the points before the seeded draws of any other. An NA there is a
    # fault, not a precondition.
    reports = []
    for entry in CATALOG:
        points = harness._points_for(entry.id, grid, 0)
        if entry.points != "series":
            points = points[: len(points) - grid.points]
        reports += [verify(entry.id, point) for point in points]
    assert len(reports) == 240
    assert [r for r in reports if NA in (r.verbatim, r.corrected)] == []


K1_ONLY = {entry.id for entry in CATALOG if entry.points == "k1"}


@st.composite
def _adversarial_points(draw):
    """An identity id and a point the sweep almost never draws: n <= 7,
    k <= 4 (k = 1 for a single-integral case, which refuses any other k),
    series order 0..5 or None, parameters repeated from a small pool, each
    rational zero with chance 1/5 (box lengths never) and of height up to
    10^30/10^12 with chance 3/10."""

    def rational(nonzero=False):
        kind = draw(st.integers(2 if nonzero else 0, 9))
        if kind < 2:
            return Fraction(0)
        num, den = (10**30, 10**12) if kind < 5 else (9, 9)
        sign = draw(st.sampled_from((-1, 1)))
        return Fraction(sign * draw(st.integers(1, num)), draw(st.integers(1, den)))

    identity = draw(st.sampled_from(IDENTITY_IDS))
    n = draw(st.integers(0, 7))
    k = 1 if identity in K1_ONLY else draw(st.integers(1, 4))
    pool = [rational() for _ in range(draw(st.integers(1, 8)))]
    alpha = [draw(st.sampled_from(pool)) for _ in range(n)]
    lengths = [rational(nonzero=True) for _ in range(k)]
    z0, q = (rational() if draw(st.booleans()) else None for _ in range(2))
    order = draw(st.none() | st.integers(0, 5))
    return identity, ParamPoint(n, k, alpha, lengths, z0, q, order)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_adversarial_points())
def test_the_corrected_reading_holds_or_names_its_precondition(case):
    report = verify(*case)
    assert report.corrected in (PASS, NA), report
    if NA in (report.verbatim, report.corrected):
        assert report.note.startswith("precondition violated:"), report


def _double_sum(n, values, weight):
    """The expansion term by term: sum_{j<=m<=n} weight(j, m) values[j]."""
    acc = Polynomial() if isinstance(values[0], Polynomial) else Fraction(0)
    for j in range(n + 1):
        for m in range(j, n + 1):
            w = weight(j, m)
            if w != 0:
                acc = acc + w * values[j]
    return acc


def _written_out_weights(alpha, n):
    """Each weight spec with its weight as printed, the signless one read
    from its own triangle, the absolute one from row n's abs."""
    s, S, f = comtet_first(alpha, n), comtet_second(alpha, n), math.factorial
    sc, sa = signless_comtet_first(alpha, n), tuple(map(abs, s.row(n)))
    return {
        _FIRST: lambda j, m: s[n, m] * s[m, j] / f(m),
        _TO_FIRST: lambda j, m: (-1) ** (m - j) * s[n, m] * s[m, j] / f(m),
        _SIGNLESS_FIRST: lambda j, m: (
            (-1) ** (n + m - j) * sc[n, m] * s[m, j] / f(m)
        ),
        _ABS_FIRST: lambda j, m: (-1) ** n * sa[m] * s[m, j] / f(m),
        _ABS_FIRST_UNSIGNED: lambda j, m: sa[m] * s[m, j] / f(m),
        _SECOND: lambda j, m: (-1) ** (n - m) * S[n, m] * S[m, j] / f(m),
        _FROM_FIRST: lambda j, m: (-1) ** (n - m) * f(m) * S[n, m] * S[m, j],
        _FROM_SECOND: lambda j, m: (-1) ** n * f(m) * S[n, m] * S[m, j],
    }


_rats = st.fractions(min_value=-9, max_value=9, max_denominator=50)


@st.composite
def _expansion_cases(draw):
    n = draw(st.integers(0, 12))
    # A small pool makes zeros and repeated parameters common.
    pool = draw(st.lists(_rats, min_size=1, max_size=3)) + [Fraction(0)]
    node = st.one_of(st.sampled_from(pool), _rats)
    alpha = draw(st.lists(node, min_size=n, max_size=n + 2))
    polys = st.lists(_rats, max_size=n + 2).map(Polynomial)
    value = _rats if draw(st.booleans()) else polys
    return n, alpha, draw(st.lists(value, min_size=n + 1, max_size=n + 1))


TRANSFORMS = (
    (second_from_bernoulli, _SIGNLESS_FIRST),
    (bernoulli_from_second, _FROM_SECOND),
    (first_from_bernoulli, _TO_FIRST),
    (bernoulli_from_first, _FROM_FIRST),
)


@settings(max_examples=60, deadline=None)
@given(_expansion_cases())
def test_expand_matches_the_written_out_double_sum(case):
    n, alpha, values = case
    weights = _written_out_weights(alpha, n)
    for kind in (1, 2):
        specs = [spec for spec in weights if spec[0] == kind]
        for spec, total in zip(specs, _expand(values, alpha, *specs), strict=True):
            assert repr(total) == repr(_double_sum(n, values, weights[spec])), spec
    for transform, spec in TRANSFORMS:
        assert repr(transform(n, alpha, values)) == repr(
            _double_sum(n, values, weights[spec])
        ), transform.__name__


# Every expansion reading, stated or corrected, is one of these 64 constants
# (kind, e_n, e_m, e_j, p, absolute); see `transforms._expand`.
WEIGHT_LATTICE = tuple(
    itertools.product((1, 2), (0, 1), (0, 1), (0, 1), (-1, 1), (False, True))
)
# The Hamming distance of each stated weight from its corrected one.
STATED_DISTANCE = {
    "T4.2a": 3, "T5.2d": 3,
    "C4.1a": 2, "T4.2b": 2, "C4.1b": 2, "T4.3a": 2, "C4.2a": 2, "T5.2c": 2,
    "T4.3b": 1, "C4.2b": 1, "T5.2b": 1,
    "T5.2a": 0,
}
EXPANSIONS = [entry for entry in CATALOG if entry.evaluate is harness._inversion]


@pytest.mark.parametrize("entry", EXPANSIONS, ids=lambda entry: entry.id)
def test_each_expansion_correction_is_the_one_weight_that_holds(entry):
    # Guess and prove over a finite ansatz: of the 64 constants only the
    # corrected one sums the entry's values to its lhs at every point, and
    # each rejection is exact. The stated weight is then a fixed number of
    # fields away from it.
    # The entry's weights, route and kernel, as `verify` resolves them.
    stated, corrected, lhs_route, kernel, *bound = harness._resolved(
        entry.args, vars(harness)
    )
    survivors = set(WEIGHT_LATTICE)
    grid = GridSpec(n_max=6, points=10)
    points = [p for seed in (0, 1) for p in harness._points_for(entry.id, grid, seed)]
    for point in points:
        try:
            fp = harness._family(point)
            lhs, values = lhs_route(fp), kernel(*bound, fp, range(fp.n + 1))
        except PreconditionError:
            continue
        for kind in (1, 2):
            weights = [w for w in WEIGHT_LATTICE if w[0] == kind]
            sums = _expand(values, fp.alpha, *weights)
            survivors -= {w for w, total in zip(weights, sums) if total != lhs}
    assert survivors == {corrected}
    assert sum(a != b for a, b in zip(stated, corrected)) == STATED_DISTANCE[entry.id]


@pytest.mark.parametrize(
    "transform", [t for t, _ in TRANSFORMS], ids=lambda t: t.__name__
)
@pytest.mark.parametrize(
    "n, alpha, values, message",
    [
        (
            3,
            (Fraction(1, 2),),
            [1] * 4,
            "parameter sequence of length 1 cannot form a degree-3 basis element",
        ),
        (-1, (1, 2, 3), [1], "no value at transform index -1"),
        # A short value list is refused, not summed at a lower index.
        (3, (1, 2, 3), [1, 2], "no value at transform index 3"),
    ],
    ids=["short-parameters", "negative-index", "short-values"],
)
def test_a_transform_refuses_an_index_its_inputs_cannot_reach(
    transform, n, alpha, values, message
):
    with pytest.raises(PreconditionError, match=message):
        transform(n, alpha, values)


# The faulted cases of these two checks are in the mutation matrix
# (tests/test_mutation.py); here each sweeps its grid with no fault.
@pytest.mark.parametrize("grid", [GridSpec(n_max=4, points=4)], ids=["real"])
def test_the_sweep_sees_a_fault_in_the_box_moments(grid):
    reports = sweep(grid=grid, seed=0)
    assert {r.identity for r in reports if r.corrected == FAIL} == set()


@pytest.mark.parametrize("grid", [GridSpec()], ids=["real"])
def test_the_sweep_sees_a_fault_in_the_integer_kernels(grid):
    reports = sweep(grid=grid, seed=0)
    assert {r.identity for r in reports if r.corrected == FAIL} == set()


def _kernel_id(f):
    # A shared kernel is named with the slice it is bound to: a table
    # kernel's pairing, by what it yields, then a Cauchy kind's sign.
    if not isinstance(f, partial):
        return f.__name__
    pairings = {cauchy._pair: "number", cauchy._poly_from_row: "poly"}
    args = ",".join(pairings.get(a, str(a)) for a in f.args)
    return f"{f.func.__name__}({args})"


@pytest.mark.parametrize(
    "kernel, route",
    [
        (partial(cauchy._def_values, 1), cauchy.mp_first_def),
        (partial(cauchy._def_values, -1), cauchy.mp_second_def),
        (partial(cauchy._closed_values, cauchy._pair, 1), cauchy.mp_first_closed),
        (partial(cauchy._closed_values, cauchy._pair, -1), cauchy.mp_second_closed),
        (
            partial(cauchy._closed_values, cauchy._poly_from_row, 1),
            cauchy.mp_poly_first,
        ),
        (
            partial(cauchy._closed_values, cauchy._poly_from_row, -1),
            cauchy.mp_poly_second,
        ),
        (partial(bernoulli._bernoulli_values, cauchy._pair), bernoulli.mp_bernoulli),
        (
            partial(bernoulli._bernoulli_values, cauchy._poly_from_row),
            bernoulli.mp_bernoulli_poly,
        ),
    ],
    ids=_kernel_id,
)
def test_a_value_kernel_gives_its_route_at_every_index(kernel, route):
    # The expansion identities read rows 0..n of one pass; each row must be
    # the public route at that index, any subset of rows the same entries in
    # the order asked for, and a row outside 0..n an IndexError, never a
    # dropped or wrapped row.
    rng = random.Random(f"one-pass:{route.__name__}")

    def rational(low):
        return Fraction(rng.choice((-1, 1)) * rng.randint(low, 20), rng.randint(1, 20))

    for n in range(10):
        # A small pool makes zeros, ones and repeated parameters common.
        pool = [Fraction(0), Fraction(1), rational(0)]
        alpha = tuple(rng.choice(pool + [rational(0)]) for _ in range(n))
        k = rng.randint(1, 3)
        lengths = tuple(rational(1) for _ in range(k))
        p = FamilyPoint(n, k, alpha, lengths)
        expected = [route(FamilyPoint(j, k, alpha, lengths)) for j in range(n + 1)]
        assert repr(kernel(p, range(n + 1))) == repr(expected)
        rows = rng.sample(range(n + 1), rng.randint(1, n + 1))
        assert repr(kernel(p, rows)) == repr([expected[j] for j in rows])
        with pytest.raises(IndexError):
            kernel(p, rows + [rng.choice((-1, n + 1))])
