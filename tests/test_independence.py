"""Route independence, held structurally.

Each of the twelve routes, and the oracles of T5.1 (`_def_values` at a
shifted z) and T4.1 (`_exp_sum`), runs once under `sys.setprofile` at one
small point with mixed denominators. The package functions it calls, less
the generic constructors and readers in `GENERIC`, are its kernels;
`KERNELS` pins them and the README's route table mirrors the pin. Agreement
between two routes is evidence only if they share no kernel: versions
written apart still fail together more often than chance allows (Knight and
Leveson, IEEE TSE 12(1), 1986), so the independence that N-version checking
rests on (Avizienis, IEEE TSE 11(12), 1985) is asserted on the call sets,
not assumed:

- the two definitions share no kernel with any route that is not a
  definition, so with no other route of their family;
- T5.1's oracle shares none with the polynomial routes, whose kernel
  `_poly_from_row` it checks;
- T4.1's exponential sum shares none with the Bernoulli-type routes: that
  family has one route (`_bernoulli_values`, whose row is paired into the
  number or into the polynomial), so T4.1 is its independent witness.

The twelve expansion identities (the `harness._inversion` ids) are traced
the same way, one side at a time: the lhs route, and the family values with
the weights that sum them. What the two sides share is pinned in `SHARED`,
each entry with its reason, so a new shared kernel fails a test. The five
arrows of the specialization webs (CASES-2/3) are traced one side at a time
too, and `ARROWS` pins what the two sides of each share.
"""

import inspect
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyfam
from polyfam import algebra, bernoulli, cauchy, harness, stirling
from polyfam.cauchy import FamilyPoint
from polyfam.harness import ParamPoint, verify

MODULES = (algebra, stirling, cauchy, bernoulli)

POINT = FamilyPoint(
    3, 2, (Fraction(1, 2), Fraction(-2, 3), 3), (Fraction(3, 2), Fraction(-2, 5))
)

# T4.1's closed form at POINT, as mp_bernoulli_gf_check hands it to
# _exp_sum: order 2, weights (-1)^m m! mu_m.
WITNESS = (
    POINT.alpha,
    [
        (-1) ** m * math.factorial(m) * mu
        for m, mu in enumerate(algebra.box_moments(POINT.lengths, 2).coeffs)
    ],
)

ORACLE = "_def_values at z"

ENTRIES = {
    **{
        name: (getattr(polyfam, name), (POINT,))
        for name in (
            "mp_first_def",
            "mp_first_closed",
            "mp_first_noncentral",
            "mp_first_via_polycauchy",
            "mp_first_bell",
            "mp_second_def",
            "mp_second_closed",
            "mp_second_lah",
            "mp_bernoulli",
            "mp_poly_first",
            "mp_poly_second",
            "mp_bernoulli_poly",
        )
    },
    # As harness._poly_samples_outcome reads it: one kernel call per sample.
    ORACLE: (
        lambda p, samples: [cauchy._def_values(1, p, (p.n,), z)[0] for z in samples],
        (POINT, (Fraction(0), Fraction(-1, 7))),
    ),
    "_exp_sum": (bernoulli._exp_sum, WITNESS),
}

DEFINITIONS = ("mp_first_def", "mp_second_def")
POLYNOMIAL_ROUTES = ("mp_poly_first", "mp_poly_second", "mp_bernoulli_poly")
BERNOULLI_ROUTES = ("mp_bernoulli", "mp_bernoulli_poly")

# Constructors, argument coercion and scalar products: every route calls
# some of them, and a fault in one shows on every route alike.
GENERIC = {
    "algebra.Polynomial.__mul__",
    "algebra.Polynomial.__rmul__",
    "algebra.Polynomial.over",
    "algebra.Record._set",
    "algebra.TruncatedSeries._of",
    "algebra._reduced",
    "algebra.as_rat",
    "algebra.as_rat_tuple",
    "stirling._nodes",
}

# A table route reads its row on the way through the triangle recurrence
# (_rows); a one-row route moves the unit row X^n by _rebase (in _row).
# Neither builds a table.
_TABLE = {"stirling._rows"}
_FIRST = {"algebra.box_moments", "cauchy._closed_values", "cauchy._pair"} | _TABLE
_ROW = {"algebra.box_moments", "cauchy._pair", "stirling._rebase", "stirling._row"}
_BERNOULLI = {"algebra.box_moments", "bernoulli._bernoulli_row"} | _TABLE
_DEFINITION = {"algebra._prefix_products", "cauchy._box_integral", "cauchy._def_values"}

KERNELS = {
    "mp_first_def": _DEFINITION,
    "mp_first_closed": _FIRST,
    "mp_first_noncentral": _ROW,
    "mp_first_via_polycauchy": _ROW | {"cauchy._classic_first_values"},
    "mp_first_bell": {
        "algebra.box_moments",
        "cauchy._bell_numerators",
        "cauchy._pair",
        "cauchy._reciprocal_power_sums",
    },
    "mp_second_def": _DEFINITION,
    "mp_second_closed": _FIRST,
    "mp_second_lah": _ROW | {"cauchy._classic_first_values", "cauchy._lah_values"},
    "mp_bernoulli": _BERNOULLI | {"bernoulli._bernoulli_values", "cauchy._pair"},
    "mp_poly_first": {
        "algebra.box_moments",
        "cauchy._closed_values",
        "cauchy._poly_from_row",
    }
    | _TABLE,
    "mp_poly_second": {
        "algebra.box_moments",
        "cauchy._closed_values",
        "cauchy._poly_from_row",
    }
    | _TABLE,
    "mp_bernoulli_poly": _BERNOULLI
    | {"bernoulli._bernoulli_values", "cauchy._poly_from_row"},
    ORACLE: _DEFINITION,
    "_exp_sum": {"algebra._over_lcm"},
}

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_names():
    """`module.function` or `module.Class.method` for the code object of
    every function, method and property getter the family modules define."""
    names = {}
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else ((None, obj),)
            for attr, member in members:
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    names[member.__code__] = ".".join(filter(None, (short, name, attr)))
    return names


def _kernels(function, args):
    """The non-generic package functions that function(*args) calls, at any
    depth, itself left out."""
    names, seen = _code_names(), set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen.add(names[frame.f_code])

    sys.setprofile(record)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return seen - GENERIC - {names.get(function.__code__)}


@pytest.fixture(scope="module")
def traced():
    return {name: _kernels(*entry) for name, entry in ENTRIES.items()}


def test_each_route_calls_its_pinned_kernels(traced):
    assert traced == KERNELS


def test_the_definitions_share_no_kernel_with_another_route(traced):
    for definition in DEFINITIONS:
        for route in ENTRIES:
            if route not in (*DEFINITIONS, ORACLE):
                assert not traced[definition] & traced[route], (definition, route)


def test_the_oracles_share_no_kernel_with_the_routes_they_check(traced):
    for route in POLYNOMIAL_ROUTES:
        assert "cauchy._poly_from_row" in traced[route]
        assert not traced[ORACLE] & traced[route], route
    for route in BERNOULLI_ROUTES:
        assert not traced["_exp_sum"] & traced[route], route


def test_readme_route_table_matches_the_pin():
    lines = README.read_text().splitlines()
    start = lines.index("| route or oracle | kernels |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    assert rows == [(name, ", ".join(sorted(KERNELS[name]))) for name in ENTRIES]


# Every table route reads its triangle rows through _rows, every polynomial
# route pairs its row with the box moments through _poly_from_row, and
# T5.1's definitional oracle checks that pairing apart from both.
_POLYNOMIAL = {"algebra.box_moments", "cauchy._poly_from_row", "stirling._rows"}
SHARED = {
    **{
        ident: (set(), "")
        for ident in (
            "T4.2a", "C4.1a", "T4.3a", "C4.2a", "T4.2b", "C4.1b", "T4.3b", "C4.2b"
        )
    },
    **{
        ident: (_POLYNOMIAL, "polynomial routes on both sides")
        for ident in ("T5.2a", "T5.2b", "T5.2c", "T5.2d")
    },
}


def _inversion_args(identity, monkeypatch):
    """The arguments of each harness._inversion call that verify(identity)
    makes at POINT, or at POINT's first box length alone for a single-integral
    case."""
    captured, real = [], harness._inversion
    monkeypatch.setattr(
        harness, "_inversion", lambda *args: captured.append(args) or real(*args)
    )
    lengths = POINT.lengths[:1] if harness._BY_ID[identity].k1_only else POINT.lengths
    verify(identity, ParamPoint(POINT.n, len(lengths), POINT.alpha, lengths))
    monkeypatch.undo()
    return captured


def test_the_pin_names_every_expansion_identity(monkeypatch):
    expansions = {
        ident
        for ident in harness.IDENTITY_IDS
        if _inversion_args(ident, monkeypatch)
    }
    assert expansions == set(SHARED)


@pytest.mark.parametrize("identity", sorted(SHARED))
def test_the_two_sides_of_an_expansion_share_only_the_pinned_kernels(
    identity, monkeypatch
):
    ((pt, lhs_route, values_of, corrected, stated),) = _inversion_args(
        identity, monkeypatch
    )
    fp = harness._family(pt)

    def values_and_weights():
        # The rest of _inversion's body: the values at 0..n and their sums
        # by the corrected and the stated weights.
        values = values_of(fp, range(fp.n + 1))
        harness._expand(values, fp.alpha, corrected, stated)

    shared = _kernels(lhs_route, (fp,)) & _kernels(values_and_weights, ())
    allowed, reason = SHARED[identity]
    assert shared == allowed, reason


# CASES-2/3 (harness._cases) set five special values, each by `specialize`
# (the definitions), against a reading of another kind: the closed route,
# the box integral of a product of linear factors, or the triangle row scaled
# by the homogeneity in q. Each call that _cases makes itself is charged, with
# all it calls, to the side that it computes; a point's constructor checks the
# point and is left out. The integral side expands its product through
# Polynomial.from_roots, which shares _prefix_products with the definitions:
# a fault there cancels in both integral arrows, and only the other three,
# which share no kernel, catch it.
CASES_POINT = ParamPoint(3, 2, POINT.alpha, POINT.lengths, q=Fraction(-2, 3))
_INTEGRAL = {"algebra._prefix_products"}
ARROWS = {
    "poly-vs-triangle": ("poly", "closed", set()),
    "classic-vs-integral": ("classic", "integral", _INTEGRAL),
    "q-poly-vs-homogeneity": ("q-poly", "scaled row", set()),
    "extended-vs-closed": ("extended-q", "closed", set()),
    "q-classic-vs-integral": ("q-classic", "integral", _INTEGRAL),
}


def _case_sides(identity):
    """The package functions under each side of verify(identity) at
    CASES_POINT, and the names of its arrows."""
    names, cases, sides = _code_names(), harness._cases.__code__, {}

    def label(frame):
        # The call that _cases itself made, and the side that it computes.
        while frame.f_back is not None and frame.f_back.f_code is not cases:
            frame = frame.f_back
        if frame.f_back is None:
            return None
        name = frame.f_code.co_name
        if name == "specialize":
            return frame.f_locals["family"]
        if name in ("mp_first_closed", "mp_second_closed"):
            return "closed"
        return "integral" if name == "integral" else "scaled row"

    def record(frame, event, arg):
        if event == "call" and frame.f_code in names:
            side = label(frame)
            if side is not None:
                sides.setdefault(side, set()).add(names[frame.f_code])

    sys.setprofile(record)
    try:
        report = verify(identity, CASES_POINT)
    finally:
        sys.setprofile(None)
    arrows = [part.partition("=")[0] for part in report.lhs.split("; ")]
    points = {"cauchy.FamilyPoint.__init__"}
    return {side: kernels - GENERIC - points for side, kernels in sides.items()}, arrows


@pytest.mark.parametrize("identity", ["CASES-2", "CASES-3"])
def test_the_two_sides_of_a_cases_arrow_share_only_the_pinned_kernels(identity):
    sides, arrows = _case_sides(identity)
    assert arrows == list(ARROWS)
    for arrow, (left, right, allowed) in ARROWS.items():
        assert sides[left] & sides[right] == allowed, arrow
