"""The seven record types behave as frozen dataclasses do, every catalog
entry is a record of module-level names, and importing the package loads no
module that only a dataclass or `typing` would need, nor the sweep layer."""

import copy
import json
import pickle
import subprocess
from fractions import Fraction

import pytest

from conftest import PYTHON, SRC
from polyfam import harness
from polyfam.algebra import Polynomial, PreconditionError, TruncatedSeries
from polyfam.cauchy import FamilyPoint
from polyfam.harness import GridSpec, Identity, IdentityReport, ParamPoint
from polyfam.stirling import CoeffTable

# perfbench's sweep-deep grid, built by keyword as the benchmark builds it.
SWEEP_GRID = {"n_max": 14, "k_max": 2, "points": 3, "series_order": 6, "bound": 20}


def _records():
    """(built positionally, built by keyword, repr) for each record type; the
    two builds are distinct objects with equal fields."""
    one, half = Fraction(1), Fraction(1, 2)
    point = ParamPoint(1, 2, (0,), (1, 1), 1, "1/2", None)
    return [
        (
            FamilyPoint(2, 1, (1, "1/2"), (3,)),
            FamilyPoint(n=2, k=1, alpha=[one, half], lengths=[Fraction(3)]),
            "FamilyPoint(n=2, k=1, alpha=(Fraction(1, 1), Fraction(1, 2)), "
            "lengths=(Fraction(3, 1),))",
        ),
        (
            CoeffTable((Polynomial.over((1,)), Polynomial.over((-1, 6), 6))),
            CoeffTable(rows=[Polynomial((one,)), Polynomial((Fraction(-1, 6), one))]),
            "CoeffTable(rows=(Polynomial(['1']), Polynomial(['-1/6', '1'])))",
        ),
        (
            point,
            ParamPoint(k=2, n=1, alpha=[0], lengths=["1", 1], z0=one, q=half),
            "ParamPoint(n=1, k=2, alpha=(Fraction(0, 1),), "
            "lengths=(Fraction(1, 1), Fraction(1, 1)), z0=Fraction(1, 1), "
            "q=Fraction(1, 2), series_order=None)",
        ),
        (
            IdentityReport("T2.1", point, "PASS", "FAIL", "1", "2"),
            IdentityReport(
                identity="T2.1",
                point=ParamPoint(1, 2, (0,), (1, 1), 1, half),
                verbatim="PASS",
                corrected="FAIL",
                lhs="1",
                rhs="2",
                note="",
            ),
            "IdentityReport(identity='T2.1', point=ParamPoint(n=1, k=2, "
            "alpha=(Fraction(0, 1),), lengths=(Fraction(1, 1), Fraction(1, 1)), "
            "z0=Fraction(1, 1), q=Fraction(1, 2), series_order=None), "
            "verbatim='PASS', corrected='FAIL', lhs='1', rhs='2', note='')",
        ),
        (
            Identity("X", "a statement", len, "fix", "k1", (-1, "_pair")),
            Identity(
                id="X",
                statement="a statement",
                evaluate=len,
                correction="fix",
                points="k1",
                args=(-1, "_pair"),
            ),
            "Identity(id='X', statement='a statement', "
            "evaluate=<built-in function len>, correction='fix', points='k1', "
            "args=(-1, '_pair'))",
        ),
        (
            GridSpec(14, 2, 3, 6, 20),
            GridSpec(**SWEEP_GRID),
            "GridSpec(n_max=14, k_max=2, points=3, series_order=6, bound=20)",
        ),
        (
            TruncatedSeries(2, (1, half)),
            TruncatedSeries(order=2, coeffs=["1", "1/2", 0, 5]),
            "TruncatedSeries(order=2, ['1', '1/2', '0'])",
        ),
    ]


RECORD_IDS = [type(built).__name__ for built, _, _ in _records()]


@pytest.mark.parametrize("index", range(len(RECORD_IDS)), ids=RECORD_IDS)
def test_a_record_reads_like_a_frozen_dataclass(index):
    positional, keyword, text = _records()[index]
    assert repr(positional) == repr(keyword) == text
    assert positional == keyword and positional is not keyword
    assert not positional != keyword
    assert hash(positional) == hash(keyword)
    assert len({positional, keyword}) == 1
    name = type(positional).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(positional, name, getattr(keyword, name))
    with pytest.raises(AttributeError):
        delattr(positional, name)
    with pytest.raises(AttributeError):
        positional.extra = 1
    assert not hasattr(positional, "__dict__")
    assert positional == keyword


@pytest.mark.parametrize("index", range(len(RECORD_IDS)), ids=RECORD_IDS)
def test_copy_and_pickle_give_an_equal_record_back(index):
    record, _, _ = _records()[index]
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("entry", harness.CATALOG, ids=harness.IDENTITY_IDS)
def test_a_catalog_entry_round_trips_and_names_its_evaluator(entry):
    # A partial or a closure would compare by identity and hide its routes
    # from a caller that rebinds names in the harness namespace.
    for twin in (copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
        assert twin == entry and repr(twin) == repr(entry)
    assert entry.evaluate is getattr(harness, entry.evaluate.__name__)


def test_a_record_equals_only_its_own_type():
    point = FamilyPoint(2, 1, (1, 2), (1,))
    assert point != (2, 1, (1, 2), (1,))
    assert point != (2, 1, (Fraction(1), Fraction(2)), (Fraction(1),))
    assert GridSpec() != ParamPoint() and ParamPoint() != GridSpec()
    assert GridSpec() != (5, 2, 10, 6, 20)
    assert ParamPoint(2, 1, (1, 2), (1,)) != point
    assert point != FamilyPoint(2, 1, (1, 2), (2,))
    # A table holds canonical rows: the same entries held at another scale
    # are the same record, and other entries another one.
    one, row = Polynomial.over((1,)), Polynomial.over((-1, 1))
    assert CoeffTable((one, row)) == CoeffTable((one, Polynomial.over((-2, 2), 2)))
    assert CoeffTable((one, row)) != CoeffTable((one, -row))
    assert CoeffTable((one,)) != (one,)


def test_points_hold_rationals():
    point = ParamPoint(n=1, alpha=[2], lengths=("1/3",), z0=3, q="-2/4")
    assert point.alpha == (Fraction(2),) and point.lengths == (Fraction(1, 3),)
    assert type(point.alpha) is type(point.lengths) is tuple
    assert all(type(v) is Fraction for v in (*point.alpha, *point.lengths))
    assert type(point.z0) is type(point.q) is Fraction and point.q == Fraction(-1, 2)
    default = ParamPoint()
    assert default.z0 is None and default.q is None and default.series_order is None
    assert default.lengths == (Fraction(1),)
    family = FamilyPoint(1, 2, iter([0, "5/2"]), [1, "-1/2"])
    assert family.alpha == (0, Fraction(5, 2))
    assert family.lengths == (1, Fraction(-1, 2))
    assert all(type(v) is Fraction for v in (*family.alpha, *family.lengths))


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 1, (), (1,)), "must be nonnegative"),
        ((0, 0, (), ()), "at least one integration variable"),
        ((2, 1, (1,), (1,)), "need at least 2 parameters, got 1"),
        ((0, 2, (), (1,)), "expected 2 box lengths, got 1"),
        ((0, 1, (), (0,)), "must be nonzero"),
    ],
)
def test_a_family_point_checks_its_preconditions(args, message):
    with pytest.raises(PreconditionError, match=message):
        FamilyPoint(*args)


def test_a_grid_checks_its_sizes_by_position_and_by_keyword():
    with pytest.raises(PreconditionError, match="grid k_max must be at least 1"):
        GridSpec(5, 0)
    with pytest.raises(PreconditionError, match="grid bound must be at least 1"):
        GridSpec(**{**SWEEP_GRID, "bound": 0})


def _child(code):
    """The stdout of `code` run in a fresh interpreter that imports polyfam
    from the tests' source tree, with warnings as errors. -S keeps site and
    its .pth files from loading modules beforehand."""
    proc = subprocess.run(
        [*PYTHON, "-S", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


def _added_modules(statement):
    """The modules that `statement` adds to sys.modules in a fresh interpreter."""
    code = f"before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    return set(_child(code).split())


def test_importing_the_package_loads_no_dataclass_machinery():
    unneeded = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    added = _added_modules("import polyfam")
    families = {f"polyfam.{name}" for name in ("algebra", "stirling", "cauchy", "bernoulli")}
    assert families <= added
    # The transforms, the sweep layer and the `random` it draws points with
    # load on first use.
    assert not added & {"polyfam.transforms", "polyfam.harness", "random"}
    assert not added & unneeded
    # The command line loads the sweep layer in `verify` alone.
    cli = _added_modules("import polyfam.cli")
    assert {"polyfam.cli", "json"} <= cli
    assert not cli & (unneeded | {"csv", "polyfam.harness"})


def test_reading_a_transform_leaves_the_sweep_layer_unloaded():
    names = ("bernoulli_from_first", "bernoulli_from_second")
    names += ("first_from_bernoulli", "second_from_bernoulli")
    for name in names:
        added = _added_modules(f"import polyfam; polyfam.{name}")
        assert "polyfam.transforms" in added, name
        assert "polyfam.harness" not in added, name


# In a child process, because the other tests have imported the harness.
PUBLIC_API = """
import json
import polyfam
polyfam.comtet_first, polyfam.__version__
cold = "polyfam.harness" in sys.modules
listed = polyfam.__all__
star = {}
exec("from polyfam import *", star)
from polyfam import algebra, bernoulli, cauchy, harness, stirling, transforms
modules = (algebra, bernoulli, cauchy, harness, stirling, transforms)
expected = {name for module in modules for name in module.__all__}
expected |= {module.__name__.rpartition(".")[2] for module in modules}
harness.sweep = rebound = len
transforms.bernoulli_from_first = rebound_transform = abs
try:
    polyfam.nope
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "cold": cold,
    "star": sorted(set(star) - {"__builtins__"}),
    "all": sorted(listed),
    "expected": sorted(expected),
    "dir": dir(polyfam),
    "harness_names": harness.__all__,
    "not_the_harness_object": [
        name for name in harness.__all__ if getattr(polyfam, name) is not getattr(harness, name)
    ],
    "follows_a_rebinding": [
        polyfam.sweep is rebound, polyfam.bernoulli_from_first is rebound_transform
    ],
    "error": error,
    "hasattr": hasattr(polyfam, "nope"),
    "removed": [
        name
        for name in (
            "X",
            "InversionCheck",
            "mp_poly_first_oracle",
            "mp_poly_second_oracle",
            "mp_bernoulli_poly_gf_check",
            "Rat",
        )
        if hasattr(polyfam, name)
    ],
}))
"""


def test_the_package_exports_the_sweep_names_on_first_use():
    api = json.loads(_child(PUBLIC_API))
    assert api["cold"] is False
    assert len(api["harness_names"]) == 11
    assert api["not_the_harness_object"] == []
    assert api["follows_a_rebinding"] == [True, True]
    assert len(api["expected"]) == 67
    assert api["star"] == api["expected"]
    assert api["all"] == api["star"]
    assert set(api["expected"]) <= set(api["dir"])
    assert "'nope'" in api["error"]
    assert api["hasattr"] is False
    # Test-only checks moved to tests/oracles.py, and InversionCheck and
    # `Rat` (a second name for Fraction) are gone; the lazy __getattr__ does
    # not bring one back.
    assert api["removed"] == []
    bare = "import polyfam; print(polyfam.harness is sys.modules['polyfam.harness'])"
    assert _child(bare).split() == ["True"]
