"""Exactness pin: a speedup that changes one output byte is a regression.

The sha256 below is over the `repr` of the twelve public routes and of
`Polynomial.from_roots` on seeded points, two of them at n=40, k=2 with
height-20 rationals. It was taken at commit a4dbe14, where the definitions
and the Bell route still ran on `Fraction`, so every later kernel must
reproduce those bytes.

TABLE_SHA256 pins what `table` and the classical helpers print: the `table`
stdout of every family, the indexed entries of every table, inside the
triangle and around it, and the two classical helpers. It was taken at commit
c56448c, where `CoeffTable` still cached its Fraction entries and each helper
paired its own row.

SWEEP_SHA256 pins the sweep on a deep grid (n up to 14, k up to 3, series
order 8): the `repr` of every report at seeds 0, 7 and 123, so every
polynomial and expansion column is covered well past the n <= 5 of the
seed-0 goldens. It was taken at commit 3e93ba9, where `Polynomial` still held
its coefficients as Fractions and `_expand` summed Fraction terms.

ORACLE_SHA256 pins the definitional layer outside the routes: `specialize` for
every family and kind, the two polynomial sample oracles at samples whose
denominators are coprime to the parameters', and `mp_bernoulli_poly_gf_check`,
which no catalog id reaches. It was taken at commit dc45b2d, where the
definitions built `Fraction` parameter tuples, the oracles one shifted
`FamilyPoint` per sample, and the exponential sum one `exp_series` per
parameter. The sample oracles and the polynomial GF check are test-only and
now live in `tests/oracles.py`; their bodies moved unchanged. The GF check's
four-field `SeriesCheck` record (the one check with a stated reading of its
own) moved there too, under the same name, so its repr is unchanged. The
library's own `SeriesCheck` is gone since; its checks return `(lhs, rhs)`,
and the test-only record keeps the name and the repr.

VALUE_SHA256 pins what `number`, `poly` and `poly --z` print for every
family: json and csv, with and without --decimals, at the default
parameters, --alpha, --q, --lengths with --k and --mode verbatim, and a few
precondition failures. It hashes each argv's exit code, stdout and stderr. It
was taken at commit a3d7d3f, where `number`/`poly` and `table` each built
their own records and parameters, and retaken at commit 71a3aac over its
five families other than the rename-only `poly-cauchy-1`, `poly-cauchy-2`
and `poly-bernoulli` (one edge argv moved from `poly-cauchy-2` to
`mp-cauchy-2`), which the CLI then dropped.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import oracles
import polyfam
from polyfam import cli
from polyfam.algebra import Polynomial
from polyfam.harness import GridSpec, sweep

ROUTES = (
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

PINNED_SHA256 = "7a13a3ce476edd8aef7682780ca25577f4ac813fcfd395cbd17505e3827eea7f"

TABLE_SHA256 = "5e7591f7c33d88665f7582d0d37d0e6d3350b1776bff703ea3d7c54a53b33f51"

SWEEP_SHA256 = "2bc7fcb7333d16e5a7f60f895796d688849527e0d58c698eaa7a46de186ae50a"
ORACLE_SHA256 = "9743f89c983839f20d3e0e6529bbe2f64c2f0ce090706add1bdd5b0feafa1810"
VALUE_SHA256 = "68feeb3ba0d156d1cdaa1bb5f43b4b106b5cc16af524d2e7dd00e0ef1e2f6c52"
DEEP_GRID = GridSpec(n_max=14, k_max=3, points=6, series_order=8, bound=20)

# Mixed denominators, zeros and repeats; twelve nodes for --n-max 12.
TABLE_ALPHA = "1/2,0,-3,1/2,2/3,0,5,-1/4,2/3,7,0,-1/6"
HELPER_LENGTHS = (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3))


def _rational(rng, height, dens=None):
    """A nonzero rational of height `height`, its denominator drawn from
    `dens` when given."""
    while True:
        num = rng.randint(-height, height)
        value = Fraction(num, rng.choice(dens) if dens else rng.randint(1, height))
        if value:
            return value


def _points():
    rng = random.Random("exactness-pin")
    points = []
    for i in range(18):
        n, k = rng.randint(0, 14), rng.randint(1, 3)
        height = (2, 20, 10**6)[i % 3]
        pool = [_rational(rng, height) for _ in range(3)] + [Fraction(1), Fraction(-1)]
        # Drawing from a small pool gives repeated parameters and +-1.
        alpha = tuple(
            rng.choice(pool) if rng.random() < 0.5 else _rational(rng, height)
            for _ in range(n)
        )
        lengths = tuple(_rational(rng, height) for _ in range(k))
        points.append(polyfam.FamilyPoint(n, k, alpha, lengths))
    for _ in range(2):
        alpha = tuple(_rational(rng, 20) for _ in range(40))
        lengths = (_rational(rng, 20), _rational(rng, 20))
        points.append(polyfam.FamilyPoint(40, 2, alpha, lengths))
    return points


def _digest() -> str:
    h = hashlib.sha256()
    for p in _points():
        for name in ROUTES:
            h.update(f"{name}:{getattr(polyfam, name)(p)!r}\n".encode())
        roots = p.alpha + (Fraction(0),) + p.lengths
        h.update(f"from_roots:{Polynomial.from_roots(roots)!r}\n".encode())
    return h.hexdigest()


def test_the_routes_and_from_roots_reproduce_the_pinned_bytes():
    assert _digest() == PINNED_SHA256


def _table_digest() -> str:
    h = hashlib.sha256()
    alpha = tuple(map(Fraction, TABLE_ALPHA.split(",")))
    for family, (build, needs_alpha) in sorted(cli.TABLE_FAMILIES.items()):
        argv = ["table", family, "--n-max", "12"]
        argv += ["--alpha", TABLE_ALPHA] if needs_alpha else []
        for fmt in (["--format", "json"], ["--format", "csv", "--decimals", "4"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + fmt)
            h.update(f"{argv + fmt}:{code}:{out.getvalue()}".encode())
        table = build(alpha, 12) if needs_alpha else build(12)
        entries = [table[n, m] for n in range(-1, 14) for m in range(-1, 14)]
        h.update(f"{family}:{entries!r}\n".encode())
    for k in range(1, 4):
        for m in range(13):
            value = polyfam.classic_first_with_lengths(m, k, HELPER_LENGTHS[:k])
            h.update(f"first:{m}:{k}:{value!r}\n".encode())
            value = polyfam.classic_poly_bernoulli(m, k)
            h.update(f"bernoulli:{m}:{k}:{value!r}\n".encode())
    return h.hexdigest()


def test_table_and_the_classical_helpers_reproduce_the_pinned_bytes():
    assert _table_digest() == TABLE_SHA256


def test_the_deep_sweep_reproduces_the_pinned_bytes():
    h = hashlib.sha256()
    for seed in (0, 7, 123):
        for report in sweep(grid=DEEP_GRID, seed=seed):
            h.update(repr(report).encode())
    assert h.hexdigest() == SWEEP_SHA256


def _oracle_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random("oracle-pin")
    for _ in range(12):
        n, k = rng.randint(0, 10), rng.randint(1, 3)
        q = _rational(rng, 9)
        lengths = tuple(_rational(rng, 9) for _ in range(k))
        for family in polyfam.SPECIAL_FAMILIES:
            for kind in ("first", "second"):
                ls = lengths[:1] if "classic" in family else lengths
                value = polyfam.specialize(family, kind, n, k, q=q, lengths=ls)
                h.update(f"{family}:{kind}:{value!r}\n".encode())
    for _ in range(16):
        n, k = rng.randint(0, 14), rng.randint(1, 3)
        # Parameters over 2, 3 and 4, samples over 5, 7 and 1.
        pool = [_rational(rng, 9, (2, 3, 4)) for _ in range(3)] + [Fraction(0)]
        alpha = tuple(rng.choice(pool) for _ in range(n))
        lengths = tuple(_rational(rng, 9) for _ in range(k))
        p = polyfam.FamilyPoint(n, k, alpha, lengths)
        for z in [Fraction(0)] + [_rational(rng, 9, (5, 7, 1)) for _ in range(3)]:
            first = oracles.mp_poly_first_oracle(p, z)
            second = oracles.mp_poly_second_oracle(p, z)
            h.update(f"oracle:{first!r}:{second!r}\n".encode())
    for order in range(9):
        for _ in range(2):
            k = rng.randint(1, 3)
            alpha = [Fraction(0)]
            while len(alpha) < order + 1:
                value = _rational(rng, 9, (1, 2, 3))
                if value not in alpha:
                    alpha.append(value)
            rng.shuffle(alpha)
            lengths = tuple(_rational(rng, 9) for _ in range(k))
            z = _rational(rng, 9, (1, 5))
            check = oracles.mp_bernoulli_poly_gf_check(alpha, lengths, k, z, order)
            h.update(f"gf:{check!r}\n".encode())
    return h.hexdigest()


def test_the_definitional_layer_reproduces_the_pinned_bytes():
    assert _oracle_digest() == ORACLE_SHA256


# The parameter flags of the value pin, at n = 4: five --alpha entries, so
# the unused extra shows in the record; --k 2, which the classical families
# ignore; and two lengths, which they (k forced to 1) refuse with exit 3.
VALUE_PARAMS = (
    (),
    ("--alpha", "1/2,-3,0,2/3,7"),
    ("--q", "-2/3"),
    ("--k", "2"),
    ("--k", "2", "--lengths", "3/2,-2/5"),
    ("--mode", "verbatim"),
)
# Precondition failures, which print no CSV header, and an empty --alpha at
# n = 0, which counts as given.
VALUE_EDGES = (
    ("number", "mp-cauchy-1", "--n", "3", "--lengths", "0", "--format", "csv"),
    ("poly", "mp-bernoulli", "--n", "3", "--alpha", "1,2", "--format", "csv"),
    ("number", "mp-cauchy-2", "--n", "2", "--alpha", ""),
    ("number", "cauchy-2", "--n", "0", "--alpha", "", "--format", "csv"),
)


def _value_digest() -> str:
    h = hashlib.sha256()
    argvs = []
    for command in (("number",), ("poly",), ("poly", "--z", "5/7")):
        for family in cli.NUMBER_FAMILIES:
            for params in VALUE_PARAMS:
                for fmt in ("json", "csv"):
                    for decimals in ((), ("--decimals", "4")):
                        argvs.append(
                            (command[0], family, "--n", "4")
                            + command[1:] + params + ("--format", fmt) + decimals
                        )
    for argv in argvs + list(VALUE_EDGES):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        h.update(f"{argv}:{code}:{out.getvalue()}:{err.getvalue()}".encode())
    return h.hexdigest()


def test_number_and_poly_reproduce_the_pinned_bytes():
    assert _value_digest() == VALUE_SHA256
