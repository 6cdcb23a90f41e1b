"""Mechanical verification of the identity catalog.

Every cataloged identity is evaluated in two readings at each parameter
point: the `verbatim` reading follows the stated formula exactly (including
any sign or index slips it may contain), while the `corrected` reading is the
variant derivable from the definitions (for most identities the two
coincide). Verdicts are PASS, FAIL, or NA; NA marks a point outside the
identity's preconditions and is never a failure. The errata ledger collects,
for each identity whose verbatim reading failed anywhere, a minimal
counterexample and a description of the correction.

The catalog is one tuple of `Identity` records, each naming its evaluator
and the arguments it is called with after the point: most name there the
routes and stated readings they compare. `verify` resolves them when the
entry runs: a string that names a function of this module becomes that
function, and any other argument passes as itself. `_single_integral` builds
each single-integral corollary (a `C` entry) from its parent: the parent's
evaluator, correction and arguments, except that C3.2 and C4.1a print a
reading of their own. Each entry's `points` names the points the sweep builds
for it: "free", "nonzero", "distinct", "series", or "k1" for a `C` entry (NA
at any point with k != 1).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import (
    Polynomial,
    PreconditionError,
    RatLike,
    Record,
    _all_digits,
    as_rat,
    as_rat_tuple,
    box_moments,
    integer_samples,
)
from .bernoulli import (
    _bernoulli_values,
    _distinct_head,
    li_gf_check,
    mp_bernoulli,
    mp_bernoulli_gf_check,
    mp_bernoulli_poly,
)
from .cauchy import (
    FamilyPoint,
    _closed_values,
    _def_values,
    _lah_values,
    _pair,
    _poly_from_row,
    classic_first_with_lengths,
    lif_gf_check,
    mp_first_bell,
    mp_first_closed,
    mp_first_def,
    mp_first_noncentral,
    mp_first_via_polycauchy,
    mp_poly_first,
    mp_poly_second,
    mp_second_closed,
    mp_second_def,
    specialize,
)
from .stirling import _row
from .transforms import (
    _FROM_FIRST,
    _FROM_SECOND,
    _SIGNLESS_FIRST,
    _TO_FIRST,
    _expand,
)

__all__ = [
    "CATALOG",
    "GridSpec",
    "IDENTITY_IDS",
    "Identity",
    "IdentityReport",
    "ParamPoint",
    "errata_ledger",
    "point_to_json",
    "summarize",
    "sweep",
    "verify",
]

PASS = "PASS"
FAIL = "FAIL"
NA = "NA"


class ParamPoint(Record):
    """A parameter point for identity verification.

    z0 seeds extra polynomial sample points, q drives the q-parameter webs,
    and series_order is the truncation order for generating-function ids.
    """

    __slots__ = ("n", "k", "alpha", "lengths", "z0", "q", "series_order")

    def __init__(
        self,
        n: int = 0,
        k: int = 1,
        alpha: Iterable[RatLike] = (),
        lengths: Iterable[RatLike] = (Fraction(1),),
        z0: RatLike | None = None,
        q: RatLike | None = None,
        series_order: int | None = None,
    ) -> None:
        z0, q = (None if v is None else as_rat(v) for v in (z0, q))
        self._set(n, k, as_rat_tuple(alpha), as_rat_tuple(lengths), z0, q, series_order)


class IdentityReport(Record):
    __slots__ = ("identity", "point", "verbatim", "corrected", "lhs", "rhs", "note")

    def __init__(self, identity, point, verbatim, corrected, lhs, rhs, note=""):
        self._set(identity, point, verbatim, corrected, lhs, rhs, note)


class Identity(Record):
    """One catalog entry. `evaluate(point, *args)` gives both readings at a
    point; `correction` the corrected reading where the stated one fails.
    `points`: "free", "k1" (NA at k != 1), "nonzero" or "distinct" (parameters
    1, 2, ..., "distinct" order + 1 at n = order), or "series" (n = 0)."""

    __slots__ = ("id", "statement", "evaluate", "correction", "points", "args")

    def __init__(self, id, statement, evaluate, correction="", points="free", args=()):
        self._set(id, statement, evaluate, correction, points, args)


def point_to_json(point: ParamPoint) -> dict:
    return {
        "n": point.n,
        "k": point.k,
        "alpha": [str(a) for a in point.alpha],
        "lengths": [str(l) for l in point.lengths],
        "q": None if point.q is None else str(point.q),
        "z0": None if point.z0 is None else str(point.z0),
        "order": point.series_order,
    }


def _fmt(value: Fraction | Polynomial | Sequence | str) -> str:
    if isinstance(value, Polynomial):
        # str(Fraction(c, den)) without the Fraction: c/den in lowest terms.
        den, parts = value.den, []
        for c in value.num:
            g = math.gcd(c, den)
            parts.append(f"{c // g}/{den // g}" if den != g else str(c // g))
        return "[" + ", ".join(parts) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


_VERDICTS = {True: PASS, False: FAIL, None: NA}


def _outcome(verbatim_ok, corrected_ok, lhs, rhs, note: str = "") -> tuple:
    """The report fields after the identity and the point: the verdict of
    each reading (a bool, or None for NA), lhs and rhs as text, the note."""
    return _VERDICTS[verbatim_ok], _VERDICTS[corrected_ok], _fmt(lhs), _fmt(rhs), note


def _family(pt: ParamPoint) -> FamilyPoint:
    return FamilyPoint(pt.n, pt.k, pt.alpha, pt.lengths)


# ---------------------------------------------------------------------------
# Expansion identities. Every one, stated or corrected, is the double sum
# that `transforms._expand` computes for a weight constant
# (kind, e_n, e_m, e_j, p, absolute), read as written there. The corrected
# weights live in `transforms` beside the public transforms; these are the
# paper's stated weights where they differ.
# ---------------------------------------------------------------------------

_FIRST = (1, 0, 0, 0, -1, False)  # s(n,m) s(m,j) / m!: stated T4.3a, T5.2c
_ABS_FIRST = (1, 1, 0, 0, -1, True)  # (-1)^n |s|(n,m) s(m,j) / m!: stated T4.2a, T5.2d
_ABS_FIRST_UNSIGNED = (1, 0, 0, 0, -1, True)  # |s|(n,m) s(m,j) / m!: stated C4.1a
_SECOND = (2, 1, 1, 0, -1, False)  # (-1)^(n-m) S(n,m) S(m,j) / m!: stated T4.2b, T4.3b


# ---------------------------------------------------------------------------
# Shared evaluator bodies and stated routes, called with what an entry's
# evaluator and arguments name. Each evaluator computes, in this order, its
# value vector, the left-hand side, the corrected reading and the stated one,
# so the first precondition violated is the one reported.
# ---------------------------------------------------------------------------


def _readings_outcome(lhs, corrected, verbatim, label: str):
    """Both readings against lhs, compared exactly (a Polynomial by its
    coefficients)."""
    verbatim_ok = lhs == verbatim
    note = "" if verbatim_ok else f"{label} gives {_fmt(verbatim)}"
    return _outcome(verbatim_ok, lhs == corrected, lhs, corrected, note)


def _one_reading(lhs, rhs, note: str = "") -> tuple:
    """An identity with one reading: whether lhs equals rhs (a series by its
    order and reduced coefficients) fills both verdict columns. A series
    prints as its coefficient tuple, order + 1 entries."""
    ok = lhs == rhs
    return _outcome(ok, ok, *(getattr(v, "coeffs", v) for v in (lhs, rhs)), note)


def _inversion(pt: ParamPoint, stated, corrected, lhs_route, kernel, *bound):
    """An expansion identity: lhs_route against a family's values at 0..n,
    summed by the corrected and by the stated weight over one row n of the
    triangle both name. `kernel`, after its `bound` pairing or sign, is the
    family's one-pass kernel, the one its public route reads row n from: one
    table (or one product expansion) and one set of box moments give all n+1
    values, O(n^2) per point."""
    fp = _family(pt)
    values = kernel(*bound, fp, range(fp.n + 1))
    lhs = lhs_route(fp)
    # A stated weight equal to the corrected one is summed once.
    sums = _expand(values, fp.alpha, *dict.fromkeys((corrected, stated)))
    return _readings_outcome(lhs, sums[0], sums[-1], "stated reading")


def _require_order(pt: ParamPoint) -> int:
    if pt.series_order is None:
        raise PreconditionError("this identity needs a series truncation order")
    if pt.series_order < 0:
        raise PreconditionError("series order must be nonnegative")
    return pt.series_order


def _require_q(pt: ParamPoint) -> Fraction:
    if pt.q is None:
        raise PreconditionError("specialization web needs the q parameter")
    return pt.q


def _second_abs(pairing, fp: FamilyPoint):
    """The stated second kind, the signless row replaced by the absolute values
    of first-kind row n (read by _row, as `_expand` reads it): the stated
    numbers under _pair, the stated polynomial under _poly_from_row."""
    row = _row(fp.alpha[: fp.n], (0,) * fp.n, fp.n)
    moments = box_moments(fp.lengths, fp.n)
    return (-1) ** fp.n * pairing(Polynomial.over(map(abs, row.num), row.den), moments)


def _unit_value_times_row_sum(fp: FamilyPoint) -> Fraction:
    """T2.3 as stated: C_n at the unit box times the row sum of S(n, m; a)."""
    unit_value = classic_first_with_lengths(fp.n, (Fraction(1),) * fp.k)
    return _row(fp.alpha[: fp.n], range(fp.n), fp.n)(1) * unit_value


# ---------------------------------------------------------------------------
# The catalog's evaluators, and `_inversion` above. An entry names one of them
# and the arguments it takes after the point; a `C` entry reuses its parent's.
# A route, kernel, pairing, check or stated reading is named by its string,
# which `verify` looks up in this module's namespace when the entry runs, so
# a caller that rebinds it there (such as a per-layer tracer) sees every call.
# ---------------------------------------------------------------------------


def _readings(pt: ParamPoint, lhs_route, route, stated=None, label="", *bound):
    """lhs_route against the corrected `route` and, if the entry names one, the
    stated route called with `bound` and the family point, noted under `label`
    where it fails. With no stated route, one reading fills both columns."""
    fp = _family(pt)
    lhs, corrected = lhs_route(fp), route(fp)
    if stated is None:
        return _one_reading(lhs, corrected)
    return _readings_outcome(lhs, corrected, stated(*bound, fp), label)


def _eval_T32(pt: ParamPoint, remark: str = "") -> tuple:
    fp = _family(pt)
    lhs = mp_second_def(fp)
    # mp_second_lah's kernel: one Lah row, paired with the box and the unit box.
    corrected, verbatim = _lah_values(fp, (fp.lengths, (Fraction(1),) * fp.k))
    *fields, note = _readings_outcome(lhs, corrected, verbatim, "unit-length reading")
    return (*fields, "; ".join(s for s in (note, remark) if s))


def _eval_T41(pt: ParamPoint) -> tuple:
    order = _require_order(pt)
    alpha = _distinct_head(pt.alpha, order + 1)
    lhs, rhs = mp_bernoulli_gf_check(FamilyPoint(order, pt.k, alpha, pt.lengths))
    return _one_reading(lhs, rhs, _T41_REMARK)


def _poly_samples_outcome(pt: ParamPoint, route, sign: int, stated=None, *bound):
    """A polynomial closed form: the polynomial route `route` and the stated
    polynomial (the route's own, or `stated` called with `bound` and the family
    point) against the definitional oracle of the first-kind (sign 1) or
    second-kind (sign -1) polynomial at the samples: the definitions' kernel
    with the parameters shifted by sign z, once per sample z."""
    fp = _family(pt)
    samples = list(integer_samples(fp.n + 1))
    if pt.z0 is not None and pt.z0 not in samples:
        samples.append(pt.z0)
    oracle_values = [_def_values(sign, fp, (fp.n,), z)[0] for z in samples]
    corrected = route(fp)
    verbatim = corrected if stated is None else stated(*bound, fp)

    def matches(poly: Polynomial) -> bool:
        return all(poly(z) == v for z, v in zip(samples, oracle_values))

    # A stated polynomial equal to the corrected one is checked once.
    ok = {f: matches(f) for f in dict.fromkeys((corrected, verbatim))}
    note = "" if ok[verbatim] else f"stated expansion gives {_fmt(verbatim)}"
    return _outcome(ok[verbatim], ok[corrected], oracle_values, corrected, note)


def _series_check(pt: ParamPoint, check) -> tuple:
    """A generating function of classical values: the two series that
    `check` gives through the point's order."""
    order = _require_order(pt)
    return _one_reading(*check(pt.k, order))


def _cases(pt: ParamPoint, sign: int) -> tuple:
    """Specialization web of the first-kind (sign 1) or second-kind (sign -1)
    family: five arrows from specialize to the triangle row, the integrals and
    the kind's closed route. The second kind is the first at the negated roots
    under (-1)^n, in the triangle row as in the integrals."""
    q = _require_q(pt)
    n, k = pt.n, pt.k
    ell = pt.lengths[0] if pt.lengths else Fraction(1)
    classical_roots = tuple(Fraction(i) for i in range(n))
    kind = "first" if sign > 0 else "second"
    unit = (Fraction(1),) * k
    # Row n of s, s(n, m) scaled by (sign q)^(n-m), over the integers: sign q = u/v.
    row, u, v = _row(range(n), (0,) * n, n), sign * q.numerator, q.denominator
    scaled = (c * u ** (n - m) * v**m for m, c in enumerate(row.num))
    moments = box_moments(unit, n)
    triangle_q = sign**n * _pair(Polynomial.over(scaled, row.den * v**n), moments)
    closed = mp_first_closed if sign > 0 else mp_second_closed

    def integral(roots: tuple[Fraction, ...]) -> Fraction:
        product = Polynomial.from_roots(sign * r for r in roots)
        return sign**n * product.integral_to(ell)

    q_roots = tuple(Fraction(i) * q for i in range(n))
    poly = specialize("poly", kind, n, k)
    classic = specialize("classic", kind, n, lengths=(ell,))
    arrows = [
        ("poly-vs-triangle", poly, closed(FamilyPoint(n, k, classical_roots, unit))),
        ("classic-vs-integral", classic, integral(classical_roots)),
        ("q-poly-vs-homogeneity", specialize("q-poly", kind, n, k, q=q), triangle_q),
        (
            "extended-vs-closed",
            specialize("extended-q", kind, n, k, q=q, lengths=pt.lengths),
            closed(FamilyPoint(n, k, q_roots, pt.lengths)),
        ),
        (
            "q-classic-vs-integral",
            specialize("q-classic", kind, n, q=q, lengths=(ell,)),
            integral(q_roots),
        ),
    ]
    failed = [name for name, left, right in arrows if left != right]
    lhs = "; ".join(f"{name}={left}" for name, left, _ in arrows)
    rhs = "; ".join(f"{name}={right}" for name, _, right in arrows)
    note = "" if not failed else "failed arrows: " + ", ".join(failed)
    return _outcome(not failed, not failed, lhs, rhs, note)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

_SIGNLESS = (
    "the signless triangle must be read as the expansion of prod(x + a_i), "
    "equal to (-1)^(n-m) times the first-kind entry; entrywise absolute "
    "values agree with it only when every parameter is nonnegative"
)
_MJ = "insert the factor (-1)^(m-j) inside the double sum"
_MJ_SIGNLESS = (
    f"{_MJ} and read the signless triangle as the expansion of prod(x + a_i)"
)
_C32_REMARK = "stated form reuses the length symbol as the summation index"
_T41_REMARK = (
    "stated outer bound is unbound; read as the truncation order, "
    "which reorders the reconstructed double sum"
)


def _single_integral(parent, id, correction=None, args=None) -> Identity:
    """The single-integral corollary `id` of `parent`: its evaluator, and its
    correction and arguments unless the corollary is printed in a reading of
    its own, checked at k = 1 only."""
    return Identity(
        id,
        f"single-integral case of {parent.id}",
        parent.evaluate,
        parent.correction if correction is None else correction,
        "k1",
        parent.args if args is None else args,
    )


CATALOG: tuple[Identity, ...] = (
    _t21 := Identity(
        "T2.1",
        "first-kind values via the first-kind triangle",
        _readings,
        args=("mp_first_def", "mp_first_closed"),
    ),
    _single_integral(_t21, "C2.1"),
    _t22 := Identity(
        "T2.2",
        "first-kind values via the non-central table and the classical "
        "first-kind triangle",
        _readings,
        args=("mp_first_def", "mp_first_noncentral"),
    ),
    _single_integral(_t22, "C2.2"),
    Identity(
        "T2.3",
        "first-kind values as non-central combinations of classical-parameter "
        "values",
        _readings,
        "the classical-parameter factor is indexed by the summation variable "
        "and carries the box lengths: sum_m S(n,m;a) C_m(lengths)",
        args=("mp_first_def", "mp_first_via_polycauchy", "_unit_value_times_row_sum")
        + ("stated reading",),
    ),
    Identity(
        "T2.4",
        "explicit first-kind formula via weighted Bell polynomials of "
        "reciprocal power sums",
        _readings,
        points="nonzero",
        args=("mp_first_def", "mp_first_bell"),
    ),
    _t31 := Identity(
        "T3.1",
        "second-kind values via the signless triangle",
        _readings,
        _SIGNLESS,
        args=("mp_second_def", "mp_second_closed", "_second_abs")
        + ("absolute-value reading", "_pair"),
    ),
    _single_integral(_t31, "C3.1"),
    _t32 := Identity(
        "T3.2",
        "second-kind values via non-central, signed Lah, and "
        "classical-parameter factors",
        _eval_T32,
        "the classical-parameter factors carry the box lengths: C_l(lengths), "
        "not the unit-box values",
    ),
    _single_integral(
        _t32,
        "C3.2",
        "the classical factors carry the box length; the stated form also "
        "reuses the length symbol as the summation index",
        (_C32_REMARK,),
    ),
    Identity(
        "T4.1",
        "exponential generating function of the Bernoulli-type family",
        _eval_T41,
        points="distinct",
    ),
    # An expansion entry's arguments to `_inversion`: the stated weight, the
    # corrected one, the lhs route, and the values kernel with its pairing
    # or sign.
    _t42a := Identity(
        "T4.2a",
        "second-kind values expanded in Bernoulli-type values",
        _inversion,
        _MJ_SIGNLESS,
        args=(_ABS_FIRST, _SIGNLESS_FIRST, "mp_second_def", "_bernoulli_values")
        + ("_pair",),
    ),
    _t42b := Identity(
        "T4.2b",
        "Bernoulli-type values expanded in second-kind values",
        _inversion,
        "the prefactor is (-1)^n and the weight m! (not (-1)^(n-m) and 1/m!)",
        args=(_SECOND, _FROM_SECOND, "mp_bernoulli", "_def_values", -1),
    ),
    _single_integral(
        _t42a,
        "C4.1a",
        f"restore the (-1)^n prefactor of the parent identity and {_MJ}",
        # As printed the single-integral form drops even the (-1)^n prefactor.
        (_ABS_FIRST_UNSIGNED, *_t42a.args[1:]),
    ),
    _single_integral(_t42b, "C4.1b"),
    _t43a := Identity(
        "T4.3a",
        "first-kind values expanded in Bernoulli-type values",
        _inversion,
        _MJ,
        args=(_FIRST, _TO_FIRST, "mp_first_def", "_bernoulli_values", "_pair"),
    ),
    _t43b := Identity(
        "T4.3b",
        "Bernoulli-type values expanded in first-kind values",
        _inversion,
        "the weight is m!, not 1/m!",
        args=(_SECOND, _FROM_FIRST, "mp_bernoulli", "_def_values", 1),
    ),
    _single_integral(_t43a, "C4.2a"),
    _single_integral(_t43b, "C4.2b"),
    _t51a := Identity(
        "T5.1a",
        "closed form of the first-kind polynomial family",
        _poly_samples_outcome,
        # No stated route: the stated polynomial is the corrected one.
        args=("mp_poly_first", 1),
    ),
    _t51b := Identity(
        "T5.1b",
        "closed form of the second-kind polynomial family",
        _poly_samples_outcome,
        _SIGNLESS,
        args=("mp_poly_second", -1, "_second_abs", "_poly_from_row"),
    ),
    _single_integral(_t51a, "C5.1a"),
    _single_integral(_t51b, "C5.1b"),
    Identity(
        "T5.2a",
        "Bernoulli-type polynomials expanded in first-kind polynomials",
        _inversion,
        # The stated polynomial form carries the correct weights already.
        args=(_FROM_FIRST, _FROM_FIRST, "mp_bernoulli_poly", "_closed_values")
        + ("_poly_from_row", 1),
    ),
    Identity(
        "T5.2b",
        "Bernoulli-type polynomials expanded in second-kind polynomials",
        _inversion,
        "the prefactor is (-1)^n, not (-1)^(n-m)",
        # As stated, the weights of T5.2a: (-1)^(n-m) m!.
        args=(_FROM_FIRST, _FROM_SECOND, "mp_bernoulli_poly", "_closed_values")
        + ("_poly_from_row", -1),
    ),
    Identity(
        "T5.2c",
        "first-kind polynomials expanded in Bernoulli-type polynomials",
        _inversion,
        _MJ,
        args=(_FIRST, _TO_FIRST, "mp_poly_first", "_bernoulli_values")
        + ("_poly_from_row",),
    ),
    Identity(
        "T5.2d",
        "second-kind polynomials expanded in Bernoulli-type polynomials",
        _inversion,
        _MJ_SIGNLESS,
        args=(_ABS_FIRST, _SIGNLESS_FIRST, "mp_poly_second", "_bernoulli_values")
        + ("_poly_from_row",),
    ),
    Identity(
        "GF-Lif",
        "factorial-polylogarithm generating function of classical first-kind "
        "values",
        _series_check,
        points="series",
        args=("lif_gf_check",),
    ),
    Identity(
        "GF-Li",
        "polylogarithm generating function of classical Bernoulli-type values",
        _series_check,
        points="series",
        args=("li_gf_check",),
    ),
    Identity(
        "CASES-2", "specialization web of the first-kind family", _cases, args=(1,)
    ),
    Identity(
        "CASES-3", "specialization web of the second-kind family", _cases, args=(-1,)
    ),
)

IDENTITY_IDS: tuple[str, ...] = tuple(entry.id for entry in CATALOG)
_BY_ID: dict[str, Identity] = {entry.id: entry for entry in CATALOG}


def _resolved(args: tuple, names: dict) -> list:
    """`args` with each string that names a function in `names` replaced by
    that function; every other argument passes as itself."""
    return [names[a] if callable(names.get(a)) else a for a in args]


def verify(identity: str, point: ParamPoint) -> IdentityReport:
    """Evaluate one identity at one point; precondition violations become NA
    verdicts with a note, never exceptions. The entry's arguments are
    resolved in this module's namespace now, not at import."""
    entry = _BY_ID.get(identity)
    if entry is None:
        raise ValueError(f"unknown identity id {identity!r}")
    try:
        if entry.points == "k1" and point.k != 1:
            raise PreconditionError(f"single-integral case needs k = 1, got {point.k}")
        out = _all_digits(entry.evaluate, point, *_resolved(entry.args, globals()))
    except PreconditionError as exc:
        out = _outcome(None, None, "", "", f"precondition violated: {exc}")
    return IdentityReport(identity, point, *out)


# ---------------------------------------------------------------------------
# Grids and sweeping
# ---------------------------------------------------------------------------


class GridSpec(Record):
    """Sweep sizes: deterministic classical points plus `points` seeded random
    rational points per identity, numerators and denominators bounded."""

    __slots__ = ("n_max", "k_max", "points", "series_order", "bound")

    def __init__(self, n_max=5, k_max=2, points=10, series_order=6, bound=20):
        self._set(n_max, k_max, points, series_order, bound)
        for name, least in zip(self.__slots__, (0, 1, 0, 0, 1)):
            if getattr(self, name) < least:
                raise PreconditionError(f"grid {name} must be at least {least}")


def _rand_rat(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    while True:
        # randint(-b, b) and randint(1, b), drawn from the same stream.
        p, q = rng.randrange(2 * bound + 1) - bound, rng.randrange(bound) + 1
        if p or not nonzero:
            return Fraction(p, q)


def _random_point(rng: random.Random, grid: GridSpec, identity: str) -> ParamPoint:
    shape, order = _BY_ID[identity].points, grid.series_order
    k = 1 if shape == "k1" else rng.randint(1, grid.k_max)
    if distinct := shape == "distinct":
        # The 2 bound + 1 integers alone suffice up to here; beyond, count
        # the reduced p/q with |p|, q <= bound.
        if order >= 2 * grid.bound + 1:
            b = range(1, grid.bound + 1)
            pool = 1 + 2 * sum(math.gcd(p, q) == 1 for p in b for q in b)
            if order + 1 > pool:
                raise PreconditionError(
                    f"series order {order} needs {order + 1} distinct parameters, "
                    f"but only {pool} rationals have height at most {grid.bound}"
                )
        n, alpha = order, []
        while len(alpha) < order + 1:
            candidate = _rand_rat(rng, grid.bound)
            if candidate not in alpha:
                alpha.append(candidate)
    else:
        n = rng.randint(0, grid.n_max)
        alpha = [_rand_rat(rng, grid.bound) for _ in range(n)]
    lengths = [_rand_rat(rng, grid.bound, nonzero=True) for _ in range(k)]
    # z0 and q are drawn last, in this order, to keep the seeded stream.
    z0_q = () if distinct else (_rand_rat(rng, grid.bound), _rand_rat(rng, grid.bound))
    return ParamPoint(n, k, alpha, lengths, *z0_q, series_order=order)


def _points_for(identity: str, grid: GridSpec, seed: int) -> list[ParamPoint]:
    """Structured points built from the entry's `points`, then seeded random ones."""
    one, order, shape = Fraction(1), grid.series_order, _BY_ID[identity].points
    if shape == "series":
        orders = sorted({min(2, order), order})
        return [
            ParamPoint(0, k, (), (one,), series_order=o)
            for k in range(1, grid.k_max + 1)
            for o in orders
        ]
    k_options = [1] if shape == "k1" else sorted({1, min(2, grid.k_max)})
    start = 1 if shape in ("nonzero", "distinct") else 0
    z0_q = (None, None) if (distinct := shape == "distinct") else (one, one)
    points = [
        ParamPoint(n, k, range(start, start + n + distinct), (one,) * k, *z0_q, order)
        for n in ([order] if distinct else range(min(grid.n_max, 4) + 1))
        for k in k_options
    ]
    rng = random.Random(f"{seed}:{identity}")
    points += [_random_point(rng, grid, identity) for _ in range(grid.points)]
    return points


def _checked_ids(ids: Iterable[str]) -> tuple[str, ...]:
    """`ids` once each, in catalog order. ValueError for an empty list or an
    unknown id, naming every unknown one."""
    chosen = list(ids)
    if not chosen:
        raise ValueError("no identity ids given")
    unknown = [i for i in chosen if i not in _BY_ID]
    if unknown:
        raise ValueError(f"unknown identity ids: {','.join(unknown)}")
    return tuple(sorted(set(chosen), key=IDENTITY_IDS.index))


def sweep(
    ids: Iterable[str] | None = None,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> tuple[IdentityReport, ...]:
    """Verify the requested identities (all by default) over deterministic
    classical points plus seeded random rational points.

    The report tuple is ordered by (catalog order, point index), each id
    swept once however often it is requested, and is a pure function of
    (ids, grid, seed). A string is one id. An empty id list raises
    ValueError, since a sweep that checked nothing must not read as a success.
    """
    if ids is None:
        chosen = IDENTITY_IDS
    else:
        chosen = _checked_ids([ids] if isinstance(ids, str) else ids)
    return tuple(
        verify(identity, point)
        for identity in chosen
        for point in _points_for(identity, grid, seed)
    )


def summarize(reports: Sequence[IdentityReport]) -> dict:
    """Aggregate verdict counts per identity id, in catalog order."""
    out: dict[str, dict[str, dict[str, int]]] = {}
    for identity in IDENTITY_IDS:
        rows = [r for r in reports if r.identity == identity]
        if not rows:
            continue
        counts = {
            "verbatim": {PASS: 0, FAIL: 0, NA: 0},
            "corrected": {PASS: 0, FAIL: 0, NA: 0},
        }
        for r in rows:
            counts["verbatim"][r.verbatim] += 1
            counts["corrected"][r.corrected] += 1
        out[identity] = counts
    return out


def _point_size(point: ParamPoint) -> tuple:
    height = sum(
        abs(v.numerator) + v.denominator
        for v in point.alpha + point.lengths
    )
    extras = sum(
        abs(v.numerator) + v.denominator
        for v in (point.q, point.z0)
        if v is not None
    )
    return (point.n, point.k, height, extras, point.series_order or 0)


def errata_ledger(reports: Sequence[IdentityReport]) -> dict:
    """Group verbatim failures by identity: one entry per identity that
    failed anywhere, with a minimal counterexample point and the corrected
    reading. Deterministic for a deterministic report sequence."""
    entries = []
    for entry in CATALOG:
        rows = [r for r in reports if r.identity == entry.id]
        failures = [r for r in rows if r.verbatim == FAIL]
        if not failures:
            continue
        minimal = min(failures, key=lambda r: _point_size(r.point))
        entries.append(
            {
                "identity": entry.id,
                "statement": entry.statement,
                "corrected_reading": entry.correction,
                "verbatim_failures": len(failures),
                "points_checked": len(rows),
                "counterexample": {
                    "point": point_to_json(minimal.point),
                    "lhs": minimal.lhs,
                    "rhs": minimal.rhs,
                    "note": minimal.note,
                },
            }
        )
    return {"entries": entries}
