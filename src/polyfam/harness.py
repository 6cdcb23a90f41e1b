"""Mechanical verification of the identity catalog.

Every cataloged identity is evaluated in two readings at each parameter
point: the `verbatim` reading follows the stated formula exactly (including
any sign or index slips it may contain), while the `corrected` reading is the
variant derivable from the definitions (for most identities the two
coincide). Verdicts are PASS, FAIL, or NA; NA marks a point outside the
identity's preconditions and is never a failure. The errata ledger collects,
for each identity whose verbatim reading failed anywhere, a minimal
counterexample and a description of the correction.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebra import (
    Polynomial,
    PreconditionError,
    Rat,
    RatLike,
    TruncatedSeries,
    as_rat_tuple,
    exp_series,
    integer_samples,
    log1p_series,
    poly_from_roots,
)
from .bernoulli import (
    _bernoulli_from_row,
    _bernoulli_poly_from_row,
    classic_poly_bernoulli,
    mp_bernoulli,
    mp_bernoulli_gf_check,
    mp_bernoulli_poly,
)
from .cauchy import (
    FamilyPoint,
    _classic_first_values,
    _poly_from_row,
    classic_first_with_lengths,
    lif_series,
    mp_first_bell,
    mp_first_closed,
    mp_first_def,
    mp_first_noncentral,
    mp_first_via_polycauchy,
    mp_poly_first,
    mp_poly_first_oracle,
    mp_poly_second,
    mp_poly_second_oracle,
    mp_second_closed,
    mp_second_def,
    mp_second_lah,
    specialize,
)
from .stirling import (
    comtet_first,
    comtet_second,
    lah_signed,
    noncentral_second,
    signless_comtet_first,
    stirling_first,
)

__all__ = [
    "GridSpec",
    "IDENTITY_IDS",
    "IdentityReport",
    "ParamPoint",
    "STATEMENTS",
    "bernoulli_from_first",
    "bernoulli_from_second",
    "errata_ledger",
    "first_from_bernoulli",
    "point_to_json",
    "second_from_bernoulli",
    "summarize",
    "sweep",
    "verify",
]

PASS = "PASS"
FAIL = "FAIL"
NA = "NA"

IDENTITY_IDS: tuple[str, ...] = (
    "T2.1",
    "C2.1",
    "T2.2",
    "C2.2",
    "T2.3",
    "T2.4",
    "T3.1",
    "C3.1",
    "T3.2",
    "C3.2",
    "T4.1",
    "T4.2a",
    "T4.2b",
    "C4.1a",
    "C4.1b",
    "T4.3a",
    "T4.3b",
    "C4.2a",
    "C4.2b",
    "T5.1a",
    "T5.1b",
    "C5.1a",
    "C5.1b",
    "T5.2a",
    "T5.2b",
    "T5.2c",
    "T5.2d",
    "GF-Lif",
    "GF-Li",
    "CASES-2",
    "CASES-3",
)

STATEMENTS: dict[str, str] = {
    "T2.1": "first-kind values via the first-kind triangle",
    "C2.1": "single-integral case of T2.1",
    "T2.2": "first-kind values via the non-central table and the classical first-kind triangle",
    "C2.2": "single-integral case of T2.2",
    "T2.3": "first-kind values as non-central combinations of classical-parameter values",
    "T2.4": "explicit first-kind formula via weighted Bell polynomials of reciprocal power sums",
    "T3.1": "second-kind values via the signless triangle",
    "C3.1": "single-integral case of T3.1",
    "T3.2": "second-kind values via non-central, signed Lah, and classical-parameter factors",
    "C3.2": "single-integral case of T3.2",
    "T4.1": "exponential generating function of the Bernoulli-type family",
    "T4.2a": "second-kind values expanded in Bernoulli-type values",
    "T4.2b": "Bernoulli-type values expanded in second-kind values",
    "C4.1a": "single-integral case of T4.2a",
    "C4.1b": "single-integral case of T4.2b",
    "T4.3a": "first-kind values expanded in Bernoulli-type values",
    "T4.3b": "Bernoulli-type values expanded in first-kind values",
    "C4.2a": "single-integral case of T4.3a",
    "C4.2b": "single-integral case of T4.3b",
    "T5.1a": "closed form of the first-kind polynomial family",
    "T5.1b": "closed form of the second-kind polynomial family",
    "C5.1a": "single-integral case of T5.1a",
    "C5.1b": "single-integral case of T5.1b",
    "T5.2a": "Bernoulli-type polynomials expanded in first-kind polynomials",
    "T5.2b": "Bernoulli-type polynomials expanded in second-kind polynomials",
    "T5.2c": "first-kind polynomials expanded in Bernoulli-type polynomials",
    "T5.2d": "second-kind polynomials expanded in Bernoulli-type polynomials",
    "GF-Lif": "factorial-polylogarithm generating function of classical first-kind values",
    "GF-Li": "polylogarithm generating function of classical Bernoulli-type values",
    "CASES-2": "specialization web of the first-kind family",
    "CASES-3": "specialization web of the second-kind family",
}

_SIGNLESS_NOTE = (
    "the signless triangle must be read as the expansion of prod(x + a_i), "
    "equal to (-1)^(n-m) times the first-kind entry; entrywise absolute "
    "values agree with it only when every parameter is nonnegative"
)

CORRECTED_READINGS: dict[str, str] = {
    "T2.3": (
        "the classical-parameter factor is indexed by the summation variable "
        "and carries the box lengths: sum_m S(n,m;a) C_m(lengths)"
    ),
    "T3.1": _SIGNLESS_NOTE,
    "C3.1": _SIGNLESS_NOTE,
    "T3.2": (
        "the classical-parameter factors carry the box lengths: C_l(lengths), "
        "not the unit-box values"
    ),
    "C3.2": (
        "the classical factors carry the box length; the stated form also "
        "reuses the length symbol as the summation index"
    ),
    "T4.2a": (
        "insert the factor (-1)^(m-j) inside the double sum and read the "
        "signless triangle as the expansion of prod(x + a_i)"
    ),
    "T4.2b": "the prefactor is (-1)^n and the weight m! (not (-1)^(n-m) and 1/m!)",
    "C4.1a": (
        "restore the (-1)^n prefactor of the parent identity and insert the "
        "factor (-1)^(m-j) inside the double sum"
    ),
    "C4.1b": "the prefactor is (-1)^n and the weight m! (not (-1)^(n-m) and 1/m!)",
    "T4.3a": "insert the factor (-1)^(m-j) inside the double sum",
    "T4.3b": "the weight is m!, not 1/m!",
    "C4.2a": "insert the factor (-1)^(m-j) inside the double sum",
    "C4.2b": "the weight is m!, not 1/m!",
    "T5.1b": _SIGNLESS_NOTE,
    "C5.1b": _SIGNLESS_NOTE,
    "T5.2b": "the prefactor is (-1)^n, not (-1)^(n-m)",
    "T5.2c": "insert the factor (-1)^(m-j) inside the double sum",
    "T5.2d": (
        "insert the factor (-1)^(m-j) inside the double sum and read the "
        "signless triangle as the expansion of prod(x + a_i)"
    ),
}


@dataclass(frozen=True)
class ParamPoint:
    """A parameter point for identity verification.

    z0 seeds extra polynomial sample points, q drives the q-parameter webs,
    and series_order is the truncation order for generating-function ids.
    """

    n: int = 0
    k: int = 1
    alpha: tuple[Rat, ...] = ()
    lengths: tuple[Rat, ...] = (Fraction(1),)
    z0: Optional[Rat] = None
    q: Optional[Rat] = None
    series_order: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_rat_tuple(self.alpha))
        object.__setattr__(self, "lengths", as_rat_tuple(self.lengths))
        if self.z0 is not None:
            object.__setattr__(self, "z0", Fraction(self.z0))
        if self.q is not None:
            object.__setattr__(self, "q", Fraction(self.q))


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    point: ParamPoint
    verbatim: str
    corrected: str
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class _Outcome:
    verbatim: str
    corrected: str
    lhs: str
    rhs: str
    note: str = ""


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


def _fmt(value: Union[Rat, Polynomial, TruncatedSeries, Sequence]) -> str:
    if isinstance(value, Polynomial):
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"
    if isinstance(value, TruncatedSeries):
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _verdict(equal: bool) -> str:
    return PASS if equal else FAIL


def _family(pt: ParamPoint) -> FamilyPoint:
    return FamilyPoint(pt.n, pt.k, pt.alpha, pt.lengths)


def _force_k1(pt: ParamPoint) -> ParamPoint:
    lengths = pt.lengths[:1] if pt.lengths else (Fraction(1),)
    return ParamPoint(
        n=pt.n,
        k=1,
        alpha=pt.alpha,
        lengths=lengths,
        z0=pt.z0,
        q=pt.q,
        series_order=pt.series_order,
    )


# ---------------------------------------------------------------------------
# Corrected inversion transforms (shared with round-trip tests). Each maps a
# vector of values indexed 0..n for one family to the target family's value
# at index n; they apply to numbers and to polynomials alike.
# ---------------------------------------------------------------------------


def _double_sum(n, weight, values, zero):
    acc = zero
    for j in range(n + 1):
        inner = zero
        for m in range(j, n + 1):
            w = weight(j, m)
            if w != 0:
                inner = inner + w * values[j]
        acc = acc + inner
    return acc


def _zero_like(values):
    return Polynomial() if isinstance(values[0], Polynomial) else Fraction(0)


def second_from_bernoulli(
    n: int, alpha: Sequence[RatLike], values: Sequence
):
    """Second-kind value (or polynomial) at index n from Bernoulli-type
    values 0..n: sum_{j,m} (-1)^(n+m-j) sc(n,m) s(m,j)/m! values[j]."""
    a = as_rat_tuple(alpha)
    s = comtet_first(a, n)
    sc = signless_comtet_first(a, n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (n + m - j))
            * sc[n, m]
            * s[m, j]
            / Fraction(math.factorial(m))
        )

    return _double_sum(n, weight, values, _zero_like(values))


def bernoulli_from_second(
    n: int, alpha: Sequence[RatLike], values: Sequence
):
    """Bernoulli-type value (or polynomial) at index n from second-kind
    values 0..n: sum_{j,m} (-1)^n m! S(n,m) S(m,j) values[j]."""
    a = as_rat_tuple(alpha)
    table = comtet_second(a, n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** n)
            * math.factorial(m)
            * table[n, m]
            * table[m, j]
        )

    return _double_sum(n, weight, values, _zero_like(values))


def first_from_bernoulli(
    n: int, alpha: Sequence[RatLike], values: Sequence
):
    """First-kind value (or polynomial) at index n from Bernoulli-type values
    0..n: sum_{j,m} (-1)^(m-j) s(n,m) s(m,j)/m! values[j]."""
    a = as_rat_tuple(alpha)
    s = comtet_first(a, n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (m - j))
            * s[n, m]
            * s[m, j]
            / Fraction(math.factorial(m))
        )

    return _double_sum(n, weight, values, _zero_like(values))


def bernoulli_from_first(
    n: int, alpha: Sequence[RatLike], values: Sequence
):
    """Bernoulli-type value (or polynomial) at index n from first-kind values
    0..n: sum_{j,m} (-1)^(n-m) m! S(n,m) S(m,j) values[j]."""
    a = as_rat_tuple(alpha)
    table = comtet_second(a, n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (n - m))
            * math.factorial(m)
            * table[n, m]
            * table[m, j]
        )

    return _double_sum(n, weight, values, _zero_like(values))


# ---------------------------------------------------------------------------
# Per-identity evaluators
# ---------------------------------------------------------------------------


def _values_equal_outcome(lhs: Rat, rhs: Rat, note: str = "") -> _Outcome:
    v = _verdict(lhs == rhs)
    return _Outcome(v, v, _fmt(lhs), _fmt(rhs), note)


def _eval_T21(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    return _values_equal_outcome(mp_first_def(fp), mp_first_closed(fp))


def _eval_C21(pt: ParamPoint) -> _Outcome:
    return _eval_T21(_force_k1(pt))


def _eval_T22(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    return _values_equal_outcome(mp_first_def(fp), mp_first_noncentral(fp))


def _eval_C22(pt: ParamPoint) -> _Outcome:
    return _eval_T22(_force_k1(pt))


def _eval_T23(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    lhs = mp_first_def(fp)
    corrected = mp_first_via_polycauchy(fp)
    nc = noncentral_second(fp.alpha[: fp.n], fp.n)
    unit_value = classic_first_with_lengths(fp.n, fp.k, (Fraction(1),) * fp.k)
    verbatim = sum(
        (nc[fp.n, m] * unit_value for m in range(fp.n + 1)), Fraction(0)
    )
    note = ""
    if verbatim != lhs:
        note = f"stated reading gives {verbatim}"
    return _Outcome(
        _verdict(verbatim == lhs),
        _verdict(corrected == lhs),
        _fmt(lhs),
        _fmt(corrected),
        note,
    )


def _eval_T24(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    return _values_equal_outcome(mp_first_def(fp), mp_first_bell(fp))


def _second_abs_closed(fp: FamilyPoint) -> Rat:
    """Stated closed form with entrywise absolute values of the first-kind
    triangle in place of the signless triangle."""
    table = comtet_first(fp.alpha[: fp.n], fp.n).entrywise_abs()
    prod = Fraction(1)
    for l in fp.lengths:
        prod *= l
    return Fraction((-1) ** fp.n) * sum(
        (
            table[fp.n, m] * prod ** (m + 1) / Fraction((m + 1) ** fp.k)
            for m in range(fp.n + 1)
        ),
        Fraction(0),
    )


def _eval_T31(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    lhs = mp_second_def(fp)
    corrected = mp_second_closed(fp)
    verbatim = _second_abs_closed(fp)
    note = ""
    if verbatim != lhs:
        note = f"absolute-value reading gives {verbatim}"
    return _Outcome(
        _verdict(verbatim == lhs),
        _verdict(corrected == lhs),
        _fmt(lhs),
        _fmt(corrected),
        note,
    )


def _eval_C31(pt: ParamPoint) -> _Outcome:
    return _eval_T31(_force_k1(pt))


def _eval_T32(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    lhs = mp_second_def(fp)
    corrected = mp_second_lah(fp)
    nc = noncentral_second(fp.alpha[: fp.n], fp.n)
    lah = lah_signed(fp.n)
    unit_values = _classic_first_values(fp.n, fp.k, Fraction(1))
    verbatim = Fraction(0)
    for l in range(fp.n + 1):
        for m in range(l, fp.n + 1):
            verbatim += nc[fp.n, m] * lah[m, l] * unit_values[l]
    note = ""
    if verbatim != lhs:
        note = f"unit-length reading gives {verbatim}"
    return _Outcome(
        _verdict(verbatim == lhs),
        _verdict(corrected == lhs),
        _fmt(lhs),
        _fmt(corrected),
        note,
    )


def _eval_C32(pt: ParamPoint) -> _Outcome:
    out = _eval_T32(_force_k1(pt))
    extra = "stated form reuses the length symbol as the summation index"
    note = f"{out.note}; {extra}" if out.note else extra
    return _Outcome(out.verbatim, out.corrected, out.lhs, out.rhs, note)


def _require_order(pt: ParamPoint) -> int:
    if pt.series_order is None:
        raise PreconditionError("this identity needs a series truncation order")
    if pt.series_order < 0:
        raise PreconditionError("series order must be nonnegative")
    return pt.series_order


def _eval_T41(pt: ParamPoint) -> _Outcome:
    order = _require_order(pt)
    check = mp_bernoulli_gf_check(pt.alpha, pt.lengths, pt.k, order)
    return _Outcome(
        _verdict(check.verbatim_matches),
        _verdict(check.all_match),
        _fmt(check.lhs),
        _fmt(check.rhs),
        check.note,
    )


def _bernoulli_vector(fp: FamilyPoint) -> list[Rat]:
    table = comtet_second(fp.alpha[: fp.n], fp.n)
    return [_bernoulli_from_row(fp, row) for row in table.rows]


def _first_vector(fp: FamilyPoint) -> list[Rat]:
    return [
        mp_first_def(FamilyPoint(j, fp.k, fp.alpha, fp.lengths))
        for j in range(fp.n + 1)
    ]


def _second_vector(fp: FamilyPoint) -> list[Rat]:
    return [
        mp_second_def(FamilyPoint(j, fp.k, fp.alpha, fp.lengths))
        for j in range(fp.n + 1)
    ]


def _inversion_outcome(
    lhs, corrected, verbatim, stated_label: str, sample_count: int = 0
) -> _Outcome:
    if isinstance(lhs, Polynomial):
        # Degrees are bounded by the family index, so sample_count points
        # (strictly more than the degree bound) decide equality exactly.
        samples = integer_samples(sample_count)
        corrected_ok = all(lhs(z) == corrected(z) for z in samples)
        verbatim_ok = all(lhs(z) == verbatim(z) for z in samples)
    else:
        corrected_ok = lhs == corrected
        verbatim_ok = lhs == verbatim
    note = "" if verbatim_ok else f"{stated_label} gives {_fmt(verbatim)}"
    return _Outcome(
        _verdict(verbatim_ok),
        _verdict(corrected_ok),
        _fmt(lhs),
        _fmt(corrected),
        note,
    )


def _eval_T42a(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _bernoulli_vector(fp)
    lhs = mp_second_def(fp)
    corrected = second_from_bernoulli(fp.n, fp.alpha, values)
    s = comtet_first(fp.alpha[: fp.n], fp.n)
    sabs = s.entrywise_abs()

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** fp.n)
            * s[m, j]
            * sabs[fp.n, m]
            / Fraction(math.factorial(m))
        )

    verbatim = _double_sum(fp.n, weight, values, Fraction(0))
    return _inversion_outcome(lhs, corrected, verbatim, "stated reading")


def _eval_T42b(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _second_vector(fp)
    lhs = mp_bernoulli(fp)
    corrected = bernoulli_from_second(fp.n, fp.alpha, values)
    table = comtet_second(fp.alpha[: fp.n], fp.n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (fp.n - m))
            * table[m, j]
            * table[fp.n, m]
            / Fraction(math.factorial(m))
        )

    verbatim = _double_sum(fp.n, weight, values, Fraction(0))
    return _inversion_outcome(lhs, corrected, verbatim, "stated reading")


def _eval_C41a(pt: ParamPoint) -> _Outcome:
    pt = _force_k1(pt)
    fp = _family(pt)
    values = _bernoulli_vector(fp)
    lhs = mp_second_def(fp)
    corrected = second_from_bernoulli(fp.n, fp.alpha, values)
    s = comtet_first(fp.alpha[: fp.n], fp.n)
    sabs = s.entrywise_abs()

    # As printed the single-integral form drops even the (-1)^n prefactor.
    def weight(j: int, m: int) -> Rat:
        return s[m, j] * sabs[fp.n, m] / Fraction(math.factorial(m))

    verbatim = _double_sum(fp.n, weight, values, Fraction(0))
    return _inversion_outcome(lhs, corrected, verbatim, "stated reading")


def _eval_C41b(pt: ParamPoint) -> _Outcome:
    return _eval_T42b(_force_k1(pt))


def _eval_T43a(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _bernoulli_vector(fp)
    lhs = mp_first_def(fp)
    corrected = first_from_bernoulli(fp.n, fp.alpha, values)
    s = comtet_first(fp.alpha[: fp.n], fp.n)

    def weight(j: int, m: int) -> Rat:
        return s[m, j] * s[fp.n, m] / Fraction(math.factorial(m))

    verbatim = _double_sum(fp.n, weight, values, Fraction(0))
    return _inversion_outcome(lhs, corrected, verbatim, "stated reading")


def _eval_T43b(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _first_vector(fp)
    lhs = mp_bernoulli(fp)
    corrected = bernoulli_from_first(fp.n, fp.alpha, values)
    table = comtet_second(fp.alpha[: fp.n], fp.n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (fp.n - m))
            * table[m, j]
            * table[fp.n, m]
            / Fraction(math.factorial(m))
        )

    verbatim = _double_sum(fp.n, weight, values, Fraction(0))
    return _inversion_outcome(lhs, corrected, verbatim, "stated reading")


def _eval_C42a(pt: ParamPoint) -> _Outcome:
    return _eval_T43a(_force_k1(pt))


def _eval_C42b(pt: ParamPoint) -> _Outcome:
    return _eval_T43b(_force_k1(pt))


def _poly_samples_outcome(
    fp: FamilyPoint,
    pt: ParamPoint,
    poly_corrected: Polynomial,
    poly_verbatim: Polynomial,
    oracle: Callable[[FamilyPoint, Rat], Rat],
) -> _Outcome:
    samples = list(integer_samples(fp.n + 1))
    if pt.z0 is not None and pt.z0 not in samples:
        samples.append(pt.z0)
    oracle_values = [oracle(fp, z) for z in samples]
    corrected_ok = all(
        poly_corrected(z) == v for z, v in zip(samples, oracle_values)
    )
    verbatim_ok = all(
        poly_verbatim(z) == v for z, v in zip(samples, oracle_values)
    )
    note = (
        ""
        if verbatim_ok
        else f"stated expansion gives {_fmt(poly_verbatim)}"
    )
    return _Outcome(
        _verdict(verbatim_ok),
        _verdict(corrected_ok),
        _fmt(tuple(oracle_values)),
        _fmt(poly_corrected),
        note,
    )


def _eval_T51a(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    poly = mp_poly_first(fp)
    return _poly_samples_outcome(fp, pt, poly, poly, mp_poly_first_oracle)


def _poly_second_abs(fp: FamilyPoint) -> Polynomial:
    """Stated second-kind polynomial expansion with entrywise absolute values
    of the first-kind triangle."""
    table = comtet_first(fp.alpha[: fp.n], fp.n).entrywise_abs()
    prod = Fraction(1)
    for l in fp.lengths:
        prod *= l
    coeffs = [Fraction(0)] * (fp.n + 1)
    for m in range(fp.n + 1):
        entry = table[fp.n, m]
        if entry == 0:
            continue
        for i in range(m + 1):
            coeffs[i] += (
                Fraction((-1) ** (i + fp.n))
                * math.comb(m, i)
                * entry
                * prod ** (m - i + 1)
                / Fraction((m - i + 1) ** fp.k)
            )
    return Polynomial(coeffs)


def _eval_T51b(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    return _poly_samples_outcome(
        fp, pt, mp_poly_second(fp), _poly_second_abs(fp), mp_poly_second_oracle
    )


def _eval_C51a(pt: ParamPoint) -> _Outcome:
    return _eval_T51a(_force_k1(pt))


def _eval_C51b(pt: ParamPoint) -> _Outcome:
    return _eval_T51b(_force_k1(pt))


def _first_poly_vector(fp: FamilyPoint) -> list[Polynomial]:
    table = comtet_first(fp.alpha[: fp.n], fp.n)
    return [_poly_from_row(fp, row) for row in table.rows]


def _second_poly_vector(fp: FamilyPoint) -> list[Polynomial]:
    table = signless_comtet_first(fp.alpha[: fp.n], fp.n)
    return [(-1) ** j * _poly_from_row(fp, row) for j, row in enumerate(table.rows)]


def _bernoulli_poly_vector(fp: FamilyPoint) -> list[Polynomial]:
    table = comtet_second(fp.alpha[: fp.n], fp.n)
    return [_bernoulli_poly_from_row(fp, row) for row in table.rows]


def _eval_T52a(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _first_poly_vector(fp)
    lhs = mp_bernoulli_poly(fp)
    corrected = bernoulli_from_first(fp.n, fp.alpha, values)
    # The stated polynomial form carries the correct weights already.
    verbatim = corrected
    return _inversion_outcome(
        lhs, corrected, verbatim, "stated reading", sample_count=fp.n + 1
    )


def _eval_T52b(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _second_poly_vector(fp)
    lhs = mp_bernoulli_poly(fp)
    corrected = bernoulli_from_second(fp.n, fp.alpha, values)
    table = comtet_second(fp.alpha[: fp.n], fp.n)

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** (fp.n - m))
            * math.factorial(m)
            * table[m, j]
            * table[fp.n, m]
        )

    verbatim = _double_sum(fp.n, weight, values, Polynomial())
    return _inversion_outcome(
        lhs, corrected, verbatim, "stated reading", sample_count=fp.n + 1
    )


def _eval_T52c(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _bernoulli_poly_vector(fp)
    lhs = mp_poly_first(fp)
    corrected = first_from_bernoulli(fp.n, fp.alpha, values)
    s = comtet_first(fp.alpha[: fp.n], fp.n)

    def weight(j: int, m: int) -> Rat:
        return s[m, j] * s[fp.n, m] / Fraction(math.factorial(m))

    verbatim = _double_sum(fp.n, weight, values, Polynomial())
    return _inversion_outcome(
        lhs, corrected, verbatim, "stated reading", sample_count=fp.n + 1
    )


def _eval_T52d(pt: ParamPoint) -> _Outcome:
    fp = _family(pt)
    values = _bernoulli_poly_vector(fp)
    lhs = mp_poly_second(fp)
    corrected = second_from_bernoulli(fp.n, fp.alpha, values)
    s = comtet_first(fp.alpha[: fp.n], fp.n)
    sabs = s.entrywise_abs()

    def weight(j: int, m: int) -> Rat:
        return (
            Fraction((-1) ** fp.n)
            * s[m, j]
            * sabs[fp.n, m]
            / Fraction(math.factorial(m))
        )

    verbatim = _double_sum(fp.n, weight, values, Polynomial())
    return _inversion_outcome(
        lhs, corrected, verbatim, "stated reading", sample_count=fp.n + 1
    )


def _eval_GF_Lif(pt: ParamPoint) -> _Outcome:
    order = _require_order(pt)
    lhs = lif_series(pt.k, order).compose(log1p_series(order))
    rhs = TruncatedSeries(
        order,
        [
            specialize("poly", "first", n, pt.k) / math.factorial(n)
            for n in range(order + 1)
        ],
    )
    v = _verdict(lhs == rhs)
    return _Outcome(v, v, _fmt(lhs), _fmt(rhs))


def _eval_GF_Li(pt: ParamPoint) -> _Outcome:
    order = _require_order(pt)
    u = 1 - exp_series(order, rate=-1)
    lhs = TruncatedSeries.constant(0, order)
    for m in range(1, order + 2):
        lhs = lhs + u ** (m - 1) / Fraction(m**pt.k)
    rhs = TruncatedSeries(
        order,
        [
            classic_poly_bernoulli(n, pt.k) / math.factorial(n)
            for n in range(order + 1)
        ],
    )
    v = _verdict(lhs == rhs)
    return _Outcome(v, v, _fmt(lhs), _fmt(rhs))


def _require_q(pt: ParamPoint) -> Rat:
    if pt.q is None:
        raise PreconditionError("specialization web needs the q parameter")
    return pt.q


def _cases_outcome(arrows: list[tuple[str, Rat, Rat]]) -> _Outcome:
    failed = [name for name, left, right in arrows if left != right]
    v = _verdict(not failed)
    lhs = "; ".join(f"{name}={left}" for name, left, _ in arrows)
    rhs = "; ".join(f"{name}={right}" for name, _, right in arrows)
    note = "" if not failed else "failed arrows: " + ", ".join(failed)
    return _Outcome(v, v, lhs, rhs, note)


def _eval_CASES2(pt: ParamPoint) -> _Outcome:
    q = _require_q(pt)
    n, k = pt.n, pt.k
    ell = pt.lengths[0] if pt.lengths else Fraction(1)
    s = stirling_first(n)
    triangle_poly = sum(
        (s[n, m] / Fraction((m + 1) ** k) for m in range(n + 1)), Fraction(0)
    )
    triangle_q = sum(
        (s[n, m] * q ** (n - m) / Fraction((m + 1) ** k) for m in range(n + 1)),
        Fraction(0),
    )
    classical_roots = tuple(Fraction(i) for i in range(n))
    q_roots = tuple(Fraction(i) * q for i in range(n))
    arrows = [
        (
            "poly-vs-triangle",
            specialize("poly", "first", n, k),
            triangle_poly,
        ),
        (
            "classic-vs-integral",
            specialize("classic", "first", n, lengths=(ell,)),
            poly_from_roots(classical_roots).integral_to(ell),
        ),
        (
            "q-poly-vs-homogeneity",
            specialize("q-poly", "first", n, k, q=q),
            triangle_q,
        ),
        (
            "q-one-collapse",
            specialize("q-poly", "first", n, k, q=1),
            specialize("poly", "first", n, k),
        ),
        (
            "extended-vs-closed",
            specialize("extended-q", "first", n, k, q=q, lengths=pt.lengths),
            mp_first_closed(FamilyPoint(n, k, q_roots, pt.lengths)),
        ),
        (
            "extended-unit-collapse",
            specialize(
                "extended-q", "first", n, k, q=q, lengths=(Fraction(1),) * k
            ),
            specialize("q-poly", "first", n, k, q=q),
        ),
        (
            "q-classic-vs-integral",
            specialize("q-classic", "first", n, q=q, lengths=(ell,)),
            poly_from_roots(q_roots).integral_to(ell),
        ),
        (
            "q-classic-collapse",
            specialize("q-classic", "first", n, q=1, lengths=(ell,)),
            specialize("classic", "first", n, lengths=(ell,)),
        ),
    ]
    return _cases_outcome(arrows)


def _eval_CASES3(pt: ParamPoint) -> _Outcome:
    q = _require_q(pt)
    n, k = pt.n, pt.k
    ell = pt.lengths[0] if pt.lengths else Fraction(1)
    signless = signless_comtet_first(tuple(Fraction(i) for i in range(n)), n)
    sign = Fraction((-1) ** n)
    triangle_poly = sign * sum(
        (signless[n, m] / Fraction((m + 1) ** k) for m in range(n + 1)),
        Fraction(0),
    )
    triangle_q = sign * sum(
        (
            signless[n, m] * q ** (n - m) / Fraction((m + 1) ** k)
            for m in range(n + 1)
        ),
        Fraction(0),
    )

    def negated_integral(roots: tuple[Rat, ...], upper: Rat) -> Rat:
        negated = poly_from_roots(tuple(-r for r in roots))
        return sign * negated.integral_to(upper)

    classical_roots = tuple(Fraction(i) for i in range(n))
    q_roots = tuple(Fraction(i) * q for i in range(n))
    arrows = [
        (
            "poly-vs-triangle",
            specialize("poly", "second", n, k),
            triangle_poly,
        ),
        (
            "classic-vs-integral",
            specialize("classic", "second", n, lengths=(ell,)),
            negated_integral(classical_roots, ell),
        ),
        (
            "q-poly-vs-homogeneity",
            specialize("q-poly", "second", n, k, q=q),
            triangle_q,
        ),
        (
            "q-one-collapse",
            specialize("q-poly", "second", n, k, q=1),
            specialize("poly", "second", n, k),
        ),
        (
            "extended-vs-closed",
            specialize("extended-q", "second", n, k, q=q, lengths=pt.lengths),
            mp_second_closed(FamilyPoint(n, k, q_roots, pt.lengths)),
        ),
        (
            "extended-unit-collapse",
            specialize(
                "extended-q", "second", n, k, q=q, lengths=(Fraction(1),) * k
            ),
            specialize("q-poly", "second", n, k, q=q),
        ),
        (
            "q-classic-vs-integral",
            specialize("q-classic", "second", n, q=q, lengths=(ell,)),
            negated_integral(q_roots, ell),
        ),
        (
            "q-classic-collapse",
            specialize("q-classic", "second", n, q=1, lengths=(ell,)),
            specialize("classic", "second", n, lengths=(ell,)),
        ),
    ]
    return _cases_outcome(arrows)


EVALUATORS: dict[str, Callable[[ParamPoint], _Outcome]] = {
    "T2.1": _eval_T21,
    "C2.1": _eval_C21,
    "T2.2": _eval_T22,
    "C2.2": _eval_C22,
    "T2.3": _eval_T23,
    "T2.4": _eval_T24,
    "T3.1": _eval_T31,
    "C3.1": _eval_C31,
    "T3.2": _eval_T32,
    "C3.2": _eval_C32,
    "T4.1": _eval_T41,
    "T4.2a": _eval_T42a,
    "T4.2b": _eval_T42b,
    "C4.1a": _eval_C41a,
    "C4.1b": _eval_C41b,
    "T4.3a": _eval_T43a,
    "T4.3b": _eval_T43b,
    "C4.2a": _eval_C42a,
    "C4.2b": _eval_C42b,
    "T5.1a": _eval_T51a,
    "T5.1b": _eval_T51b,
    "C5.1a": _eval_C51a,
    "C5.1b": _eval_C51b,
    "T5.2a": _eval_T52a,
    "T5.2b": _eval_T52b,
    "T5.2c": _eval_T52c,
    "T5.2d": _eval_T52d,
    "GF-Lif": _eval_GF_Lif,
    "GF-Li": _eval_GF_Li,
    "CASES-2": _eval_CASES2,
    "CASES-3": _eval_CASES3,
}


def verify(identity: str, point: ParamPoint) -> IdentityReport:
    """Evaluate one identity at one point; precondition violations become NA
    verdicts with a note, never exceptions."""
    if identity not in EVALUATORS:
        raise ValueError(f"unknown identity id {identity!r}")
    try:
        out = EVALUATORS[identity](point)
    except PreconditionError as exc:
        return IdentityReport(
            identity=identity,
            point=point,
            verbatim=NA,
            corrected=NA,
            lhs="",
            rhs="",
            note=f"precondition violated: {exc}",
        )
    return IdentityReport(
        identity=identity,
        point=point,
        verbatim=out.verbatim,
        corrected=out.corrected,
        lhs=out.lhs,
        rhs=out.rhs,
        note=out.note,
    )


# ---------------------------------------------------------------------------
# Grids and sweeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Sweep sizes: deterministic classical points plus `points` seeded random
    rational points per identity, numerators and denominators bounded."""

    n_max: int = 5
    k_max: int = 2
    points: int = 10
    series_order: int = 6
    bound: int = 20


_GF_IDS = ("GF-Lif", "GF-Li")
_COROLLARY_IDS = ("C2.1", "C2.2", "C3.1", "C3.2", "C4.1a", "C4.1b", "C4.2a", "C4.2b", "C5.1a", "C5.1b")


def _rand_rat(rng: random.Random, bound: int, nonzero: bool = False) -> Rat:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if value != 0 or not nonzero:
            return value


def _random_point(
    rng: random.Random, grid: GridSpec, identity: str
) -> ParamPoint:
    k = 1 if identity in _COROLLARY_IDS else rng.randint(1, grid.k_max)
    if identity == "T4.1":
        order = grid.series_order
        alpha: list[Rat] = []
        while len(alpha) < order + 1:
            candidate = _rand_rat(rng, grid.bound)
            if candidate not in alpha:
                alpha.append(candidate)
        lengths = tuple(_rand_rat(rng, grid.bound, nonzero=True) for _ in range(k))
        return ParamPoint(
            n=order,
            k=k,
            alpha=tuple(alpha),
            lengths=lengths,
            series_order=order,
        )
    n = rng.randint(0, grid.n_max)
    alpha_tuple = tuple(_rand_rat(rng, grid.bound) for _ in range(n))
    lengths = tuple(_rand_rat(rng, grid.bound, nonzero=True) for _ in range(k))
    return ParamPoint(
        n=n,
        k=k,
        alpha=alpha_tuple,
        lengths=lengths,
        z0=_rand_rat(rng, grid.bound),
        q=_rand_rat(rng, grid.bound),
        series_order=grid.series_order,
    )


def _points_for(identity: str, grid: GridSpec, seed: int) -> list[ParamPoint]:
    if identity in _GF_IDS:
        orders = sorted({min(2, grid.series_order), grid.series_order})
        return [
            ParamPoint(n=0, k=k, alpha=(), lengths=(Fraction(1),), series_order=o)
            for k in range(1, grid.k_max + 1)
            for o in orders
        ]
    points: list[ParamPoint] = []
    k_options = [1] if identity in _COROLLARY_IDS else sorted({1, min(2, grid.k_max)})
    if identity == "T4.1":
        order = grid.series_order
        for k in k_options:
            points.append(
                ParamPoint(
                    n=order,
                    k=k,
                    alpha=tuple(Fraction(i) for i in range(1, order + 2)),
                    lengths=(Fraction(1),) * k,
                    series_order=order,
                )
            )
    else:
        for n in range(0, min(grid.n_max, 4) + 1):
            for k in k_options:
                if identity == "T2.4":
                    # The reciprocal power sums need nonzero parameters.
                    alpha = tuple(Fraction(i) for i in range(1, n + 1))
                else:
                    alpha = tuple(Fraction(i) for i in range(n))
                points.append(
                    ParamPoint(
                        n=n,
                        k=k,
                        alpha=alpha,
                        lengths=(Fraction(1),) * k,
                        z0=Fraction(1),
                        q=Fraction(1),
                        series_order=grid.series_order,
                    )
                )
    rng = random.Random(f"{seed}:{identity}")
    for _ in range(grid.points):
        points.append(_random_point(rng, grid, identity))
    return points


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        raw = os.environ.get("POLYFAM_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            threads = 1
    if threads == 0:
        threads = os.cpu_count() or 1
    return max(threads, 1)


def sweep(
    ids: Optional[Iterable[str]] = None,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
    threads: Optional[int] = None,
) -> tuple[IdentityReport, ...]:
    """Verify the requested identities (all by default) over deterministic
    classical points plus seeded random rational points.

    The report tuple is ordered by (catalog order, point index) and is a pure
    function of (ids, grid, seed); the thread count never affects it.
    """
    if ids is None:
        chosen = list(IDENTITY_IDS)
    else:
        chosen = list(ids)
        unknown = [i for i in chosen if i not in EVALUATORS]
        if unknown:
            raise ValueError(f"unknown identity ids: {', '.join(unknown)}")
        chosen.sort(key=IDENTITY_IDS.index)
    jobs = [
        (identity, point)
        for identity in chosen
        for point in _points_for(identity, grid, seed)
    ]
    workers = _resolve_threads(threads)
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda job: verify(*job), jobs))
    else:
        reports = [verify(identity, point) for identity, point in jobs]
    return tuple(reports)


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
    for identity in IDENTITY_IDS:
        rows = [r for r in reports if r.identity == identity]
        failures = [r for r in rows if r.verbatim == FAIL]
        if not failures:
            continue
        minimal = min(failures, key=lambda r: _point_size(r.point))
        entries.append(
            {
                "identity": identity,
                "statement": STATEMENTS[identity],
                "corrected_reading": CORRECTED_READINGS.get(identity, ""),
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
