"""Bernoulli-type families: classical polylogarithm Bernoulli numbers and
their multiparameter generalization, with exact truncated generating-function
checks.

The multiparameter values are weighted sums of second-kind triangle rows. Two
summation conventions exist for them: the 'corrected' single-factorial
convention (the default, and the unique one that reduces to the classical
values at integer parameters) and a 'verbatim' convention with a duplicated
factorial. The verbatim one is computed only on request, as by `polyfam
number`/`poly --mode verbatim`; the identity sweep and its errata ledger do
not use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    IntVector,
    PreconditionError,
    Polynomial,
    Rat,
    RatLike,
    TruncatedSeries,
    as_rat,
    as_rat_tuple,
    box_moments,
    exp_series,
)
from .cauchy import FamilyPoint, SeriesCheck, _pair, _poly_from_row
from .stirling import comtet_second, stirling_second

__all__ = [
    "CONVENTIONS",
    "classic_poly_bernoulli",
    "li_gf_check",
    "mp_bernoulli",
    "mp_bernoulli_gf_check",
    "mp_bernoulli_poly",
    "mp_bernoulli_poly_gf_check",
]

CONVENTIONS = ("corrected", "verbatim")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise PreconditionError(f"unknown summation convention {convention!r}")


def _bernoulli_row(row: IntVector, convention: str = "corrected") -> IntVector:
    """The monomial row (-1)^(n-m) m! S_a(n, m) of the Bernoulli type at index
    n = len(row) - 1, from row n of the second-kind triangle; the 'verbatim'
    convention multiplies each entry by a second m!."""
    n, power = len(row) - 1, 2 if convention == "verbatim" else 1
    num = (
        (-1) ** (n - m) * math.factorial(m) ** power * r for m, r in enumerate(row.num)
    )
    return IntVector(tuple(num), row.den)


def classic_poly_bernoulli(n: int, k: int) -> Rat:
    """Classical value (-1)^n sum_m S(n, m) (-1)^m m! / (m+1)^k: the
    Bernoulli row of the classical triangle paired with the unit-box
    moments."""
    if n < 0:
        raise PreconditionError("index must be nonnegative")
    row = _bernoulli_row(stirling_second(n).int_row(n))
    return _pair(row, box_moments((1,) * k, k, n))


def li_gf_check(k: int, order: int) -> SeriesCheck:
    """Compare sum_{m>=1} (1 - e^{-t})^{m-1} / m^k with the exponential
    generating function of the classical values through the given order;
    the stated and corrected readings agree."""
    u = 1 - exp_series(order, rate=-1)
    lhs = TruncatedSeries.constant(0, order)
    for m in range(1, order + 2):
        lhs = lhs + u ** (m - 1) / Fraction(m**k)
    rhs = TruncatedSeries(
        order,
        [classic_poly_bernoulli(n, k) / math.factorial(n) for n in range(order + 1)],
    )
    return SeriesCheck(lhs=lhs, rhs=rhs, verbatim_rhs=rhs)


def mp_bernoulli(p: FamilyPoint, convention: str = "corrected") -> Rat:
    """Multiparameter value
    sum_m (-1)^(n-m) m! S_a(n, m) (l_1...l_k)^(m+1) / (m+1)^k.

    The 'verbatim' convention multiplies each summand by a second m!.
    """
    _check_convention(convention)
    table = comtet_second(p.alpha[: p.n], p.n)
    row = _bernoulli_row(table.int_row(p.n), convention)
    return _pair(row, box_moments(p.lengths, p.k, p.n))


def _distinct_head(alpha: tuple[Rat, ...], count: int) -> tuple[Rat, ...]:
    if len(alpha) < count:
        raise PreconditionError(
            f"need {count} parameters for the generating function, got {len(alpha)}"
        )
    head = alpha[:count]
    if len(set(head)) != len(head):
        raise PreconditionError(
            "generating-function closed form needs pairwise distinct parameters"
        )
    return head


def _second_kind_column_egf(
    alpha: Sequence[Rat], exps: Sequence[TruncatedSeries], m: int, order: int
) -> TruncatedSeries:
    """sum_{j<=m} e^{-a_j t} / prod_{i<=m, i!=j} (a_j - a_i): the exponential
    generating function (in -t) of column m of the second-kind triangle, with
    e^{-a_j t} read from exps."""
    acc = TruncatedSeries.constant(0, order)
    for j in range(m + 1):
        denom = math.prod(alpha[j] - alpha[i] for i in range(m + 1) if i != j)
        acc = acc + exps[j] / denom
    return acc


def mp_bernoulli_gf_check(
    alpha: Iterable[RatLike],
    lengths: Iterable[RatLike],
    k: int,
    order: int,
) -> SeriesCheck:
    """Compare sum_n B_n t^n/n! with the closed form
    sum_m (-1)^m m! (l...)^(m+1)/(m+1)^k sum_{j<=m} e^{-a_j t}/prod(a_j - a_i),
    truncated at `order`. Needs order+1 pairwise distinct parameters."""
    a = as_rat_tuple(alpha)
    ls = as_rat_tuple(lengths)
    head = _distinct_head(a, order + 1)
    lhs = TruncatedSeries(
        order,
        [
            mp_bernoulli(FamilyPoint(n, k, a, ls)) / math.factorial(n)
            for n in range(order + 1)
        ],
    )
    weights = [
        (-1) ** m * math.factorial(m) * mu
        for m, mu in enumerate(box_moments(ls, k, order))
    ]
    exps = [exp_series(order, rate=-a) for a in head]
    rhs = TruncatedSeries.constant(0, order)
    for m in range(order + 1):
        rhs = rhs + weights[m] * _second_kind_column_egf(head, exps, m, order)
    # Stated ranges: outer sum over j with the inner sum running m = j..order;
    # the same (j, m) pairs in the other order.
    verbatim = TruncatedSeries.constant(0, order)
    for j in range(order + 1):
        for m in range(j, order + 1):
            denom = math.prod(head[j] - head[i] for i in range(m + 1) if i != j)
            verbatim = verbatim + weights[m] * exps[j] / denom
    return SeriesCheck(
        lhs=lhs,
        rhs=rhs,
        verbatim_rhs=verbatim,
        note=(
            "stated outer bound is unbound; read as the truncation order, "
            "which reorders the reconstructed double sum"
        ),
    )


def mp_bernoulli_poly(p: FamilyPoint, convention: str = "corrected") -> Polynomial:
    """Polynomial family in z:
    (-1)^n sum_i sum_{m>=i} (-1)^m m! C(m,i) S_a(n,m)
    (l...)^(m-i+1)/(m-i+1)^k (-z)^i.

    At z = 0 this reduces to mp_bernoulli under the same convention; the
    'verbatim' convention mirrors the duplicated factorial of the number
    family so that the reduction holds in both conventions."""
    _check_convention(convention)
    table = comtet_second(p.alpha[: p.n], p.n)
    row = _bernoulli_row(table.int_row(p.n), convention)
    return _poly_from_row(row, box_moments(p.lengths, p.k, p.n))


def mp_bernoulli_poly_gf_check(
    alpha: Iterable[RatLike],
    lengths: Iterable[RatLike],
    k: int,
    z0: RatLike,
    order: int,
) -> SeriesCheck:
    """Compare sum_n B_n(z0) t^n/n! with the closed form
    sum_m (-1)^m m! w_m(z0) sum_{j<=m} e^{-a_j t}/prod(a_j - a_i)
    where w_m(z) = sum_i C(m,i) (l...)^(m-i+1) (-z)^i / (m-i+1)^k.
    The stated form omits the factorial; verbatim_rhs evaluates it as stated.
    """
    a = as_rat_tuple(alpha)
    ls = as_rat_tuple(lengths)
    z = as_rat(z0)
    head = _distinct_head(a, order + 1)
    lhs = TruncatedSeries(
        order,
        [
            mp_bernoulli_poly(FamilyPoint(n, k, a, ls))(z) / math.factorial(n)
            for n in range(order + 1)
        ],
    )
    moments = box_moments(ls, k, order)
    exps = [exp_series(order, rate=-a) for a in head]
    rhs = TruncatedSeries.constant(0, order)
    verbatim = TruncatedSeries.constant(0, order)
    for m in range(order + 1):
        column = _second_kind_column_egf(head, exps, m, order)
        # w_m(z0): the shifted moment, the polynomial of the unit row T^m.
        w = _poly_from_row(IntVector((0,) * m + (1,)), moments)(z)
        rhs = rhs + Fraction((-1) ** m) * math.factorial(m) * w * column
        verbatim = verbatim + Fraction((-1) ** m) * w * column
    return SeriesCheck(
        lhs=lhs,
        rhs=rhs,
        verbatim_rhs=verbatim,
        note=(
            "stated form omits the factorial weight m! and leaves the "
            "exponential-sum bounds implicit; verbatim reading keeps the "
            "stated weights with the reconstructed bounds"
        ),
    )
