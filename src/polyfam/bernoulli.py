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
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import (
    PreconditionError,
    Polynomial,
    Rat,
    RatLike,
    TruncatedSeries,
    _egf,
    _over_lcm,
    as_rat_tuple,
    box_moments,
    exp_series,
)
from .cauchy import FamilyPoint, _pair, _poly_from_row
from .stirling import comtet_second

__all__ = [
    "CONVENTIONS",
    "classic_poly_bernoulli",
    "li_gf_check",
    "mp_bernoulli",
    "mp_bernoulli_gf_check",
    "mp_bernoulli_poly",
]

CONVENTIONS = ("corrected", "verbatim")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise PreconditionError(f"unknown summation convention {convention!r}")


def _bernoulli_row(row: Polynomial, convention: str = "corrected") -> Polynomial:
    """The monomial row (-1)^(n-m) m! S_a(n, m) of the Bernoulli type at index
    n = deg(row), from row n of the second-kind triangle (whose S_a(n, n) = 1
    keeps the degree n); the 'verbatim' convention multiplies each entry by a
    second m!."""
    n, power = len(row.num) - 1, 2 if convention == "verbatim" else 1
    num = (
        (-1) ** (n - m) * math.factorial(m) ** power * r for m, r in enumerate(row.num)
    )
    return Polynomial.over(num, row.den)


def classic_poly_bernoulli(n: int, k: int) -> Rat:
    """Classical value (-1)^n sum_m S(n, m) (-1)^m m! / (m+1)^k: mp_bernoulli
    at the classical parameters (0, 1, ..., n-1) and the unit box, whose
    second-kind table is stirling_second(n)."""
    if n < 0:
        raise PreconditionError("index must be nonnegative")
    return mp_bernoulli(FamilyPoint(n, k, tuple(range(n)), (1,) * k))


def li_gf_check(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of GF-Li through the given order:
    sum_{m>=1} (1 - e^{-t})^{m-1} / m^k, and the exponential generating
    function of the classical values. The left side is one composition, as
    in GF-Lif: the unit-box moments sum_m u^m / (m+1)^k composed with
    u = 1 - e^{-t}. The right side reads the classical values 0..order from
    one _bernoulli_values pass at the parameters 0, 1, ..., order-1 and the
    unit box."""
    moments = TruncatedSeries._of(order, box_moments((1,) * k, k, order))
    lhs = moments.compose(1 - exp_series(order, rate=-1))
    classical = FamilyPoint(order, k, tuple(range(order)), (1,) * k)
    values = _bernoulli_values(classical, range(order + 1))
    return lhs, _egf(order, values)


def _bernoulli_values(
    p: FamilyPoint, rows: Iterable[int], convention: str = "corrected"
) -> list[Rat]:
    """mp_bernoulli at each index j in rows (at most n): the Bernoulli row of
    row j of one second-kind table of size n (which depends on a_0..a_(j-1)
    only), paired with the first j+1 of one box_moments(..., n)."""
    _check_convention(convention)
    table = comtet_second(p.alpha[: p.n], p.n)
    moments = box_moments(p.lengths, p.k, p.n)
    return [_pair(_bernoulli_row(table.int_row(j), convention), moments) for j in rows]


def mp_bernoulli(p: FamilyPoint, convention: str = "corrected") -> Rat:
    """Multiparameter value
    sum_m (-1)^(n-m) m! S_a(n, m) (l_1...l_k)^(m+1) / (m+1)^k.

    The 'verbatim' convention multiplies each summand by a second m!.
    """
    return _bernoulli_values(p, (p.n,), convention)[0]


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


def _exp_sum(head: Sequence[Rat], weights: Sequence[Rat]) -> TruncatedSeries:
    """sum_m w_m sum_{j<=m} e^{-a_j t} / prod_{i<=m, i!=j} (a_j - a_i), the
    weighted column generating functions (in -t) of the second-kind triangle,
    to order N = len(weights) - 1. Summed in the stated order, j outside and
    m >= j inside, into one coefficient c_j per e^{-a_j t}.

    sum_j c_j e^{-a_j t} is then summed as integer power sums: with
    c_j = C_j / E and a_j = A_j / D over common denominators, its t^r
    coefficient is sum_j C_j (-A_j)^r over E D^r r!, held over E D^N N!."""
    order = len(weights) - 1
    coeffs = []
    for j, a in enumerate(head):
        denom = math.prod((a - head[i] for i in range(j)), start=Fraction(1))
        coeff = weights[j] / denom
        for m in range(j + 1, order + 1):
            denom *= a - head[m]
            coeff += weights[m] / denom
        coeffs.append(coeff)
    powers, e = _over_lcm(coeffs)
    rates, d = _over_lcm([-a for a in head])
    num = []
    for r in range(order + 1):
        num.append(sum(powers) * d ** (order - r) * math.perm(order, order - r))
        powers = [c * x for c, x in zip(powers, rates)]
    poly = Polynomial.over(num, e * d**order * math.factorial(order))
    return TruncatedSeries._of(order, poly)


def mp_bernoulli_gf_check(
    alpha: Iterable[RatLike],
    lengths: Iterable[RatLike],
    k: int,
    order: int,
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of T4.1: sum_n B_n t^n/n! and the closed form
    sum_m (-1)^m m! (l...)^(m+1)/(m+1)^k sum_{j<=m} e^{-a_j t}/prod(a_j - a_i),
    truncated at `order`. Needs order+1 pairwise distinct parameters.

    The closed form is summed once by _exp_sum, j outside and m = j..order
    inside; over the rationals that is the same finite sum as column by
    column."""
    a = as_rat_tuple(alpha)
    ls = as_rat_tuple(lengths)
    head = _distinct_head(a, order + 1)
    values = _bernoulli_values(FamilyPoint(order, k, a, ls), range(order + 1))
    lhs = _egf(order, values)
    weights = [
        (-1) ** m * math.factorial(m) * mu
        for m, mu in enumerate(box_moments(ls, k, order).coeffs)
    ]
    return lhs, _exp_sum(head, weights)


def _bernoulli_poly_values(
    p: FamilyPoint, rows: Iterable[int], convention: str = "corrected"
) -> list[Polynomial]:
    """mp_bernoulli_poly at each index j in rows (at most n), from one
    second-kind table and one box_moments(..., n) as in _bernoulli_values."""
    _check_convention(convention)
    table = comtet_second(p.alpha[: p.n], p.n)
    moments = box_moments(p.lengths, p.k, p.n)
    return [
        _poly_from_row(_bernoulli_row(table.int_row(j), convention), moments)
        for j in rows
    ]


def mp_bernoulli_poly(p: FamilyPoint, convention: str = "corrected") -> Polynomial:
    """Polynomial family in z:
    (-1)^n sum_i sum_{m>=i} (-1)^m m! C(m,i) S_a(n,m)
    (l...)^(m-i+1)/(m-i+1)^k (-z)^i.

    At z = 0 this reduces to mp_bernoulli under the same convention; the
    'verbatim' convention mirrors the duplicated factorial of the number
    family so that the reduction holds in both conventions."""
    return _bernoulli_poly_values(p, (p.n,), convention)[0]
