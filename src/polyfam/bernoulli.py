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
from collections.abc import Sequence
from fractions import Fraction

from .algebra import (
    PreconditionError,
    Polynomial,
    TruncatedSeries,
    _egf,
    _over_lcm,
    box_moments,
    exp_series,
)
from .cauchy import FamilyPoint, _pair, _poly_from_row
from .stirling import _rows

__all__ = [
    "CONVENTIONS",
    "classic_poly_bernoulli",
    "li_gf_check",
    "mp_bernoulli",
    "mp_bernoulli_gf_check",
    "mp_bernoulli_poly",
]

CONVENTIONS = ("corrected", "verbatim")


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


def classic_poly_bernoulli(n: int, k: int) -> Fraction:
    """Classical value (-1)^n sum_m S(n, m) (-1)^m m! / (m+1)^k: mp_bernoulli
    at the classical parameters (0, 1, ..., n-1) and the unit box, whose
    second-kind table is stirling_second(n)."""
    return mp_bernoulli(FamilyPoint(n, k, tuple(range(n)), (1,) * k))


def li_gf_check(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of GF-Li through the given order:
    sum_{m>=1} (1 - e^{-t})^{m-1} / m^k, and the exponential generating
    function of the classical values. The left side is one composition, as
    in GF-Lif: the unit-box moments sum_m u^m / (m+1)^k composed with
    u = 1 - e^{-t}. The right side reads the classical values 0..order from
    one _bernoulli_values pass at the parameters 0, 1, ..., order-1 and the
    unit box."""
    moments = TruncatedSeries._of(order, box_moments((1,) * k, order))
    lhs = moments.compose(1 - exp_series(order, rate=-1))
    classical = FamilyPoint(order, k, tuple(range(order)), (1,) * k)
    values = _bernoulli_values(_pair, classical, range(order + 1))
    return lhs, _egf(order, values)


def _bernoulli_values(
    pairing, p: FamilyPoint, rows: Sequence[int], convention: str = "corrected"
) -> list:
    """The Bernoulli type's kernel: at each j in rows (in their order, each in
    0..n) the pairing (_pair for mp_bernoulli, _poly_from_row for
    mp_bernoulli_poly) of the Bernoulli row of row j, which reads
    a_0..a_(j-1) only, of the second-kind triangle of size n, read on the
    way by one `_rows` pass, with one box_moments(..., n)."""
    if convention not in CONVENTIONS:
        raise PreconditionError(f"unknown summation convention {convention!r}")
    moments = box_moments(p.lengths, p.n)
    read = _rows((0,) * p.n, p.alpha[: p.n], p.n, rows)
    return [pairing(_bernoulli_row(row, convention), moments) for row in read]


def mp_bernoulli(p: FamilyPoint, convention: str = "corrected") -> Fraction:
    """Multiparameter value
    sum_m (-1)^(n-m) m! S_a(n, m) (l_1...l_k)^(m+1) / (m+1)^k.

    The 'verbatim' convention multiplies each summand by a second m!.
    """
    return _bernoulli_values(_pair, p, (p.n,), convention)[0]


def _distinct_head(alpha: tuple[Fraction, ...], count: int) -> tuple[Fraction, ...]:
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


def _exp_sum(head: Sequence[Fraction], weights: Sequence[Fraction]) -> TruncatedSeries:
    """sum_m w_m sum_{j<=m} e^{-a_j t} / prod_{i<=m, i!=j} (a_j - a_i), the
    weighted column generating functions (in -t) of the second-kind triangle,
    to order N = len(weights) - 1. Summed in the stated order, j outside and
    m >= j inside, into one coefficient c_j per e^{-a_j t}, over the
    integers: with a_i = A_i / D and w_m = W_m / E over common denominators,
    c_j = sum_{m>=j} W_m D^m prod_{m<i<=N} (A_j - A_i) / (E Q_j), Q_j =
    prod_{i!=j} (A_j - A_i), its numerator C_j run by Horner's scheme over
    the suffix products.

    sum_j c_j e^{-a_j t} is then summed as integer power sums: with Q the
    lcm of the Q_j, its t^r coefficient is sum_j C_j (Q / Q_j) (-A_j)^r over
    E Q D^r r!, held over E Q D^N N! and reduced once."""
    order = len(weights) - 1
    nodes, d = _over_lcm(head)
    ws, e = _over_lcm(weights)
    scaled = [w * d**m for m, w in enumerate(ws)]
    coeffs, dens = [], []
    for j, a in enumerate(nodes):
        acc, den = scaled[j], math.prod(a - nodes[i] for i in range(j))
        for m in range(j + 1, order + 1):
            factor = a - nodes[m]
            acc = acc * factor + scaled[m]
            den *= factor
        coeffs.append(acc)
        dens.append(den)
    lcm = math.lcm(*dens)
    powers = [c * (lcm // q) for c, q in zip(coeffs, dens)]
    rates = [-a for a in nodes]
    num = []
    for r in range(order + 1):
        num.append(sum(powers) * d ** (order - r) * math.perm(order, order - r))
        powers = [c * x for c, x in zip(powers, rates)]
    poly = Polynomial.over(num, e * lcm * d**order * math.factorial(order))
    return TruncatedSeries._of(order, poly)


def mp_bernoulli_gf_check(p: FamilyPoint) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of T4.1: sum_n B_n t^n/n! and the closed form
    sum_m (-1)^m m! (l...)^(m+1)/(m+1)^k sum_{j<=m} e^{-a_j t}/prod(a_j - a_i),
    truncated at order N = p.n. Needs N+1 pairwise distinct parameters.

    The closed form is summed once by _exp_sum, j outside and m = j..N
    inside; over the rationals that is the same finite sum as column by
    column."""
    head = _distinct_head(p.alpha, p.n + 1)
    lhs = _egf(p.n, _bernoulli_values(_pair, p, range(p.n + 1)))
    weights = [
        (-1) ** m * math.factorial(m) * mu
        for m, mu in enumerate(box_moments(p.lengths, p.n).coeffs)
    ]
    return lhs, _exp_sum(head, weights)


def mp_bernoulli_poly(p: FamilyPoint, convention: str = "corrected") -> Polynomial:
    """Polynomial family in z:
    (-1)^n sum_i sum_{m>=i} (-1)^m m! C(m,i) S_a(n,m)
    (l...)^(m-i+1)/(m-i+1)^k (-z)^i.

    At z = 0 this reduces to mp_bernoulli under the same convention; the
    'verbatim' convention mirrors the duplicated factorial of the number
    family so that the reduction holds in both conventions."""
    return _bernoulli_values(_poly_from_row, p, (p.n,), convention)[0]
