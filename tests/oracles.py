"""Independent oracles that only the tests call.

They read the package's private kernels but sit outside its public
surface: no route, identity or command reaches them. `ORACLE_SHA256` in
`test_exactness.py` pins their output.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from polyfam.algebra import (
    Polynomial,
    RatLike,
    Record,
    _egf,
    as_rat,
    as_rat_tuple,
    box_moments,
)
from polyfam.bernoulli import _bernoulli_values, _distinct_head, _exp_sum
from polyfam.cauchy import FamilyPoint, _def_values, _poly_from_row
from polyfam.stirling import CoeffTable, stirling_first


class SeriesCheck(Record):
    """A generating-function check with two readings: lhs is the family
    side, rhs the corrected closed form and verbatim_rhs the closed form as
    stated. The library's record of this name is gone: its checks have one
    reading each and return the pair (lhs, rhs). This test-only record
    keeps the name, so its repr (which `ORACLE_SHA256` hashes) reads as it
    did when the library had one."""

    __slots__ = ("lhs", "rhs", "verbatim_rhs", "note")

    def __init__(self, lhs, rhs, verbatim_rhs, note=""):
        self._set(lhs, rhs, verbatim_rhs, note)


def _times_by_hand(table: CoeffTable, row: Polynomial) -> Polynomial:
    """sum_j (sum_m row[m] table[m, j]) X^j, summed over Fractions. Row m of
    the table is looked up once (`int_row`), not once per entry."""
    rows = [table.int_row(m) for m in range(len(row.num))]
    return Polynomial(
        sum(c * r.coefficient(j) for c, r in zip(row.coeffs, rows))
        for j in range(len(row.num))
    )


def table_product(a: CoeffTable, b: CoeffTable) -> CoeffTable:
    """The triangular product a b: its row n is row n of a times b
    (`_times_by_hand`)."""
    return CoeffTable(_times_by_hand(b, row) for row in a.rows)


def classic_first_values_by_rows(moments: Polynomial, n: int) -> Polynomial:
    """sum_m C_m t^m, m = 0..n, as `cauchy._classic_first_values` reads it
    from the box moments mu_0..mu_n: each row of one stirling_first(n)
    paired with them, C_m = sum_j s(m, j) mu_j."""
    rows = stirling_first(n).rows
    values = (sum(map(mul, row.num, moments.num)) for row in rows)
    return Polynomial.over(values, moments.den)


def mp_poly_first_oracle(p: FamilyPoint, z0: RatLike) -> Fraction:
    """Definitional value of the first-kind polynomial at z = z0: every
    parameter is shifted by z0 and the plain definition is integrated."""
    return _def_values(1, p, (p.n,), as_rat(z0))[0]


def mp_poly_second_oracle(p: FamilyPoint, z0: RatLike) -> Fraction:
    """Definitional value of the second-kind polynomial at z = z0 (parameters
    shifted by -z0 in the negated-variable expansion)."""
    return _def_values(-1, p, (p.n,), as_rat(z0))[0]


def mp_bernoulli_poly_gf_check(
    alpha: Iterable[RatLike],
    lengths: Iterable[RatLike],
    k: int,
    z0: RatLike,
    order: int,
) -> SeriesCheck:
    """Compare sum_n B_n(z0) t^n/n! with the closed form
    sum_m (-1)^m m! w_m(z0) sum_{j<=m} e^{-a_j t}/prod(a_j - a_i)
    where w_m(z) = sum_i C(m,i) (l...)^(m-i+1) (-z)^i / (m-i+1)^k, read
    from the box moments. The stated form omits the factorial; verbatim_rhs
    evaluates it as stated. Both are summed in the stated order of the
    number check, one weight list each.
    """
    a = as_rat_tuple(alpha)
    ls = as_rat_tuple(lengths)
    z = as_rat(z0)
    head = _distinct_head(a, order + 1)
    point = FamilyPoint(order, k, a, ls)
    values = _bernoulli_values(_poly_from_row, point, range(order + 1))
    lhs = _egf(order, (b(z) for b in values))
    mu = box_moments(ls, order).coeffs
    # (-1)^m w_m(z0), with w_m(z0) = sum_i C(m,i) (-z0)^i mu_(m-i).
    stated = [
        (-1) ** m * sum(math.comb(m, i) * (-z) ** i * mu[m - i] for i in range(m + 1))
        for m in range(order + 1)
    ]
    corrected = [math.factorial(m) * w for m, w in enumerate(stated)]
    rhs = _exp_sum(head, corrected)
    verbatim = _exp_sum(head, stated)
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
