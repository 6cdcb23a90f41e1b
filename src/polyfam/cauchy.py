"""Cauchy-type number and polynomial families.

The central objects are k-fold box integrals of products of shifted factors:
the first kind integrates prod_i (x_1...x_k - a_i) over
[0,l_1] x ... x [0,l_k], the second kind integrates prod_i (-x_1...x_k - a_i).
Each family value is computed by several independent routes (direct
expansion, triangle closed forms, non-central and Lah expansions, a modified
Bell polynomial formula) that must agree exactly; the polynomial families
replace the parameter sequence by shifted copies of itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .algebra import (
    Polynomial,
    PreconditionError,
    Rat,
    RatLike,
    Record,
    TruncatedSeries,
    _egf,
    _prefix_products,
    as_rat,
    as_rat_tuple,
    box_moments,
    log1p_series,
)
from .stirling import (
    comtet_first,
    lah_signed,
    noncentral_second,
    signless_comtet_first,
    stirling_first,
)

__all__ = [
    "SPECIAL_FAMILIES",
    "FamilyPoint",
    "classic_first_with_lengths",
    "generalized_harmonic",
    "lif_gf_check",
    "lif_series",
    "modified_bell",
    "mp_first_bell",
    "mp_first_closed",
    "mp_first_def",
    "mp_first_noncentral",
    "mp_first_via_polycauchy",
    "mp_poly_first",
    "mp_poly_second",
    "mp_second_closed",
    "mp_second_def",
    "mp_second_lah",
    "specialize",
]

SPECIAL_FAMILIES = ("classic", "poly", "q-poly", "q-classic", "extended-q")


class FamilyPoint(Record):
    """Evaluation point for the multiparameter families.

    n: product length (number of shifted factors), n >= 0.
    k: number of integration variables, k >= 1.
    alpha: parameter sequence; at least n entries (extras are ignored).
    lengths: the k box edge lengths, all nonzero.
    """

    __slots__ = ("n", "k", "alpha", "lengths")

    def __init__(
        self, n: int, k: int, alpha: Iterable[RatLike], lengths: Iterable[RatLike]
    ) -> None:
        self._set(n, k, as_rat_tuple(alpha), as_rat_tuple(lengths))
        _check_point(n, k, len(self.alpha), self.lengths)


def _check_point(n: int, k: int, count: int, lengths: Sequence[Rat]) -> None:
    """The preconditions of a FamilyPoint with `count` parameters."""
    if n < 0:
        raise PreconditionError("family index n must be nonnegative")
    if k < 1:
        raise PreconditionError("need at least one integration variable")
    if count < n:
        raise PreconditionError(f"need at least {n} parameters, got {count}")
    if len(lengths) != k:
        raise PreconditionError(f"expected {k} box lengths, got {len(lengths)}")
    if any(l == 0 for l in lengths):
        raise PreconditionError("box lengths must be nonzero")


def _pair(row: Polynomial, moments: Polynomial) -> Rat:
    """The box integral of the polynomial `row` in T, given the moment
    polynomial sum_m mu_m t^m of the box: one integer dot product of the two
    coefficient lists (the shorter one ends it), reduced once."""
    return Fraction(sum(map(mul, row.num, moments.num)), row.den * moments.den)


def _poly_from_row(row: Polynomial, moments: Polynomial) -> Polynomial:
    """The polynomial in z of the box integral of sum_m row[m] (T - z)^m,
    through the shifted moments: its z^i coefficient is
    sum_{m>=i} (-1)^i C(m, i) row[m] mu_(m-i), an integer over
    row.den * moments.den."""
    r, mu = row.num, moments.num
    num = (
        (-1) ** i * sum(math.comb(m, i) * r[m] * mu[m - i] for m in range(i, len(r)))
        for i in range(len(r))
    )
    return Polynomial.over(num, row.den * moments.den)


def _box_integral(nums: Sequence[int], den: int, lengths: Sequence[Rat]) -> Rat:
    """The box integral of sum_m (nums[m] / den) T^m, T = x_1...x_k, one
    variable at a time: integrating over x_i in [0, u/v] multiplies the
    coefficient of T^m by u^(m+1) / (v^(m+1) (m+1)). Numerators and
    denominators are carried as integers and summed as one Fraction over
    den times their lcm. The definitions' own integration, apart from
    box_moments."""
    nums, dens = list(nums), [1] * len(nums)
    for length in lengths:
        u, v = length.numerator, length.denominator
        up, vp = u, v
        for m in range(len(nums)):
            nums[m] *= up
            dens[m] *= vp * (m + 1)
            up, vp = up * u, vp * v
    lcm = math.lcm(*dens)
    return Fraction(sum(c * (lcm // d) for c, d in zip(nums, dens)), den * lcm)


def _def_values(
    sign: int, alpha: Sequence[Rat], lengths: Sequence[Rat], rows: Iterable, z=0
) -> list[Rat]:
    """The definitions' kernel: for each j in rows (increasing, at most
    len(alpha)) the box integral of prod_{i<j} (sign T - a_i - sign z), sign
    1 for the first kind and -1 for the second. That is sign^j times prefix
    j of one in-place expansion over the roots sign a_i + z: with
    a_i = p_i / q_i and z = s / t, over the integer factors of the pairs
    (sign p_i t + s q_i, q_i t) (_prefix_products), whose T^m coefficient is
    c_m over prod_{i<j} q_i t. No table, box moment or integer pairing."""
    s, t, out = z.numerator, z.denominator, []
    roots = [(sign * a.numerator * t + s * a.denominator, a.denominator * t)
             for a in alpha]
    for cs, q in _prefix_products(roots, rows):
        value = _box_integral(cs, q, lengths)
        out.append(value if sign ** (len(cs) - 1) > 0 else -value)
    return out


def _first_def_values(p: FamilyPoint, rows: Iterable[int]) -> list[Rat]:
    """mp_first_def at each index j in rows (increasing, at most n), with the
    parameters and box of p."""
    return _def_values(1, p.alpha[: p.n], p.lengths, rows)


def mp_first_def(p: FamilyPoint) -> Rat:
    """First kind by definition: expand prod_i (T - a_i) with T = x_1...x_k
    and integrate it over the box one variable at a time."""
    return _first_def_values(p, (p.n,))[0]


def mp_first_closed(p: FamilyPoint) -> Rat:
    """First kind from the first-kind triangle row n."""
    table = comtet_first(p.alpha[: p.n], p.n)
    return _pair(table.int_row(p.n), box_moments(p.lengths, p.k, p.n))


def _classic_first_values(moments: Polynomial, n: int) -> Polynomial:
    """sum_m C_m t^m, m = 0..n, the values at the classical parameters for
    the box of `moments` (mu_0..mu_n; zero for a zero box length, hence the
    n), each row of one stirling_first(n) paired with them."""
    values = (sum(map(mul, row, moments.num)) for row in stirling_first(n).num)
    return Polynomial.over(values, moments.den)


def classic_first_with_lengths(
    m: int, k: int, lengths: Sequence[RatLike]
) -> Rat:
    """First-kind value at the classical parameters (0, 1, ..., m-1) with a
    general box: sum_j s(m, j) (l_1...l_k)^(j+1) / (j+1)^k. Read from
    _classic_first_values, the kernel of mp_first_via_polycauchy and
    mp_second_lah."""
    return _classic_first_values(box_moments(lengths, k, m), m).coefficient(m)


def mp_first_noncentral(p: FamilyPoint) -> Rat:
    """First kind through the non-central table and the classical first-kind
    triangle: sum_j sum_{m>=j} S(n, m; a) s(m, j) (l_1...l_k)^(j+1)/(j+1)^k."""
    nc = noncentral_second(p.alpha[: p.n], p.n)
    row = stirling_first(p.n).times(nc.int_row(p.n))
    return _pair(row, box_moments(p.lengths, p.k, p.n))


def mp_first_via_polycauchy(p: FamilyPoint) -> Rat:
    """First kind as a non-central combination of classical-parameter values
    carrying the same box lengths: sum_m S(n, m; a) C_m(lengths)."""
    nc = noncentral_second(p.alpha[: p.n], p.n)
    classic = _classic_first_values(box_moments(p.lengths, p.k, p.n), p.n)
    return _pair(nc.int_row(p.n), classic)


def _reciprocal_power_sums(head: Sequence[Rat], order: int) -> tuple[int, list[int]]:
    """L and the integers N_j = sum_i w_i^j for j = 1..order, where L is
    the lcm of the parameters' numerators and w_i = L / a_i (an integer, sign
    kept), so that sum_i a_i^(-j) = N_j / L^j."""
    if any(x == 0 for x in head):
        raise PreconditionError("reciprocal power sums need nonzero parameters")
    lcm = math.lcm(*(x.numerator for x in head))
    w = [x.denominator * (lcm // x.numerator) for x in head]
    powers, sums = w, []
    for _ in range(order):
        sums.append(sum(powers))
        powers = list(map(mul, powers, w))
    return lcm, sums


def generalized_harmonic(
    alpha: Iterable[RatLike], n: int, max_order: int
) -> tuple[Rat, ...]:
    """Power sums of reciprocals (H^(1), ..., H^(max_order)) with
    H^(j) = sum_{i<n} a_i^(-j) = N_j / L^j, reduced once (see
    _reciprocal_power_sums). Requires the first n parameters nonzero."""
    a = as_rat_tuple(alpha)
    if len(a) < n:
        raise PreconditionError(f"need at least {n} parameters, got {len(a)}")
    lcm, sums = _reciprocal_power_sums(a[:n], max_order)
    return tuple(Fraction(s, lcm**j) for j, s in enumerate(sums, 1))


def modified_bell(m: int, xs: Sequence[RatLike]) -> Rat:
    """The weighted Bell polynomial P_m(x_1, ..., x_m): the coefficient of
    t^m in exp(sum_{j>=1} x_j t^j / j)."""
    if m < 0:
        raise PreconditionError("index must be nonnegative")
    vals = as_rat_tuple(xs)
    if len(vals) < m:
        raise PreconditionError(f"need {m} arguments, got {len(vals)}")
    if m == 0:
        return Fraction(1)
    inner = TruncatedSeries(
        m, [Fraction(0)] + [vals[j - 1] / j for j in range(1, m + 1)]
    )
    return inner.exp().coefficient(m)


def _bell_numerators(sums: Sequence[int]) -> list[int]:
    """Q_0, ..., Q_n with Q_m = P_m(-H^(1), ..., -H^(m)) L^m, from the
    integers N_j = L^j H^(j) (j = 1..n), by Newton's identities
    m Q_m = -sum_{j=1}^m N_j Q_(m-j), the recurrence that defines the weighted
    Bell polynomials. Each division is exact: the Q_m are the integer
    coefficients of prod_i (1 - w_i s) = exp(sum_j -N_j s^j / j)."""
    q = [1]
    for m in range(1, len(sums) + 1):
        q.append(-sum(map(mul, sums[:m], reversed(q))) // m)
    return q


def mp_first_bell(p: FamilyPoint) -> Rat:
    """First kind via the explicit Bell-polynomial formula
    (-1)^n (prod a_i) sum_m P_m(-H^(1), ..., -H^(m)) (l_1...l_k)^(m+1)/(m+1)^k.
    With H^(j) = N_j / L^j, the integers Q_m = P_m L^m follow from the N_j
    by Newton's identities (_bell_numerators), and the row Q_m L^(n-m) over
    L^n is paired with the box moments. Requires nonzero parameters."""
    lcm, sums = _reciprocal_power_sums(p.alpha[: p.n], p.n)
    bell = _bell_numerators(sums)
    row = (c * lcm ** (p.n - m) for m, c in enumerate(bell))
    total = _pair(Polynomial.over(row, lcm**p.n), box_moments(p.lengths, p.k, p.n))
    return Fraction((-1) ** p.n) * math.prod(p.alpha[: p.n]) * total


def _second_def_values(p: FamilyPoint, rows: Iterable[int]) -> list[Rat]:
    """mp_second_def at each index j in rows (increasing, at most n): the
    kernel of prod_i (-T - a_i) = (-1)^j prod_i (T + a_i), which expands
    over the negated parameters."""
    return _def_values(-1, p.alpha[: p.n], p.lengths, rows)


def mp_second_def(p: FamilyPoint) -> Rat:
    """Second kind by definition: expand prod_i (-T - a_i), which equals
    (-1)^n prod_i (T + a_i), and integrate it over the box one variable at a
    time."""
    return _second_def_values(p, (p.n,))[0]


def mp_second_closed(p: FamilyPoint) -> Rat:
    """Second kind from the signless triangle (read as the expansion of
    prod_i (X + a_i), valid for every parameter sequence)."""
    table = signless_comtet_first(p.alpha[: p.n], p.n)
    moments = box_moments(p.lengths, p.k, p.n)
    return Fraction((-1) ** p.n) * _pair(table.int_row(p.n), moments)


def mp_second_lah(p: FamilyPoint) -> Rat:
    """Second kind through non-central and signed Lah expansions:
    sum_l sum_{m>=l} S(n, m; a) L(m, l) C_l(lengths)."""
    row = lah_signed(p.n).times(noncentral_second(p.alpha[: p.n], p.n).int_row(p.n))
    return _pair(row, _classic_first_values(box_moments(p.lengths, p.k, p.n), p.n))


def specialize(
    family: str,
    kind: str,
    n: int,
    k: int = 1,
    q: RatLike | None = None,
    lengths: Iterable[RatLike] | None = None,
) -> Rat:
    """Classical and q-parameter members of the families, as sugar over the
    multiparameter definitions: after the checks of FamilyPoint, the
    definitions' kernel reads each parameter i q over its own denominator.

    family: 'classic'    k = 1, parameters 0..n-1, one box length
            'poly'       parameters 0..n-1, unit box in k variables
            'q-poly'     parameters 0, q, ..., (n-1)q, unit box
            'q-classic'  k = 1, parameters 0, q, ..., (n-1)q, one box length
            'extended-q' parameters 0, q, ..., (n-1)q, general box
    kind:   'first' or 'second'
    """
    if family not in SPECIAL_FAMILIES:
        raise PreconditionError(f"unknown specialization family {family!r}")
    if kind not in ("first", "second"):
        raise PreconditionError(f"unknown family kind {kind!r}")
    if family in ("q-poly", "q-classic", "extended-q"):
        if q is None:
            raise PreconditionError(f"family {family!r} needs the q parameter")
        step = as_rat(q)
    else:
        step = 1
    if family in ("classic", "q-classic"):
        k = 1
        ls = as_rat_tuple(lengths) if lengths is not None else (Fraction(1),)
        if len(ls) != 1:
            raise PreconditionError(f"family {family!r} takes one box length")
    elif family in ("poly", "q-poly"):
        ls = (Fraction(1),) * k
    else:
        if lengths is None:
            raise PreconditionError("family 'extended-q' needs box lengths")
        ls = as_rat_tuple(lengths)
    _check_point(n, k, n, ls)
    sign = 1 if kind == "first" else -1
    return _def_values(sign, [i * step for i in range(n)], ls, (n,))[0]


def lif_series(k: int, order: int) -> TruncatedSeries:
    """Prefix of the factorial polylogarithm sum_m t^m / (m! (m+1)^k): the
    unit-box moments over m!."""
    return _egf(order, box_moments((1,) * k, k, order).coeffs)


def lif_gf_check(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of GF-Lif through the requested order: the factorial
    polylogarithm composed with log(1+t), and the exponential generating
    function of the classical first-kind values."""
    lhs = lif_series(k, order).compose(log1p_series(order))
    rhs = _egf(order, (specialize("poly", "first", n, k) for n in range(order + 1)))
    return lhs, rhs


def _poly_first_values(p: FamilyPoint, rows: Iterable[int]) -> list[Polynomial]:
    """mp_poly_first at each index j in rows (at most n): row j of one
    first-kind table of size n (which depends on a_0..a_(j-1) only) paired
    with the shifted moments of one box_moments(..., n)."""
    table = comtet_first(p.alpha[: p.n], p.n)
    moments = box_moments(p.lengths, p.k, p.n)
    return [_poly_from_row(table.int_row(j), moments) for j in rows]


def mp_poly_first(p: FamilyPoint) -> Polynomial:
    """First-kind polynomial in z: the box integral of
    prod_i (x_1...x_k - a_i - z), expanded as
    sum_i sum_{m>=i} (-1)^i C(m, i) s_a(n, m) (l...)^(m-i+1)/(m-i+1)^k z^i."""
    return _poly_first_values(p, (p.n,))[0]


def _poly_second_values(p: FamilyPoint, rows: Iterable[int]) -> list[Polynomial]:
    """mp_poly_second at each index j in rows (at most n), from one signless
    table and one box_moments(..., n) as in _poly_first_values."""
    table = signless_comtet_first(p.alpha[: p.n], p.n)
    moments = box_moments(p.lengths, p.k, p.n)
    return [(-1) ** j * _poly_from_row(table.int_row(j), moments) for j in rows]


def mp_poly_second(p: FamilyPoint) -> Polynomial:
    """Second-kind polynomial in z: the box integral of
    prod_i (-x_1...x_k - a_i + z), expanded through the signless triangle
    as (-1)^n times the first-kind expansion of its row n."""
    return _poly_second_values(p, (p.n,))[0]


def _shifted_def_values(
    sign: int, p: FamilyPoint, samples: Sequence[Rat]
) -> list[Rat]:
    """The first-kind (sign 1) or second-kind (sign -1) polynomial's
    definitional value at every sample z: the plain definition with every
    parameter shifted by sign z, one kernel call per sample."""
    alpha = p.alpha[: p.n]
    return [_def_values(sign, alpha, p.lengths, (p.n,), z)[0] for z in samples]
