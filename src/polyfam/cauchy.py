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
from .stirling import _rebase, _row, _rows

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
        # The one place that checks a point, and so holds k to the number of
        # box lengths.
        alpha, lengths = as_rat_tuple(alpha), as_rat_tuple(lengths)
        self._set(n, k, alpha, lengths)
        if n < 0:
            raise PreconditionError("family index n must be nonnegative")
        if k < 1:
            raise PreconditionError("need at least one integration variable")
        if len(alpha) < n:
            raise PreconditionError(f"need at least {n} parameters, got {len(alpha)}")
        if len(lengths) != k:
            raise PreconditionError(f"expected {k} box lengths, got {len(lengths)}")
        if not all(lengths):
            raise PreconditionError("box lengths must be nonzero")


def _pair(row: Polynomial, moments: Polynomial) -> Fraction:
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


def _box_integral(
    nums: Sequence[int], den: int, lengths: Sequence[Fraction]
) -> Fraction:
    """The box integral of sum_m (nums[m] / den) T^m, T = x_1...x_k, one
    variable at a time: integrating over x_i in [0, u/v] multiplies the
    coefficient of T^m by u^(m+1) / (v^(m+1) (m+1)). Numerators and
    denominators are carried as integers and summed as one Fraction over
    den times their lcm. The definitions' own integration, apart from
    box_moments."""
    nums, dens = list(nums), [1] * len(nums)
    for length in lengths:
        u, v = length.as_integer_ratio()
        up, vp = u, v
        for m in range(len(nums)):
            nums[m] *= up
            dens[m] *= vp * (m + 1)
            up, vp = up * u, vp * v
    lcm = math.lcm(*dens)
    return Fraction(sum(c * (lcm // d) for c, d in zip(nums, dens)), den * lcm)


def _def_values(sign: int, p: FamilyPoint, rows: Sequence[int], z=0) -> list[Fraction]:
    """The definitions' kernel of both kinds: for each j in rows (in their
    order, each in 0..n) the box integral of prod_{i<j} (sign T - a_i - sign z)
    over the box of p, sign 1 for mp_first_def and -1 for mp_second_def; at
    z != 0 that is the polynomial family's definitional value at z. It is
    sign^j times prefix j of one in-place expansion over the roots
    sign a_i + z: with a_i = p_i / q_i and z = s / t, over the integer
    factors of the pairs (sign p_i t + s q_i, q_i t) (_prefix_products),
    whose T^m coefficient is c_m over prod_{i<j} q_i t. No table, box
    moment or integer pairing."""
    (s, t), out = z.as_integer_ratio(), []
    ratios = map(Fraction.as_integer_ratio, p.alpha[: p.n])
    roots = [(sign * a * t + s * b, b * t) for a, b in ratios]
    for cs, q in _prefix_products(roots, rows):
        value = _box_integral(cs, q, p.lengths)
        out.append(value if sign ** (len(cs) - 1) > 0 else -value)
    return out


def mp_first_def(p: FamilyPoint) -> Fraction:
    """First kind by definition: expand prod_i (T - a_i) with T = x_1...x_k
    and integrate it over the box one variable at a time."""
    return _def_values(1, p, (p.n,))[0]


def _closed_values(pairing, sign: int, p: FamilyPoint, rows: Sequence[int]) -> list:
    """The closed forms' kernel of both kinds: at each j in rows (in their
    order, each in 0..n) sign^j times the pairing (_pair for the numbers,
    _poly_from_row for the polynomials) of row j, which reads a_0..a_(j-1)
    only, of the first-kind (sign 1) or signless (sign -1) triangle of size
    n, read on the way by one `_rows` pass, with one box_moments(..., n)."""
    nodes = p.alpha[: p.n] if sign > 0 else [-a for a in p.alpha[: p.n]]
    moments = box_moments(p.lengths, p.n)
    read = _rows(nodes, (0,) * p.n, p.n, rows)
    return [sign**j * pairing(row, moments) for j, row in zip(rows, read)]


def mp_first_closed(p: FamilyPoint) -> Fraction:
    """First kind from the first-kind triangle row n."""
    return _closed_values(_pair, 1, p, (p.n,))[0]


def _classic_first_values(moments: Polynomial, n: int) -> Polynomial:
    """sum_m C_m t^m, m = 0..n, the values at the classical parameters for
    the box of `moments` (mu_0..mu_n; zero for a zero box length, hence the
    n): C_m = sum_j s(m, j) mu_j, with no table built. With M_i the box
    integral of T^i (T)_m, (T)_(m+1) = (T - m) (T)_m gives the transposed
    recurrence M <- M[1:] - m M[:-1], run in place on M_0..M_(n-m), and C_m
    is M_0 at step m."""
    mu = list(moments.num) + [0] * (n + 1 - len(moments.num))
    values = []
    for m in range(n + 1):
        values.append(mu[0])
        for i in range(n - m):
            mu[i] = mu[i + 1] - m * mu[i]
    return Polynomial.over(values, moments.den)


def classic_first_with_lengths(m: int, lengths: Sequence[RatLike]) -> Fraction:
    """First-kind value at the classical parameters (0, 1, ..., m-1) with a
    general box: sum_j s(m, j) (l_1...l_k)^(j+1) / (j+1)^k. Read from
    _classic_first_values, the kernel of mp_first_via_polycauchy and
    mp_second_lah."""
    return _classic_first_values(box_moments(lengths, m), m).coefficient(m)


def mp_first_noncentral(p: FamilyPoint) -> Fraction:
    """First kind through the non-central table and the classical first-kind
    numbers: sum_j sum_{m>=j} S(n, m; a) s(m, j) (l_1...l_k)^(j+1)/(j+1)^k.
    _row reads the non-central row, in falling factorials, and _rebase moves
    it to monomials over the nodes 0, 1, ..., n-1."""
    row = _rebase(_row(p.alpha[: p.n], range(p.n), p.n), range(p.n), (0,) * p.n)
    return _pair(row, box_moments(p.lengths, p.n))


def mp_first_via_polycauchy(p: FamilyPoint) -> Fraction:
    """First kind as a non-central combination of classical-parameter values
    carrying the same box lengths: sum_m S(n, m; a) C_m(lengths), the C_m
    by _classic_first_values, the non-central row by _row."""
    classic = _classic_first_values(box_moments(p.lengths, p.n), p.n)
    return _pair(_row(p.alpha[: p.n], range(p.n), p.n), classic)


def _reciprocal_power_sums(
    head: Sequence[Fraction], order: int
) -> tuple[int, list[int]]:
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
) -> tuple[Fraction, ...]:
    """Power sums of reciprocals (H^(1), ..., H^(max_order)) with
    H^(j) = sum_{i<n} a_i^(-j) = N_j / L^j, reduced once (see
    _reciprocal_power_sums). Requires the first n parameters nonzero."""
    a = as_rat_tuple(alpha)
    if len(a) < n:
        raise PreconditionError(f"need at least {n} parameters, got {len(a)}")
    lcm, sums = _reciprocal_power_sums(a[:n], max_order)
    return tuple(Fraction(s, lcm**j) for j, s in enumerate(sums, 1))


def modified_bell(m: int, xs: Sequence[RatLike]) -> Fraction:
    """The weighted Bell polynomial P_m(x_1, ..., x_m): the coefficient of
    t^m in exp(sum_{j>=1} x_j t^j / j)."""
    if m < 0:
        raise PreconditionError("index must be nonnegative")
    vals = as_rat_tuple(xs)
    if len(vals) < m:
        raise PreconditionError(f"need {m} arguments, got {len(vals)}")
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


def mp_first_bell(p: FamilyPoint) -> Fraction:
    """First kind via the explicit Bell-polynomial formula
    (-1)^n (prod a_i) sum_m P_m(-H^(1), ..., -H^(m)) (l_1...l_k)^(m+1)/(m+1)^k.
    With H^(j) = N_j / L^j, the integers Q_m = P_m L^m follow from the N_j
    by Newton's identities (_bell_numerators), and the row Q_m L^(n-m) over
    L^n, times (-1)^n prod a_i as two integer products, is paired with the
    box moments. Requires nonzero parameters."""
    head = p.alpha[: p.n]
    lcm, sums = _reciprocal_power_sums(head, p.n)
    row, power = [], (-1) ** p.n * math.prod(a.numerator for a in head)
    for c in reversed(_bell_numerators(sums)):
        row.append(c * power)
        power *= lcm
    den = math.prod(a.denominator for a in head) * lcm**p.n
    return _pair(Polynomial.over(reversed(row), den), box_moments(p.lengths, p.n))


def mp_second_def(p: FamilyPoint) -> Fraction:
    """Second kind by definition: expand prod_i (-T - a_i), which equals
    (-1)^n prod_i (T + a_i), and integrate it over the box one variable at a
    time."""
    return _def_values(-1, p, (p.n,))[0]


def mp_second_closed(p: FamilyPoint) -> Fraction:
    """Second kind from the signless triangle (read as the expansion of
    prod_i (X + a_i), valid for every parameter sequence)."""
    return _closed_values(_pair, -1, p, (p.n,))[0]


def _lah_values(p: FamilyPoint, boxes: Sequence[Sequence[RatLike]]) -> list:
    """The Lah expansion's kernel: for each box in `boxes` (edge lengths, in
    their order) sum_l sum_{m>=l} S(n, m; a) L(m, l) C_l(box). L(m, l)
    expands (-X)_m = (-1)^m X(X+1)...(X+m-1) in falling factorials, so the
    non-central row (read by _row), signed by (-1)^m, moves once from the
    rising to the falling basis by _rebase over the nodes 0, -1, ..., -(n-1),
    and is paired with each box's classical-parameter values."""
    row = _row(p.alpha[: p.n], range(p.n), p.n)
    signed = (-c if m % 2 else c for m, c in enumerate(row.num))
    row = _rebase(Polynomial.over(signed, row.den), range(0, -p.n, -1), range(p.n))
    return [_pair(row, _classic_first_values(box_moments(b, p.n), p.n)) for b in boxes]


def mp_second_lah(p: FamilyPoint) -> Fraction:
    """Second kind through non-central and signed Lah expansions:
    sum_l sum_{m>=l} S(n, m; a) L(m, l) C_l(lengths), by _lah_values."""
    return _lah_values(p, (p.lengths,))[0]


def specialize(
    family: str,
    kind: str,
    n: int,
    k: int = 1,
    q: RatLike | None = None,
    lengths: Iterable[RatLike] | None = None,
) -> Fraction:
    """Classical and q-parameter members of the families, as sugar over the
    multiparameter definitions: mp_first_def or mp_second_def at the
    FamilyPoint with parameters i q (i < n) and the family's box.

    family: 'classic'    k = 1, parameters 0..n-1, one box length
            'poly'       parameters 0..n-1, unit box in k variables
            'q-poly'     parameters 0, q, ..., (n-1)q, unit box
            'q-classic'  k = 1, parameters 0, q, ..., (n-1)q, one box length
            'extended-q' parameters 0, q, ..., (n-1)q, general box
    kind:   'first' or 'second'

    An argument the family does not read is refused, not ignored: q for
    'classic' and 'poly', lengths for 'poly' and 'q-poly', and k != 1 for
    'classic' and 'q-classic'.
    """
    if family not in SPECIAL_FAMILIES:
        raise PreconditionError(f"unknown specialization family {family!r}")
    if kind not in ("first", "second"):
        raise PreconditionError(f"unknown family kind {kind!r}")
    reads_q = family in ("q-poly", "q-classic", "extended-q")
    if reads_q and q is None:
        raise PreconditionError(f"family {family!r} needs the q parameter")
    if q is not None and not reads_q:
        raise PreconditionError(f"family {family!r} takes no q parameter")
    if family in ("classic", "q-classic") and k != 1:
        raise PreconditionError(f"family {family!r} takes k = 1, got {k}")
    if family in ("poly", "q-poly"):
        if lengths is not None:
            raise PreconditionError(f"family {family!r} takes no box lengths")
        lengths = (1,) * k
    elif lengths is None:
        if family == "extended-q":
            raise PreconditionError("family 'extended-q' needs box lengths")
        lengths = (1,)
    step = 1 if q is None else as_rat(q)
    p = FamilyPoint(n, k, [i * step for i in range(n)], lengths)
    return mp_first_def(p) if kind == "first" else mp_second_def(p)


def lif_series(k: int, order: int) -> TruncatedSeries:
    """Prefix of the factorial polylogarithm sum_m t^m / (m! (m+1)^k): the
    unit-box moments over m!."""
    return _egf(order, box_moments((1,) * k, order).coeffs)


def lif_gf_check(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two sides of GF-Lif through the requested order: the factorial
    polylogarithm composed with log(1+t), and the exponential generating
    function of the classical first-kind values, read as GF-Li reads its own:
    0..order from one _def_values pass at 0, 1, ..., order-1 and the unit box."""
    lhs = lif_series(k, order).compose(log1p_series(order))
    classical = FamilyPoint(order, k, range(order), (1,) * k)
    return lhs, _egf(order, _def_values(1, classical, range(order + 1)))


def mp_poly_first(p: FamilyPoint) -> Polynomial:
    """First-kind polynomial in z: the box integral of
    prod_i (x_1...x_k - a_i - z), expanded as
    sum_i sum_{m>=i} (-1)^i C(m, i) s_a(n, m) (l...)^(m-i+1)/(m-i+1)^k z^i."""
    return _closed_values(_poly_from_row, 1, p, (p.n,))[0]


def mp_poly_second(p: FamilyPoint) -> Polynomial:
    """Second-kind polynomial in z: the box integral of
    prod_i (-x_1...x_k - a_i + z), expanded through the signless triangle
    as (-1)^n times the first-kind expansion of its row n."""
    return _closed_values(_poly_from_row, -1, p, (p.n,))[0]
