"""Inversion transforms between the Cauchy-type and Bernoulli-type families.

The paper's expansion identities give one family's value (or polynomial) at
index n as a double sum over another family's values at 0..n, weighted by
two triangles of the point's parameters. The four public transforms are the
corrected sums; the sweep layer (`harness`) checks the stated and the
corrected readings with the same kernel, `_expand`.

This module belongs to the family layer: it imports only `algebra` and
`stirling`, so a transform read from the package leaves the sweep layer
unloaded.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .algebra import Polynomial, PreconditionError, RatLike, as_rat_tuple
from .stirling import _rebase, _row

__all__ = [
    "bernoulli_from_first",
    "bernoulli_from_second",
    "first_from_bernoulli",
    "second_from_bernoulli",
]

# ---------------------------------------------------------------------------
# Every expansion, stated or corrected, is the double sum
# sum_{j<=m<=n} w(j, m) values[j] over one family's values at indices 0..n,
# for numbers and polynomials alike. Its weight is a constant
# (kind, e_n, e_m, e_j, p, absolute):
#     w(j, m) = (-1)^(e_n n + e_m m + e_j j) m!^p L(n, m) T(m, j),
# where T is the point's first-kind (kind 1) or second-kind (kind 2)
# triangle and L is T, or |T| entrywise when `absolute`. The signless
# triangle needs no table of its own: (-1)^(n+m-j) sc(n, m) = (-1)^j s(n, m).
# The paper's stated weights, where they differ, live in the sweep layer.
# ---------------------------------------------------------------------------

_TO_FIRST = (1, 0, 1, 1, -1, False)  # (-1)^(m-j) s(n,m) s(m,j) / m!
_SIGNLESS_FIRST = (1, 0, 0, 1, -1, False)  # (-1)^(n+m-j) sc(n,m) s(m,j) / m!
_FROM_FIRST = (2, 1, 1, 0, 1, False)  # (-1)^(n-m) m! S(n,m) S(m,j)
_FROM_SECOND = (2, 1, 0, 0, 1, False)  # (-1)^n m! S(n,m) S(m,j)


def _expand(values: Sequence, alpha: Sequence[Fraction], *weights: tuple) -> list:
    """sum_{j<=m<=n} w(j, m) values[j], n = len(values) - 1, for each weight,
    all naming one triangle T; fraction-free, no table built. Row n of T is
    read by `_row`, the unit row X^n moved once from T's source basis to its
    target (nodes alpha to 0, ... for kind 1; 0, ... to alpha for kind 2).
    As row n of L, signed by (-1)^(e_m m) and scaled by f_m (m! for p = 1,
    n!/m! for p = -1), it is moved once more (times T); coefficient j, signed
    by (-1)^(e_n n + e_j j) and over a further n! for p = -1, weighs
    values[j]. No row is read through `stirling._rows`, which the table
    routes on the lhs read: a fault there would cancel."""
    (kind,) = {weight[0] for weight in weights}
    n = len(values) - 1
    nodes = (alpha, (0,) * n) if kind == 1 else ((0,) * n, alpha)
    left = _row(*nodes, n)
    fact = [math.factorial(m) for m in range(n + 1)]
    sums = []
    for _, e_n, e_m, e_j, power, absolute in weights:
        scale = fact if power == 1 else [fact[n] // f for f in fact]
        signed = enumerate(map(abs, left.num) if absolute else left.num)
        row = Polynomial.over(
            ((-1) ** (e_m * m) * scale[m] * c for m, c in signed), left.den
        )
        product = _rebase(row, *nodes)
        w = [(-1) ** (e_n * n + e_j * j) * c for j, c in enumerate(product.num)]
        den = (1 if power == 1 else fact[n]) * product.den
        sums.append(_combine(w, den, values))
    return sums


def _combine(weights: Sequence[int], den: int, values: Sequence):
    """sum_j weights[j] values[j] / den, for Fraction and Polynomial values
    alike: every value is brought to the lcm q of their denominators, the
    integers are summed coefficient by coefficient, and one Fraction or one
    Polynomial over den q is built at the end."""
    poly = isinstance(values[0], Polynomial)
    parts = [
        (v.num, v.den) if poly else ((v.numerator,), v.denominator) for v in values
    ]
    q = math.lcm(*(vd for _, vd in parts))
    out = [0] * max(len(vn) for vn, _ in parts)
    for w, (vn, vd) in zip(weights, parts):
        s = w * (q // vd)
        for i, c in enumerate(vn):
            out[i] += s * c
    return Polynomial.over(out, den * q) if poly else Fraction(out[0], den * q)


def _transform(weight: tuple, n: int, alpha: Sequence[RatLike], values: Sequence):
    if not 0 <= n < len(values):
        raise PreconditionError(f"no value at transform index {n}")
    return _expand(values[: n + 1], as_rat_tuple(alpha), weight)[0]


def second_from_bernoulli(n: int, alpha: Sequence[RatLike], values: Sequence):
    """Second-kind value (or polynomial) at index n from Bernoulli-type
    values 0..n: sum_{j,m} (-1)^(n+m-j) sc(n,m) s(m,j)/m! values[j]."""
    return _transform(_SIGNLESS_FIRST, n, alpha, values)


def bernoulli_from_second(n: int, alpha: Sequence[RatLike], values: Sequence):
    """Bernoulli-type value (or polynomial) at index n from second-kind
    values 0..n: sum_{j,m} (-1)^n m! S(n,m) S(m,j) values[j]."""
    return _transform(_FROM_SECOND, n, alpha, values)


def first_from_bernoulli(n: int, alpha: Sequence[RatLike], values: Sequence):
    """First-kind value (or polynomial) at index n from Bernoulli-type values
    0..n: sum_{j,m} (-1)^(m-j) s(n,m) s(m,j)/m! values[j]."""
    return _transform(_TO_FIRST, n, alpha, values)


def bernoulli_from_first(n: int, alpha: Sequence[RatLike], values: Sequence):
    """Bernoulli-type value (or polynomial) at index n from first-kind values
    0..n: sum_{j,m} (-1)^(n-m) m! S(n,m) S(m,j) values[j]."""
    return _transform(_FROM_FIRST, n, alpha, values)
