"""Connection coefficients between Newton bases.

One exact recurrence produces every triangle in this package: generalized
(Comtet) Stirling numbers of both kinds for an arbitrary rational parameter
sequence, their signless variant, the classical Stirling and signed Lah
triangles, and the non-central tables. Named recurrences and closed forms
exist only as cross-checks.

A Newton basis is its node sequence: b_0 = 1 and b_{m+1} = (X - node_m) b_m.
Monomials have the nodes 0, 0, ..., falling factorials 0, 1, 2, ..., rising
factorials 0, -1, -2, ..., and the multiparameter products the parameters
themselves. With source nodes a and target nodes b, the connection table
obeys

    T(n+1, m) = T(n, m-1) + (b_m - a_n) T(n, m),

since (X - a_n) t_m = t_{m+1} + (b_m - a_n) t_m (Comtet, CRAS 1972;
Verde-Star, Stud. Appl. Math. 1988). The recurrence keeps no state between
calls.

It runs fraction-free, after Bareiss (Math. Comp. 1968): with source nodes
a_n = p_n / q_n, Q_n = q_0 ... q_(n-1), D the lcm of the target nodes'
denominators and B = D b, the integers r(n, m) = Q_n D^(n-m) T(n, m) obey
r(n+1, m) = q_n r(n, m-1) + (q_n B_m - p_n D) r(n, m): each source node
brings its own denominator only. One integer list holds the current row and
is updated in place, from the highest index down, so that r(n, m-1) is
still unchanged when r(n+1, m) reads it. That loop is `_rows`, which decodes
each row asked for on the way and holds no other: a table is its rows.

A row vector times a table builds no table: `_rebase` runs the same step on
the vector alone, in the same form, by Horner's scheme over the source nodes,
and `_row` reads row n as the unit row X^n moved by it. The two loops share
no step helper: the expansion identities sum table-built values by
`_rebase`-moved weights, and a shared helper would be a kernel common to
both sides.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul

from .algebra import Polynomial, PreconditionError, RatLike, Record, as_rat_tuple

__all__ = [
    "CoeffTable",
    "comtet_first",
    "comtet_second",
    "comtet_second_explicit",
    "connection_coeffs",
    "inversion_check",
    "lah_closed_form",
    "lah_signed",
    "noncentral_second",
    "signless_comtet_first",
    "stirling_first",
    "stirling_second",
]


class CoeffTable(Record):
    """Lower-triangular connection table; entry (n, m) is the coefficient of
    the target basis element of degree m in the expansion of the source
    element of degree n. Indexing outside the triangle yields zero. It holds
    its rows and nothing else: rows[n] is sum_m T(n, m) X^m as `_rows` reads
    it, a canonical Polynomial, so two tables are equal exactly when their
    entries are. `int_row` is the one row check."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Polynomial]) -> None:
        self._set(tuple(rows))

    @property
    def size(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[Fraction, ...]:
        return tuple(map(self.int_row(n).coefficient, range(n + 1)))

    def int_row(self, n: int) -> Polynomial:
        """Row n; its T(n, n) = +-1 keeps all n + 1 coefficients. Raises
        IndexError for n outside 0..size."""
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} is outside 0..{self.size}")
        return self.rows[n]

    def __getitem__(self, nm: tuple[int, int]) -> Fraction:
        n, m = nm
        if 0 <= m <= n < len(self.rows):
            return self.rows[n].coefficient(m)
        return Fraction(0)


def connection_coeffs(
    source: Iterable[RatLike], target: Iterable[RatLike], size: int
) -> CoeffTable:
    """Exact table T with source_n(X) = sum_{m<=n} T(n, m) target_m(X), rows
    0..size, for any two Newton bases given by their node sequences. Raises
    PreconditionError when size < 0 or either holds fewer than size nodes."""
    return CoeffTable(_rows(source, target, size, range(size + 1)))


def _rows(
    source: Iterable[RatLike], target: Iterable[RatLike], size: int, rows: Sequence[int]
) -> list[Polynomial]:
    """For each n in `rows` (in their order, each in 0..size; an IndexError
    otherwise) row n of connection_coeffs(source, target, size) as the
    canonical polynomial sum_m T(n, m) X^m: one integer list runs the module
    docstring's recurrence in place, up to the last row asked for, and each
    such row is decoded on the way as r(n, m) D^m over Q_n D^n."""
    if size < 0:
        raise PreconditionError("table size must be nonnegative")
    a, b = _nodes(source, size), _nodes(target, size)
    if not all(0 <= n <= size for n in rows):
        raise IndexError(f"a row of {list(rows)} is outside 0..{size}")
    d = math.lcm(*[q for _, q in b])
    b = [p * (d // q) for p, q in b]
    wanted, last, read, row, q_prod = set(rows), max(rows, default=-1), {}, [1], 1
    powers = list(accumulate(repeat(d, last), mul, initial=1))
    for n in range(last + 1):
        if n in wanted:
            read[n] = Polynomial.over(map(mul, row, powers), q_prod * powers[n])
        if n == last:
            break
        p, q = a[n]
        pd = p * d
        row.append(q * row[n])
        # q = 1 drops the unit factors: without it, ten benchmark pairs put
        # routes-large at 153.2 -> 139.4 ops/s (-9%, ROADMAP negative results).
        if q == 1:
            for m in range(n, 0, -1):
                row[m] = row[m - 1] + (b[m] - pd) * row[m]
        else:
            for m in range(n, 0, -1):
                row[m] = q * row[m - 1] + (q * b[m] - pd) * row[m]
        row[0] *= q * b[0] - pd
        q_prod *= q
    return [read[n] for n in rows]


def _nodes(sequence: Iterable[RatLike], size: int) -> list[tuple[int, int]]:
    """The first `size` nodes of a Newton basis as integer pairs (p, q).
    Raises PreconditionError when the sequence holds fewer."""
    xs = list(islice(sequence, size))
    if len(xs) < size:
        raise PreconditionError(
            f"parameter sequence of length {len(xs)} cannot "
            f"form a degree-{size} basis element"
        )
    try:  # an int or a Fraction gives its pair in one call
        return [x.as_integer_ratio() for x in xs]
    except AttributeError:
        return [Fraction(x).as_integer_ratio() for x in xs]


def _rebase(
    row: Polynomial, source: Iterable[RatLike], target: Iterable[RatLike]
) -> Polynomial:
    """The row vector `row` times connection_coeffs(source, target, N), N =
    deg(row), with no table built: Horner's scheme over the source nodes,
    v <- v (X - a_m) + row[m] for m = N-1, ..., 0, held in the target basis
    (Verde-Star 1988; Gander, Numer. Linear Algebra Appl. 2005) in the module
    docstring's form: u_l = Q D^(K-l) v_l at degree K, row[m] entering at
    degree 0 times the running Q D^K."""
    r, size = row.num, max(len(row.num) - 1, 0)
    a, b = _nodes(source, size), _nodes(target, size)
    d = math.lcm(*[q for _, q in b])
    b = [p * (d // q) for p, q in b]
    u, power = list(r[-1:]), 1
    for (p, q), c in zip(reversed(a), reversed(r[:-1])):
        pd, power = p * d, power * q * d
        u.append(q * u[-1])
        for l in range(len(u) - 2, 0, -1):
            u[l] = q * u[l - 1] + (q * b[l] - pd) * u[l]
        u[0] = (q * b[0] - pd) * u[0] + c * power
    return Polynomial.over((x * d**l for l, x in enumerate(u)), row.den * power)


def _row(source: Iterable[RatLike], target: Iterable[RatLike], n: int) -> Polynomial:
    """Row n of connection_coeffs(source, target, n), no table built: the
    unit row X^n moved by `_rebase`."""
    return _rebase(Polynomial.over((0,) * n + (1,)), source, target)


def comtet_first(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Generalized Stirling numbers of the first kind: the expansion of
    (X-a_0)...(X-a_{n-1}) in monomials."""
    return connection_coeffs(alpha, (0,) * size, size)


def comtet_second(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Generalized Stirling numbers of the second kind: the expansion of X^n
    in the products (X-a_0)...(X-a_{m-1})."""
    return connection_coeffs((0,) * size, alpha, size)


def signless_comtet_first(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Coefficients of X^m in prod_i (X + a_i).

    Equals (-1)^(n-m) times the first-kind table for every parameter
    sequence, and agrees with its entrywise absolute values exactly when all
    parameters are nonnegative.
    """
    return connection_coeffs((-a for a in as_rat_tuple(alpha)), (0,) * size, size)


def stirling_first(size: int) -> CoeffTable:
    """Classical signed Stirling numbers of the first kind."""
    return connection_coeffs(range(size), (0,) * size, size)


def stirling_second(size: int) -> CoeffTable:
    """Classical Stirling numbers of the second kind."""
    return connection_coeffs((0,) * size, range(size), size)


def lah_signed(size: int) -> CoeffTable:
    """Signed Lah numbers L(m, l) defined by the exact expansion of the
    negated falling factorial (-X)_m = (-1)^m X(X+1)...(X+m-1) in the
    falling-factorial basis: the rising-to-falling table, row m times
    (-1)^m."""
    rising = _rows(range(0, -size, -1), range(size), size, range(size + 1))
    return CoeffTable(-row if m % 2 else row for m, row in enumerate(rising))


def lah_closed_form(m: int, l: int) -> Fraction:
    """(-1)^m (m!/l!) C(m-1, l-1) for m, l >= 1; 1 at (0, 0); else 0."""
    if m == 0 and l == 0:
        return Fraction(1)
    if l < 1 or l > m:
        return Fraction(0)
    return (
        Fraction((-1) ** m)
        * Fraction(math.factorial(m), math.factorial(l))
        * math.comb(m - 1, l - 1)
    )


def noncentral_second(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Non-central Stirling numbers: the expansion of
    (X-a_0)...(X-a_{n-1}) in the falling-factorial basis."""
    return connection_coeffs(alpha, range(size), size)


def comtet_second_explicit(alpha: Iterable[RatLike], n: int, m: int) -> Fraction:
    """Closed form sum_{j<=m} a_j^n / prod_{i<=m, i!=j} (a_j - a_i).

    Requires a_0..a_m pairwise distinct; agrees with the second-kind table.
    """
    a = as_rat_tuple(alpha)
    if n < 0 or m < 0:
        raise PreconditionError("indices must be nonnegative")
    if len(a) < m + 1:
        raise PreconditionError(
            f"need {m + 1} parameters for the explicit form, got {len(a)}"
        )
    a = a[: m + 1]
    if len(set(a)) != len(a):
        raise PreconditionError(
            "explicit second-kind form needs pairwise distinct parameters"
        )
    total = Fraction(0)
    for j in range(m + 1):
        denom = math.prod(a[j] - a[i] for i in range(m + 1) if i != j)
        total += a[j] ** n / denom
    return total


def inversion_check(alpha: Iterable[RatLike], size: int) -> bool:
    """Whether the two generalized triangles of `alpha` are two-sided
    matrix inverses through row `size`: row n of either, times the other
    (`_rebase` between the other's bases), is X^n."""
    a, zeros = as_rat_tuple(alpha), (0,) * size
    first, second = comtet_first(a, size), comtet_second(a, size)
    return all(
        _rebase(row, *nodes) == Polynomial.over((0,) * n + (1,))
        for x, nodes in ((first, (zeros, a)), (second, (a, zeros)))
        for n, row in enumerate(x.rows)
    )
