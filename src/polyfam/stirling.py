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
still unchanged when r(n+1, m) reads it; each row is kept as one tuple.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .algebra import Polynomial, PreconditionError, Rat, RatLike, Record, as_rat_tuple

__all__ = [
    "CoeffTable",
    "InversionCheck",
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
    "table_product",
]


class CoeffTable(Record):
    """Lower-triangular connection table; entry (n, m) is the coefficient of
    the target basis element of degree m in the expansion of the source
    element of degree n. Indexing outside the triangle yields zero.

    Held fraction-free: entry (n, m) is num[n][m] / (q[n] den^(n-m)) with
    integer numerators, one denominator den >= 1 and one row denominator
    q[n] >= 1 per row (all 1 when omitted), and nothing else. Row n is read
    as a polynomial by `int_row`, the path the routes pair; `row`,
    equality and hash read it too, and indexing builds one Fraction.
    """

    __slots__ = ("num", "den", "q")

    def __init__(self, num: tuple, den: int = 1, q: tuple = ()) -> None:
        self._set(num, den, q or (1,) * len(num))

    @property
    def size(self) -> int:
        return len(self.num) - 1

    def row(self, n: int) -> tuple[Rat, ...]:
        return tuple(map(self.int_row(n).coefficient, range(len(self.num[n]))))

    def int_row(self, n: int) -> Polynomial:
        """Row n as the polynomial sum_m T(n, m) X^m in canonical form: the
        integers num[n][m] den^m over q[n] den^n, reduced. A connection
        table's T(n, n) is 1 (a signed one's is +-1), so the polynomial keeps
        all n + 1 coefficients. A negative n counts from the last row.

        den^m is kept as a running power, one product per entry."""
        d, num, power = self.den, [], 1
        for r in self.num[n]:
            num.append(r * power)
            power *= d
        return Polynomial.over(num, self.q[n] * power // d)

    def __getitem__(self, nm: tuple[int, int]) -> Rat:
        n, m = nm
        if 0 <= m <= n < len(self.num):
            return Fraction(self.num[n][m], self.q[n] * self.den ** (n - m))
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CoeffTable):
            return self.size == other.size and all(
                self.int_row(n) == other.int_row(n) for n in range(len(self.num))
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(map(self.int_row, range(len(self.num)))))

    def entrywise_abs(self) -> "CoeffTable":
        return CoeffTable(tuple(tuple(map(abs, r)) for r in self.num), self.den, self.q)

    def is_identity(self) -> bool:
        rows = enumerate(zip(self.num, self.q))
        return all(tuple(row) == (0,) * n + (q,) for n, (row, q) in rows)


def table_product(a: CoeffTable, b: CoeffTable) -> CoeffTable:
    """Triangular matrix product (a b)(n, j) = sum_m a(n, m) b(m, j), over
    the lcm d of the two denominators and, in row n, a.q[n] times the lcm l
    of b's row denominators."""
    if a.size != b.size:
        raise PreconditionError("table sizes must match for a product")
    d, l = math.lcm(a.den, b.den), math.lcm(*b.q)
    x, y = (
        [[r * s * (d // t.den) ** (n - m) for m, r in enumerate(row)]
         for n, (row, s) in enumerate(zip(t.num, scales))]
        for t, scales in ((a, (1,) * len(a.q)), (b, [l // q for q in b.q]))
    )
    return CoeffTable(
        tuple(
            tuple(sum(x[n][m] * y[m][j] for m in range(j, n + 1)) for j in range(n + 1))
            for n in range(a.size + 1)
        ),
        d,
        tuple(q * l for q in a.q),
    )


def connection_coeffs(
    source: Iterable[RatLike], target: Iterable[RatLike], size: int
) -> CoeffTable:
    """Exact table T with source_n(X) = sum_{m<=n} T(n, m) target_m(X).

    Works for any pair of Newton bases, each given by its node sequence; rows
    0..size, built over the integers by the node recurrence of the module
    docstring. Raises PreconditionError when either sequence holds fewer than
    `size` nodes.
    """
    if size < 0:
        raise PreconditionError("table size must be nonnegative")
    # Ints and Fractions carry their numerator and denominator already.
    nodes = []
    for sequence in (source, target):
        xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in sequence]
        if len(xs) < size:
            raise PreconditionError(
                f"parameter sequence of length {len(xs)} cannot "
                f"form a degree-{size} basis element"
            )
        nodes.append(xs[:size])
    a, b = nodes
    d = math.lcm(*[x.denominator for x in b])
    b = [x.numerator * (d // x.denominator) for x in b]
    row, rows, qs = [1], [(1,)], [1]
    for n, x in enumerate(a):
        q, pd = x.denominator, x.numerator * d
        row.append(q * row[n])
        # q = 1 drops the unit factors, so an integer node costs as before.
        if q == 1:
            for m in range(n, 0, -1):
                row[m] = row[m - 1] + (b[m] - pd) * row[m]
        else:
            for m in range(n, 0, -1):
                row[m] = q * row[m - 1] + (q * b[m] - pd) * row[m]
        row[0] *= q * b[0] - pd
        rows.append(tuple(row))
        qs.append(qs[-1] * q)
    return CoeffTable(tuple(rows), d, tuple(qs))


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
    rising = connection_coeffs(range(0, -size, -1), range(size), size).num
    return CoeffTable(
        tuple(tuple(-c for c in row) if m % 2 else row for m, row in enumerate(rising))
    )


def lah_closed_form(m: int, l: int) -> Rat:
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


def comtet_second_explicit(alpha: Iterable[RatLike], n: int, m: int) -> Rat:
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


class InversionCheck(Record):
    """Outcome of multiplying the two generalized triangles both ways.

    `unsigned` is the plain two-sided matrix inversion; `signed` is the
    variant with an alternating (-1)^(j-i) factor inserted, reported for
    reference (it fails for sizes >= 2).
    """

    __slots__ = ("unsigned", "signed")

    def __init__(self, unsigned: bool, signed: bool) -> None:
        self._set(unsigned, signed)

    def __bool__(self) -> bool:
        return self.unsigned


def inversion_check(alpha: Iterable[RatLike], size: int) -> InversionCheck:
    a = as_rat_tuple(alpha)
    first = comtet_first(a, size)
    second = comtet_second(a, size)
    unsigned = (
        table_product(first, second).is_identity()
        and table_product(second, first).is_identity()
    )
    signed = all(
        sum((-1) ** (j - i) * first[n, j] * second[j, i] for j in range(i, n + 1))
        == (n == i)
        for n in range(size + 1)
        for i in range(n + 1)
    )
    return InversionCheck(unsigned=unsigned, signed=signed)
