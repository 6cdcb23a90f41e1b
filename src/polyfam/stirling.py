"""Connection coefficients between graded polynomial bases.

One exact basis-change engine produces every triangle in this package:
generalized (Comtet) Stirling numbers of both kinds for an arbitrary rational
parameter sequence, their signless variant, the classical Stirling and signed
Lah triangles, and the non-central tables. Named recurrences and closed forms
exist only as cross-checks.

Every supported basis is a Newton basis b_0 = 1, b_{m+1} = c (X - node_m) b_m
with a scale c = +-1 and a node sequence. Writing the source basis with scale
c_s and nodes a, the target with c_t and b, the connection table obeys

    T(n+1, m) = c_s [c_t T(n, m-1) + (b_m - a_n) T(n, m)],

since (X - a_n) t_m = c_t t_{m+1} + (b_m - a_n) t_m (Comtet, CRAS 1972;
Verde-Star, Stud. Appl. Math. 1988). The engine builds rows 0..size of a
table in one pass of this recurrence and keeps no state between calls.

The pass is fraction-free, after Bareiss (Math. Comp. 1968): with D the lcm
of the node denominators and A = D a, B = D b, the integers
r(n, m) = D^(n-m) T(n, m) obey
r(n+1, m) = c_s [c_t r(n, m-1) + (B_m - A_n) r(n, m)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .algebra import (
    IntVector,
    Polynomial,
    PreconditionError,
    Rat,
    RatLike,
    as_rat_tuple,
)

__all__ = [
    "Basis",
    "CoeffTable",
    "InversionCheck",
    "comtet_first",
    "comtet_second",
    "comtet_second_explicit",
    "connection_coeffs",
    "identity_table",
    "inversion_check",
    "lah_closed_form",
    "lah_signed",
    "noncentral_second",
    "signless_comtet_first",
    "stirling_first",
    "stirling_second",
    "table_product",
]


@dataclass(frozen=True)
class Basis:
    """A graded Newton basis: b_0 = 1 and b_{m+1} = scale (X - node_m) b_m.

    Nodes are `alpha` when it is given, else node_i = step * i:
      monomial          b_m = X^m                            nodes 0, 0, ...
      falling           b_m = X(X-1)...(X-m+1)               nodes 0, 1, 2, ...
      negated-falling   b_m = (-X)(-X-1)...(-X-m+1)          nodes 0, -1, -2, ...
                                                             scale -1
      multiparam        b_m = (X-a_0)(X-a_1)...(X-a_{m-1})   nodes a
    """

    scale: int = 1
    step: int = 0
    alpha: Optional[tuple[Rat, ...]] = None

    @classmethod
    def monomial(cls) -> "Basis":
        return cls()

    @classmethod
    def falling(cls) -> "Basis":
        return cls(step=1)

    @classmethod
    def negated_falling(cls) -> "Basis":
        return cls(scale=-1, step=-1)

    @classmethod
    def multiparam(cls, alpha: Iterable[RatLike]) -> "Basis":
        return cls(alpha=as_rat_tuple(alpha))

    def nodes(self, count: int) -> tuple[Rat, ...]:
        """node_0, ..., node_{count-1}."""
        if self.alpha is None:
            return tuple(Fraction(self.step * i) for i in range(count))
        if len(self.alpha) < count:
            raise PreconditionError(
                f"parameter sequence of length {len(self.alpha)} cannot "
                f"form a degree-{count} basis element"
            )
        return self.alpha[:count]

    def element(self, m: int) -> Polynomial:
        """The degree-m basis polynomial."""
        if m < 0:
            raise PreconditionError("basis degree must be nonnegative")
        acc = Polynomial((1,))
        for node in self.nodes(m):
            acc = acc * Polynomial((-self.scale * node, self.scale))
        return acc


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Lower-triangular connection table; entry (n, m) is the coefficient of
    the target basis element of degree m in the expansion of the source
    element of degree n. Indexing outside the triangle yields zero.

    Held fraction-free: entry (n, m) is num[n][m] / den^(n-m) with integer
    numerators and one denominator den >= 1. The Fraction entries (`rows`,
    `row`, indexing, equality) are a view built on first use.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    @property
    def size(self) -> int:
        return len(self.num) - 1

    @cached_property
    def rows(self) -> tuple[tuple[Rat, ...], ...]:
        return tuple(
            tuple(Fraction(r, self.den ** (n - m)) for m, r in enumerate(row))
            for n, row in enumerate(self.num)
        )

    def row(self, n: int) -> tuple[Rat, ...]:
        return self.rows[n]

    def int_row(self, n: int) -> IntVector:
        """Row n as integer numerators over the common denominator den^n."""
        d = self.den
        return IntVector(tuple(r * d**m for m, r in enumerate(self.num[n])), d**n)

    def __getitem__(self, nm: tuple[int, int]) -> Rat:
        n, m = nm
        return self.rows[n][m] if 0 <= m <= n < len(self.num) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CoeffTable):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def entrywise_abs(self) -> "CoeffTable":
        return CoeffTable(tuple(tuple(map(abs, row)) for row in self.num), self.den)

    def is_identity(self) -> bool:
        return all(
            r == (n == m) for n, row in enumerate(self.num) for m, r in enumerate(row)
        )


def identity_table(size: int) -> CoeffTable:
    return CoeffTable(
        tuple(tuple(int(n == m) for m in range(n + 1)) for n in range(size + 1))
    )


def table_product(a: CoeffTable, b: CoeffTable) -> CoeffTable:
    """Triangular matrix product (a b)(n, j) = sum_m a(n, m) b(m, j), over
    the lcm of the two denominators."""
    if a.size != b.size:
        raise PreconditionError("table sizes must match for a product")
    d = math.lcm(a.den, b.den)
    x, y = (
        [[r * (d // t.den) ** (n - m) for m, r in enumerate(row)]
         for n, row in enumerate(t.num)]
        for t in (a, b)
    )
    return CoeffTable(
        tuple(
            tuple(sum(x[n][m] * y[m][j] for m in range(j, n + 1)) for j in range(n + 1))
            for n in range(a.size + 1)
        ),
        d,
    )


def connection_coeffs(source: Basis, target: Basis, size: int) -> CoeffTable:
    """Exact table T with source_n(X) = sum_{m<=n} T(n, m) target_m(X).

    Works for any pair of Newton bases; rows 0..size, built over the integers
    by the node recurrence of the module docstring. Raises PreconditionError
    when a multiparam basis holds fewer than `size` parameters.
    """
    if size < 0:
        raise PreconditionError("table size must be nonnegative")
    a, b = source.nodes(size), target.nodes(size)
    d = math.lcm(*(x.denominator for x in a + b))
    a, b = ([x.numerator * (d // x.denominator) for x in xs] for xs in (a, b))
    sign = source.scale * target.scale
    row: tuple[int, ...] = (1,)
    rows = [row]
    for n, a_n in enumerate(a):
        shifts = [
            b_m - a_n if source.scale == 1 else a_n - b_m for b_m in b[: n + 1]
        ]
        lower = row if sign == 1 else tuple(-c for c in row)
        row = (
            (shifts[0] * row[0],)
            + tuple(lower[m - 1] + shifts[m] * row[m] for m in range(1, n + 1))
            + (lower[n],)
        )
        rows.append(row)
    return CoeffTable(tuple(rows), d)


def comtet_first(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Generalized Stirling numbers of the first kind: the expansion of
    (X-a_0)...(X-a_{n-1}) in monomials."""
    return connection_coeffs(Basis.multiparam(alpha), Basis.monomial(), size)


def comtet_second(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Generalized Stirling numbers of the second kind: the expansion of X^n
    in the products (X-a_0)...(X-a_{m-1})."""
    return connection_coeffs(Basis.monomial(), Basis.multiparam(alpha), size)


def signless_comtet_first(alpha: Iterable[RatLike], size: int) -> CoeffTable:
    """Coefficients of X^m in prod_i (X + a_i).

    Equals (-1)^(n-m) times the first-kind table for every parameter
    sequence, and agrees with its entrywise absolute values exactly when all
    parameters are nonnegative.
    """
    negated = tuple(-a for a in as_rat_tuple(alpha))
    return connection_coeffs(Basis.multiparam(negated), Basis.monomial(), size)


def stirling_first(size: int) -> CoeffTable:
    """Classical signed Stirling numbers of the first kind."""
    return comtet_first(tuple(Fraction(i) for i in range(size)), size)


def stirling_second(size: int) -> CoeffTable:
    """Classical Stirling numbers of the second kind."""
    return comtet_second(tuple(Fraction(i) for i in range(size)), size)


def lah_signed(size: int) -> CoeffTable:
    """Signed Lah numbers L(m, l) defined by the exact expansion of the
    negated falling factorial in the falling-factorial basis."""
    return connection_coeffs(Basis.negated_falling(), Basis.falling(), size)


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
    return connection_coeffs(Basis.multiparam(alpha), Basis.falling(), size)


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


@dataclass(frozen=True)
class InversionCheck:
    """Outcome of multiplying the two generalized triangles both ways.

    `unsigned` is the plain two-sided matrix inversion; `signed` is the
    variant with an alternating (-1)^(j-i) factor inserted, reported for
    reference (it fails for sizes >= 2).
    """

    unsigned: bool
    signed: bool

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
