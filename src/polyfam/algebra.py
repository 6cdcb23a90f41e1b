"""Exact arithmetic foundations: rational scalars, dense polynomials, and
truncated formal power series.

Every scalar this package returns is a `fractions.Fraction`; nothing is
ever rounded. `Polynomial` is an immutable dense univariate polynomial and
`TruncatedSeries` an order-N prefix of a formal power series, both with
exact ring operations. `Polynomial` is the one fraction-free type: it holds
rationals as integer numerators over one common denominator, so that long
sums and products run over Python ints and reduce once, and a Fraction is
built only where a value leaves it. Triangle rows, box moments and value
lists are Polynomials too (see `Polynomial`). `TruncatedSeries` is a
`Polynomial` truncated at its order, so it shares that one ring
implementation.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

RatLike = Fraction | int | str

__all__ = [
    "Polynomial",
    "PreconditionError",
    "RatLike",
    "TruncatedSeries",
    "as_rat",
    "as_rat_tuple",
    "box_moments",
    "exp_series",
    "integer_samples",
    "log1p_series",
]


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


class Record:
    """Base of the package's frozen records. A subclass names its fields in
    `__slots__` and sets them once, by `_set` in its `__init__`. Repr
    (`Name(field=value, ...)`), equality (with its own class only) and hash
    read the fields in slot order; setting or deleting one raises
    AttributeError. `__reduce__` rebuilds a record through `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The slots' own setters: `_set` calls them faster than setattr by name.
        cls._put = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values: object) -> None:
        for put, value in zip(self._put, values):
            put(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _all_digits(call, *args):
    """call(*args) with the int/str digit limit (3.10.7 on) lifted; restored after."""
    limit = _get_digits()
    _set_digits(0)
    try:
        return call(*args)
    finally:
        _set_digits(limit)


def as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def as_rat_tuple(values: Iterable[RatLike]) -> tuple[Fraction, ...]:
    return tuple([v if isinstance(v, Fraction) else Fraction(v) for v in values])


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers B_i and D > 0 with values[i] = B_i / D, D the lcm of the
    values' denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def integer_samples(count: int) -> tuple[Fraction, ...]:
    """The first `count` members of 0, 1, -1, 2, -2, ... as exact rationals.

    Used as deterministic evaluation points when two polynomials are compared
    by sampling.
    """
    out: list[Fraction] = []
    step = 1
    if count > 0:
        out.append(Fraction(0))
    while len(out) < count:
        out.append(Fraction(step))
        if len(out) < count:
            out.append(Fraction(-step))
        step += 1
    return tuple(out)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Held fraction-free: coefficient i is num[i] / den, with integer
    numerators lowest power first, trailing zeros stripped, den > 0 and
    gcd(den, *num) == 1. That form is canonical, so equal polynomials compare
    equal structurally, and the ring operations run over the integers;
    `coeffs`, `coefficient` and evaluation build their Fractions on demand.
    Triangle rows (polynomials in T = x_1 * ... * x_k), box moments
    sum_m mu_m t^m and value lists are Polynomials too: their zero top
    entries are stripped, so a reader that needs a length takes it from
    elsewhere.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        num, d = _over_lcm(as_rat_tuple(coeffs))
        self.num, self.den = _reduced(num, d)

    @classmethod
    def over(cls, num: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial sum_i num[i] X^i / den, for integers num and a
        nonzero integer den, reduced to the canonical form."""
        poly = cls.__new__(cls)
        poly.num, poly.den = _reduced(list(num), den)
        return poly

    @classmethod
    def from_roots(cls, roots: Iterable[RatLike]) -> "Polynomial":
        """The monic polynomial prod_i (X - r_i); the empty product is 1.
        With r_i = p_i / q_i the product runs over the integer factors
        q_i X - p_i (see _prefix_products) and keeps its integers, over
        prod_i q_i."""
        pairs = [(r.numerator, r.denominator) for r in as_rat_tuple(roots)]
        ((cs, q),) = _prefix_products(pairs, (len(pairs),))
        return cls.over(cs, q)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash(("Polynomial", self.num, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __neg__(self) -> "Polynomial":
        return Polynomial.over((-c for c in self.num), self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        d = math.lcm(self.den, other.den)
        a, b = ([c * (d // p.den) for c in p.num] for p in (self, other))
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial.over(a, d)

    def __mul__(self, other: Polynomial | RatLike) -> "Polynomial":
        if isinstance(other, Polynomial):
            out = [0] * (len(self.num) + len(other.num) - 1)
            for i, a in enumerate(self.num):
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
            return Polynomial.over(out, self.den * other.den)
        scale = as_rat(other)
        return Polynomial.over(
            (c * scale.numerator for c in self.num), self.den * scale.denominator
        )

    def __rmul__(self, other: RatLike) -> "Polynomial":
        return self * other

    def __call__(self, point: RatLike) -> Fraction:
        """Horner's scheme over the integers: at x = u/v and degree d the value
        is sum_m num[m] u^m v^(d-m) over den v^d."""
        u, v = as_rat(point).as_integer_ratio()
        acc, vp = 0, 1
        for c in reversed(self.num):
            acc = acc * u + c * vp
            vp *= v
        return Fraction(acc, self.den * v ** max(len(self.num) - 1, 0))

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant term, over lcm(1, ..., d+1)."""
        lcm = math.lcm(*range(1, len(self.num) + 1))
        num = [c * (lcm // i) for i, c in enumerate(self.num, 1)]
        return Polynomial.over([0] + num, self.den * lcm)

    def integral_to(self, upper: RatLike) -> Fraction:
        """Exact definite integral over [0, upper]."""
        return self.antiderivative()(upper)


def _reduced(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den in the canonical form of Polynomial: trailing zeros
    stripped, then numerators and denominator divided by their gcd, signed so
    that the denominator is positive."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _prefix_products(roots: Sequence[tuple], rows: Sequence[int]) -> list[tuple]:
    """For each j in `rows` (in their order, each in 0..len(roots)) the
    integers c_0..c_j of prod_{i<j} (q_i X - p_i), lowest power first, and
    Q_j = prod_{i<j} q_i, for roots r_i = p_i / q_i given as integer pairs
    (q_i > 0, not necessarily reduced): prod_{i<j} (X - r_i) is
    sum_m c_m X^m / Q_j, one denominator per prefix.

    One integer list is multiplied in place by each q_i X - p_i, high index
    first (c_m becomes q_i c_(m-1) - p_i c_m); every prefix asked for is
    read on the way."""
    if not all(0 <= j <= len(roots) for j in rows):
        raise IndexError(f"a row of {list(rows)} is outside 0..{len(roots)}")
    wanted, cs, q_prod, prefixes = set(rows), [1], 1, {}
    for j, (p, q) in enumerate(roots):
        if j in wanted:
            prefixes[j] = (cs[:], q_prod)
        cs.append(q * cs[-1])
        for m in range(j, 0, -1):
            cs[m] = q * cs[m - 1] - p * cs[m]
        cs[0] = -p * cs[0]
        q_prod *= q
    prefixes[len(roots)] = (cs, q_prod)
    return [prefixes[j] for j in rows]


def box_moments(lengths: Sequence[RatLike], size: int) -> Polynomial:
    """The moment polynomial sum_m mu_m t^m, m = 0..size, of the box
    [0,l_1] x ... x [0,l_k], k = len(lengths): mu_m is the integral of
    (x_1 * ... * x_k)^m over the box.

    Equals (l_1 ... l_k)^(m+1) / (m+1)^k by separating the variables, so a
    box integral of any polynomial in T = x_1 * ... * x_k is its coefficient
    row paired with these moments. With l_1 ... l_k = u/v (integer products
    reduced by one gcd) and L = lcm(1, ..., size+1) the numerators are
    M_m = u^(m+1) v^(size-m) (L/(m+1))^k over Q = v^(size+1) L^k, reduced to
    the canonical form: a zero length leaves the zero polynomial. The powers
    of u rise and those of v fall with m, so both are kept running: one
    product by u and one exact division by v per moment.
    """
    if size < 0:
        raise PreconditionError("moment count must be nonnegative")
    ratios = [as_rat(l).as_integer_ratio() for l in lengths]
    k = len(ratios)
    if k < 1:
        raise PreconditionError("need at least one integration variable")
    u, v = map(math.prod, zip(*ratios))
    g, lcm = math.gcd(u, v), math.lcm(*range(1, size + 2))
    u, v = u // g, v // g
    q = v ** (size + 1)
    num, u_power, v_power = [], 1, q
    for j in range(1, size + 2):
        u_power, v_power = u_power * u, v_power // v
        num.append(u_power * v_power * (lcm // j) ** k)
    return Polynomial.over(num, q * lcm**k)


class TruncatedSeries(Record):
    """An order-N prefix of a formal power series in one variable t.

    A record of the order N and one Polynomial of degree at most N, the
    coefficients of t^0 .. t^N, so a series is a polynomial mod t^(N+1) and
    its ring operations are the Polynomial ones, truncated (see `_of`).
    Binary operations between series of different orders truncate to the
    smaller order, which is the largest prefix both operands determine.
    """

    __slots__ = ("order", "_poly")

    def __init__(self, order: int, coeffs: Iterable[RatLike] = ()):
        if order < 0:
            raise PreconditionError("series order must be nonnegative")
        self._set(order, Polynomial(as_rat_tuple(coeffs)[: order + 1]))

    @classmethod
    def _of(cls, order: int, poly: Polynomial) -> "TruncatedSeries":
        """poly mod t^(order+1), as a series of that order."""
        series = cls.__new__(cls)
        series._set(order, Polynomial.over(poly.num[: order + 1], poly.den))
        return series

    def __reduce__(self) -> tuple:
        return type(self)._of, self._fields()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        pad = self.order + 1 - len(self._poly.num)
        return self._poly.coeffs + (Fraction(0),) * pad

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise PreconditionError(
                f"coefficient index {i} outside truncation order {self.order}"
            )
        return self._poly.coefficient(i)

    def truncated(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise PreconditionError(
                "cannot extend a truncated series to a higher order"
            )
        return TruncatedSeries._of(order, self._poly)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {[str(c) for c in self.coeffs]})"

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self.order, -self._poly)

    def __add__(self, other: TruncatedSeries | RatLike) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries._of(order, self._poly + other._poly)
        return TruncatedSeries._of(self.order, self._poly + Polynomial((other,)))

    def __rsub__(self, other: RatLike) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: TruncatedSeries | RatLike) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries._of(order, self._poly * other._poly)
        return TruncatedSeries._of(self.order, self._poly * as_rat(other))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise PreconditionError("negative series powers are not supported")
        acc = TruncatedSeries(self.order, (1,))
        for _ in range(exponent):
            acc = acc * self
        return acc

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """The prefix of self(inner(t)); inner must have zero constant term."""
        if inner.coefficient(0) != 0:
            raise PreconditionError(
                "series composition needs an inner series with zero constant term"
            )
        n = min(self.order, inner.order)
        inner = inner.truncated(n)
        acc = TruncatedSeries(n, (0,))
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * inner + c
        return acc

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, to the same order: the
        exponential series composed with it."""
        if self.coefficient(0) != 0:
            raise PreconditionError("series exp needs a zero constant term")
        return exp_series(self.order).compose(self)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term one, to the same order:
        log(1 + t) composed with the series minus one."""
        if self.coefficient(0) != 1:
            raise PreconditionError("series log needs constant term one")
        return log1p_series(self.order).compose(self + -1)


def _egf(order: int, values: Iterable[RatLike]) -> TruncatedSeries:
    """Prefix of the exponential generating function sum_m values[m] t^m / m!."""
    return TruncatedSeries(
        order, [Fraction(v) / math.factorial(m) for m, v in enumerate(values)]
    )


def exp_series(order: int, rate: RatLike = 1) -> TruncatedSeries:
    """Prefix of exp(rate * t), the exponential generating function of rate^m."""
    r = as_rat(rate)
    return _egf(order, (r**m for m in range(order + 1)))


def log1p_series(order: int) -> TruncatedSeries:
    """Prefix of log(1 + t): coefficient of t^m is (-1)^(m+1)/m for m >= 1."""
    coeffs = [Fraction(0)]
    for m in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (m + 1), m))
    return TruncatedSeries(order, coeffs)
