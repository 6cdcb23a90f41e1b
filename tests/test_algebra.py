import math
from fractions import Fraction
from typing import Iterable, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfam.algebra import (
    Polynomial,
    PreconditionError,
    RatLike,
    TruncatedSeries,
    as_rat,
    as_rat_tuple,
    box_moments,
    exp_series,
    integer_samples,
    log1p_series,
)

X = Polynomial((0, 1))
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coeff_lists = st.lists(rationals, max_size=6)


def test_as_rat_accepts_ints_strings_and_fractions():
    assert as_rat(3) == Fraction(3)
    assert as_rat("-7/2") == Fraction(-7, 2)
    assert as_rat(Fraction(1, 3)) == Fraction(1, 3)
    assert as_rat_tuple(["1/2", 2]) == (Fraction(1, 2), Fraction(2))


def test_integer_samples_order():
    assert integer_samples(0) == ()
    assert integer_samples(5) == tuple(
        Fraction(v) for v in (0, 1, -1, 2, -2)
    )
    assert len(set(integer_samples(11))) == 11


def test_zero_polynomial():
    zero = Polynomial()
    assert not zero
    assert len(zero.num) - 1 == -1
    assert zero.coeffs == ()
    assert zero(Fraction(5, 3)) == 0
    assert Polynomial((0, 0, 0)) == zero
    nonzero = Polynomial((Fraction(1, 3), 2))
    for product in (zero * nonzero, nonzero * zero, zero * zero):
        assert product == Polynomial() and product.den == 1


def test_trailing_zeros_are_stripped():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert len(p.num) - 1 == 1
    assert p.coefficient(17) == 0


# 1/p for distinct primes p: coprime denominators, so the common one is
# their product.
prime_reciprocals = st.sampled_from(
    [Fraction(s, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for s in (1, -1)]
)
tall_rationals = st.fractions(
    min_value=-(10**12), max_value=10**12, max_denominator=10**12
)


@settings(max_examples=80)
@given(
    st.lists(
        st.one_of(
            rationals,
            st.sampled_from((0, -1, 2, Fraction(-1, 2))),
            prime_reciprocals,
            tall_rationals,
        ),
        max_size=12,
    )
)
def test_from_roots_equals_the_product_of_linear_factors(roots):
    expected = Polynomial((1,))
    for r in roots:
        expected = expected * Polynomial((-r, 1))
    assert Polynomial.from_roots(roots) == expected
    assert Polynomial.from_roots(iter(roots)) == expected


def test_from_roots_expansion():
    p = Polynomial.from_roots((1, 2, 3))
    assert p.coeffs == (Fraction(-6), Fraction(11), Fraction(-6), Fraction(1))
    assert p(1) == 0 and p(2) == 0 and p(3) == 0
    assert Polynomial.from_roots(()) == Polynomial((1,))


def test_definite_integral():
    # int_0^1 x(x-1) dx = -1/6
    assert Polynomial.from_roots((0, 1)).integral_to(1) == Fraction(-1, 6)
    assert (X * X).integral_to(2) == Fraction(8, 3)
    assert Polynomial().integral_to(5) == 0


@given(coeff_lists, coeff_lists, rationals)
def test_polynomial_ring_ops_match_pointwise(a, b, z):
    p, q = Polynomial(a), Polynomial(b)
    assert (p + q)(z) == p(z) + q(z)
    assert (p + (-q))(z) == p(z) - q(z)
    assert (p * q)(z) == p(z) * q(z)
    assert (-p)(z) == -p(z)
    assert (3 * p)(z) == 3 * p(z)


@given(coeff_lists)
def test_antiderivative_undoes_nothing_it_should_not(a):
    p = Polynomial(a)
    anti = p.antiderivative()
    assert anti.coefficient(0) == 0
    rebuilt = Polynomial(
        [(i + 1) * anti.coefficient(i + 1) for i in range(len(anti.coeffs))]
    )
    assert rebuilt == p


class _FractionPolynomial:
    """The reference: Polynomial as it was when it stored one Fraction per
    coefficient, lowest power first, trailing zeros stripped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def from_roots(cls, roots: Iterable[RatLike]) -> "_FractionPolynomial":
        # The product of the Fraction linear factors X - r, one at a time.
        acc = cls((1,))
        for r in as_rat_tuple(roots):
            acc = acc * cls((-r, 1))
        return acc

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> Union[int, float]:
        if not self._coeffs:
            return float("-inf")
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _FractionPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __neg__(self) -> "_FractionPolynomial":
        return _FractionPolynomial(tuple(-c for c in self._coeffs))

    def __add__(self, other: "_FractionPolynomial") -> "_FractionPolynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _FractionPolynomial(out)

    def __mul__(self, other) -> "_FractionPolynomial":
        if isinstance(other, _FractionPolynomial):
            if not self._coeffs or not other._coeffs:
                return _FractionPolynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return _FractionPolynomial(out)
        scale = as_rat(other)
        return _FractionPolynomial(tuple(c * scale for c in self._coeffs))

    def __call__(self, point: RatLike) -> Fraction:
        x = as_rat(point)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def antiderivative(self) -> "_FractionPolynomial":
        return _FractionPolynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self._coeffs)]
        )

    def integral_to(self, upper: RatLike) -> Fraction:
        return self.antiderivative()(upper)


def _same(p: Polynomial, ref: _FractionPolynomial) -> bool:
    return (
        p.coeffs == ref.coeffs
        and repr(p) == repr(ref)
        and len(p.num) - 1 == max(ref.degree, -1)
        and all(p.coefficient(i) == ref.coefficient(i) for i in range(-1, 9))
    )


# Zeros, trailing zeros and the zero polynomial come often.
sparse_coeffs = st.lists(
    st.one_of(rationals, st.just(Fraction(0)), tall_rationals), max_size=6
).map(lambda cs: cs + [0] * (len(cs) % 3))
points = st.one_of(rationals, tall_rationals, st.sampled_from((0, 1, -1, "3/7")))


@settings(max_examples=150)
@given(sparse_coeffs, sparse_coeffs, points, rationals, st.lists(rationals, max_size=6))
def test_the_integer_polynomial_matches_the_fraction_reference(a, b, z, c, roots):
    p, q = Polynomial(a), Polynomial(b)
    rp, rq = _FractionPolynomial(a), _FractionPolynomial(b)
    assert _same(p, rp) and _same(q, rq)
    assert (p == q) == (rp == rq)
    for got, want in [
        (p + q, rp + rq),
        (p + (-q), rp + (-rq)),
        (-p, -rp),
        (p * q, rp * rq),
        (p * c, rp * c),
        (c * p, rp * c),
        (p * 3, rp * 3),
        (p.antiderivative(), rp.antiderivative()),
        (Polynomial.from_roots(roots), _FractionPolynomial.from_roots(roots)),
    ]:
        assert _same(got, want)
    assert p(z) == rp(z) and type(p(z)) is Fraction
    assert p.integral_to(z) == rp.integral_to(z)
    # The same polynomial built another way: equal, and hashes equal.
    scale = 6 * math.lcm(*(Fraction(x).denominator for x in a))
    num = [Fraction(x) * scale for x in a]
    twin = Polynomial.over([int(x) for x in num] + [0], -scale)
    assert twin == -p and hash(twin) == hash(-p)
    assert Polynomial(list(a) + [0, 0]) == p and hash(Polynomial(a + [0])) == hash(p)
    assert (p + q == q + p) and hash(p + q) == hash(q + p)


def test_box_moments_values():
    assert box_moments((1,), 0).coeffs == (1,)
    assert box_moments((1, 1), 2).coeffs == (1, Fraction(1, 4), Fraction(1, 9))
    assert box_moments((Fraction(1, 2), 3), 1).coefficient(1) == Fraction(9, 16)


def test_box_moments_match_iterated_integration():
    lengths = (Fraction(2), Fraction(1, 3))
    moments = box_moments(lengths, 4)
    assert len(moments.num) - 1 == 4
    for m in range(5):
        # Separate the variables: each factor contributes int_0^l x^m dx.
        want = Fraction(1)
        for l in lengths:
            mono = Polynomial([0] * m + [1])
            want *= mono.integral_to(l)
        assert moments.coefficient(m) == want


# Signed lengths over the integers 1..12: two lengths' numerators and
# denominators often share a factor (2/3 and 9/4), so the product u/v needs
# its gcd taken before the moments are built.
box_lengths = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.builds(
            lambda sign, p, q: sign * Fraction(p, q),
            st.sampled_from((1, -1)),
            st.integers(1, 12),
            st.integers(1, 12),
        ),
        min_size=k,
        max_size=k,
    )
)


@settings(derandomize=True, max_examples=100)
@given(box_lengths, st.integers(0, 24))
def test_box_moments_are_the_separated_integrals(lengths, size):
    k, product = len(lengths), math.prod(lengths)
    moments = box_moments(lengths, size)
    assert len(moments.num) == size + 1
    for m in range(size + 1):
        assert moments.coefficient(m) == product ** (m + 1) / (m + 1) ** k


def test_box_moments_preconditions():
    with pytest.raises(PreconditionError, match="moment count"):
        box_moments((1,), -1)
    with pytest.raises(PreconditionError, match="at least one integration variable"):
        box_moments((), 2)


def test_series_padding_and_truncation():
    s = TruncatedSeries(3, (1, 2))
    assert s.coeffs == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    assert s.order == 3
    assert s.truncated(1).coeffs == (Fraction(1), Fraction(2))
    assert TruncatedSeries(2, (1, 2, 3, 4, 5)).coeffs == (
        Fraction(1),
        Fraction(2),
        Fraction(3),
    )


def test_series_binary_ops_use_minimum_order():
    a = TruncatedSeries(5, (1, 1, 1, 1, 1, 1))
    b = TruncatedSeries(2, (1, 1))
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a * b).coeffs == (Fraction(1), Fraction(2), Fraction(2))


def test_series_scalar_ops():
    s = TruncatedSeries(2, (1, 2, 3))
    assert (s + 1).coeffs == (Fraction(2), Fraction(2), Fraction(3))
    assert (1 - s).coeffs == (Fraction(0), Fraction(-2), Fraction(-3))
    assert (s ** 2) == s * s
    assert (s ** 0) == TruncatedSeries(2, (1,))


def test_exp_series_coefficients():
    e = exp_series(4, rate=Fraction(-1, 2))
    assert e.coefficient(0) == 1
    assert e.coefficient(1) == Fraction(-1, 2)
    assert e.coefficient(3) == Fraction(-1, 48)


def test_log1p_series_coefficients():
    l = log1p_series(4)
    assert l.coeffs == (
        Fraction(0),
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
    )


def test_exp_log_round_trip():
    t = TruncatedSeries(6, (0, 1))
    assert (t + 1).log().exp() == t + 1
    assert t.exp().log() == t
    # log(exp(t)) and exp(log(1+t)) meet in the middle via compose too.
    assert log1p_series(6).compose(exp_series(6) + (-1)) == t


def test_compose_requires_nilpotent_inner():
    outer = exp_series(4)
    with pytest.raises(PreconditionError):
        outer.compose(TruncatedSeries(4, (1, 1)))


def test_exp_and_log_constant_term_preconditions():
    with pytest.raises(PreconditionError):
        TruncatedSeries(3, (1, 1)).exp()
    with pytest.raises(PreconditionError):
        TruncatedSeries(3, (0, 1)).log()


@given(st.lists(rationals, min_size=1, max_size=5))
def test_series_exp_turns_sums_into_products(coeffs):
    order = 5
    a = TruncatedSeries(order, [Fraction(0)] + coeffs)
    b = TruncatedSeries(order, [Fraction(0)] + coeffs[::-1])
    assert (a + b).exp() == a.exp() * b.exp()


@settings(max_examples=40)
@given(st.lists(rationals, min_size=1, max_size=5))
def test_series_log_turns_products_into_sums(coeffs):
    order = 5
    a = TruncatedSeries(order, [Fraction(0)] + coeffs) + 1
    b = TruncatedSeries(order, [Fraction(0)] + coeffs[::-1]) + 1
    assert (a * b).log() == a.log() + b.log()


class _FractionSeries:
    """The reference: TruncatedSeries as it was when it stored one Fraction
    per coefficient, t^0 .. t^N, and ran its own arithmetic loops."""

    __slots__ = ("_coeffs",)

    def __init__(self, order: int, coeffs: Iterable[RatLike] = ()):
        if order < 0:
            raise PreconditionError("series order must be nonnegative")
        cs = [as_rat(c) for c in coeffs][: order + 1]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def constant(cls, value: RatLike, order: int) -> "_FractionSeries":
        return cls(order, (as_rat(value),))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise PreconditionError(
                f"coefficient index {i} outside truncation order {self.order}"
            )
        return self._coeffs[i]

    def truncated(self, order: int) -> "_FractionSeries":
        if order > self.order:
            raise PreconditionError(
                "cannot extend a truncated series to a higher order"
            )
        return _FractionSeries(order, self._coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _FractionSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {[str(c) for c in self._coeffs]})"

    def __neg__(self) -> "_FractionSeries":
        return _FractionSeries(self.order, tuple(-c for c in self._coeffs))

    def _common_order(self, other: "_FractionSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other) -> "_FractionSeries":
        if isinstance(other, _FractionSeries):
            n = self._common_order(other)
            return _FractionSeries(
                n, tuple(self._coeffs[i] + other._coeffs[i] for i in range(n + 1))
            )
        c = as_rat(other)
        out = list(self._coeffs)
        out[0] += c
        return _FractionSeries(self.order, out)

    def __rsub__(self, other: RatLike) -> "_FractionSeries":
        return (-self) + other

    def __mul__(self, other) -> "_FractionSeries":
        if isinstance(other, _FractionSeries):
            n = self._common_order(other)
            out = [Fraction(0)] * (n + 1)
            for i in range(n + 1):
                a = self._coeffs[i]
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += a * other._coeffs[j]
            return _FractionSeries(n, out)
        scale = as_rat(other)
        return _FractionSeries(self.order, tuple(c * scale for c in self._coeffs))

    def __pow__(self, exponent: int) -> "_FractionSeries":
        if exponent < 0:
            raise PreconditionError("negative series powers are not supported")
        acc = _FractionSeries.constant(1, self.order)
        for _ in range(exponent):
            acc = acc * self
        return acc

    def compose(self, inner: "_FractionSeries") -> "_FractionSeries":
        if inner._coeffs[0] != 0:
            raise PreconditionError(
                "series composition needs an inner series with zero constant term"
            )
        n = self._common_order(inner)
        inner = inner.truncated(n)
        acc = _FractionSeries.constant(0, n)
        for c in reversed(self._coeffs[: n + 1]):
            acc = acc * inner + c
        return acc

    def exp(self) -> "_FractionSeries":
        if self._coeffs[0] != 0:
            raise PreconditionError("series exp needs a zero constant term")
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for i in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, i + 1):
                acc += j * self._coeffs[j] * out[i - j]
            out[i] = acc / i
        return _FractionSeries(n, out)

    def log(self) -> "_FractionSeries":
        if self._coeffs[0] != 1:
            raise PreconditionError("series log needs constant term one")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, i):
                acc += j * out[j] * self._coeffs[i - j]
            out[i] = self._coeffs[i] - acc / i
        return _FractionSeries(n, out)


def _same_series(s: TruncatedSeries, ref: _FractionSeries) -> bool:
    return (
        s.order == ref.order
        and s.coeffs == ref.coeffs
        and all(type(c) is Fraction for c in s.coeffs)
        and repr(s) == repr(ref)
        and all(s.coefficient(i) == ref.coefficient(i) for i in range(s.order + 1))
    )


@settings(max_examples=150)
@given(
    st.integers(0, 7),
    sparse_coeffs,
    st.integers(0, 7),
    sparse_coeffs,
    points,
    st.integers(0, 3),
)
def test_the_polynomial_series_matches_the_fraction_reference(m, a, n, b, c, e):
    s, t = TruncatedSeries(m, a), TruncatedSeries(n, b)
    rs, rt = _FractionSeries(m, a), _FractionSeries(n, b)
    assert _same_series(s, rs) and _same_series(t, rt)
    assert (s == t) == (rs == rt)
    # The nilpotent part of each, for compose, exp and log.
    s0, t0 = s + (-s.coefficient(0)), t + (-t.coefficient(0))
    rs0, rt0 = rs + (-rs.coefficient(0)), rt + (-rt.coefficient(0))
    low = min(m, n)
    cases = [
        (s + t, rs + rt),
        (s + (-t), rs + (-rt)),
        (-s, -rs),
        (s * t, rs * rt),
        (s + c, rs + c),
        (s + (-as_rat(c)), rs + (-as_rat(c))),
        (c - s, c - rs),
        (s * c, rs * c),
        (s**e, rs**e),
        (s.truncated(low), rs.truncated(low)),
        (TruncatedSeries(m, (c,)), _FractionSeries.constant(c, m)),
        (s.compose(t0), rs.compose(rt0)),
        (s0.exp(), rs0.exp()),
        ((t0 + 1).log(), (rt0 + 1).log()),
    ]
    for got, want in cases:
        assert _same_series(got, want)
    # Equal series built different ways hash equal; orders keep them apart.
    twins = (TruncatedSeries(m, list(a) + [0, 0]), s * 1, s + 0, (s + t) + (-t) + 0)
    for twin in twins:
        if twin.order == m:
            assert twin == s and hash(twin) == hash(s)
    assert TruncatedSeries(m + 1, a) != s
    # A polynomial is not a scalar.
    for op in (
        lambda: s * X,
        lambda: X * s,
        lambda: s + X,
        lambda: X + s,
        lambda: s - X,
        lambda: X - s,
        lambda: s / X,
    ):
        with pytest.raises(TypeError):
            op()
