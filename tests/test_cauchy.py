import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    classic_first_values_by_rows,
    mp_poly_first_oracle,
    mp_poly_second_oracle,
)
from polyfam import algebra, cauchy, harness, stirling
from polyfam.algebra import (
    Polynomial,
    PreconditionError,
    TruncatedSeries,
    box_moments,
)
from polyfam.cauchy import (
    SPECIAL_FAMILIES,
    FamilyPoint,
    _bell_numerators,
    _classic_first_values,
    _def_values,
    _pair,
    _poly_from_row,
    _reciprocal_power_sums,
    classic_first_with_lengths,
    generalized_harmonic,
    lif_gf_check,
    lif_series,
    modified_bell,
    mp_first_bell,
    mp_first_closed,
    mp_first_def,
    mp_first_noncentral,
    mp_first_via_polycauchy,
    mp_poly_first,
    mp_poly_second,
    mp_second_closed,
    mp_second_def,
    mp_second_lah,
    specialize,
)
from polyfam.stirling import comtet_first, comtet_second, signless_comtet_first

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
nonzero_rationals = rationals.filter(lambda v: v != 0)


def sympy_first_kind(n, k, alpha, lengths):
    """Independent route: expand the product symbolically and integrate
    variable by variable over the box."""
    xs = sympy.symbols(f"x0:{k}")
    prod_var = sympy.prod(xs) if k else sympy.Integer(1)
    integrand = sympy.prod(
        [prod_var - sympy.Rational(a) for a in alpha[:n]], sympy.Integer(1)
    )
    for x, l in zip(xs, lengths):
        integrand = sympy.integrate(integrand, (x, 0, sympy.Rational(l)))
    return Fraction(str(sympy.nsimplify(integrand)))


def test_first_kind_matches_symbolic_integration():
    points = [
        (0, 1, (), (Fraction(1),)),
        (3, 1, (0, 1, 2), (Fraction(1),)),
        (3, 1, (Fraction(1, 2), -2, 3), (Fraction(5, 3),)),
        (2, 2, (-1, Fraction(2, 7)), (Fraction(1), Fraction(1, 2))),
    ]
    for n, k, alpha, lengths in points:
        p = FamilyPoint(n, k, tuple(Fraction(a) for a in alpha), lengths)
        assert mp_first_def(p) == sympy_first_kind(n, k, p.alpha, p.lengths)


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(nonzero_rationals, min_size=2, max_size=2),
)
def test_first_kind_routes_agree(n, k, alpha, lengths):
    p = FamilyPoint(n, k, tuple(alpha), tuple(lengths[:k]))
    value = mp_first_def(p)
    assert mp_first_closed(p) == value
    assert mp_first_noncentral(p) == value
    assert mp_first_via_polycauchy(p) == value


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(nonzero_rationals, min_size=2, max_size=2),
)
def test_second_kind_routes_agree(n, k, alpha, lengths):
    p = FamilyPoint(n, k, tuple(alpha), tuple(lengths[:k]))
    value = mp_second_def(p)
    assert mp_second_closed(p) == value
    assert mp_second_lah(p) == value


wide_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=50)
negative_length = [Fraction(-7, 3), Fraction(-1, 50), Fraction(-5)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.sampled_from([1, 2, 3]),
    st.lists(st.one_of(st.just(Fraction(0)), wide_rationals), min_size=8, max_size=8),
    st.lists(wide_rationals.filter(lambda v: v != 0), min_size=3, max_size=3),
)
@example(0, 1, [Fraction(0)] * 8, negative_length)
@example(0, 3, [Fraction(1, 3)] * 8, negative_length)
@example(6, 2, [Fraction(-1, 2), Fraction(-1, 2), 0, 7, Fraction(3, 49), 0, 1, 1],
         negative_length)
@example(5, 3, [Fraction(2, 9)] * 8, negative_length)
def test_integer_pairing_matches_the_fraction_sums(n, k, alpha, lengths):
    # The moments and both pairings recomputed in Fraction, term by term.
    lengths = lengths[:k]
    mu = [math.prod(lengths) ** (m + 1) / (m + 1) ** k for m in range(n + 1)]
    moments = box_moments(lengths, n)
    assert list(moments.coeffs) == mu and len(moments.num) == n + 1
    for build in (comtet_first, comtet_second, signless_comtet_first):
        table = build(alpha, n)
        row = table.row(n)
        value = sum((c * mu[m] for m, c in enumerate(row)), Fraction(0))
        assert _pair(table.rows[n], moments) == value
        assert _pair(Polynomial(row), moments) == value
        shifted = [
            sum(
                (-1) ** i * math.comb(m, i) * row[m] * mu[m - i]
                for m in range(i, n + 1)
            )
            for i in range(n + 1)
        ]
        assert _poly_from_row(table.rows[n], moments) == Polynomial(shifted)


def test_second_kind_def_negates_every_factor():
    # prod(-T - a) = (-1)^n prod(T + a), so at n = 1, alpha = (2), the
    # integrand is -(x + 2) and the unit interval gives -5/2.
    p = FamilyPoint(1, 1, (Fraction(2),), (Fraction(1),))
    assert mp_second_def(p) == Fraction(-5, 2)


def test_classical_number_anchors():
    first = [
        mp_first_def(FamilyPoint(n, 1, tuple(range(n)), (1,))) for n in range(5)
    ]
    assert first == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-19, 30),
    ]
    assert mp_second_def(FamilyPoint(2, 1, (0, 1), (1,))) == Fraction(5, 6)


def test_classic_first_with_lengths():
    assert classic_first_with_lengths(2, (1,)) == Fraction(-1, 6)
    assert classic_first_with_lengths(2, (1, 1)) == Fraction(
        mp_first_def(FamilyPoint(2, 2, (0, 1), (1, 1)))
    )
    # A zero length zeroes every moment; at l = 3/2 the top value
    # C_2 = l^3/3 - l^2/2 is zero.
    assert classic_first_with_lengths(2, (0,)) == 0
    assert classic_first_with_lengths(2, ("3/2",)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.lists(rationals, min_size=1, max_size=3),
)
@example(40, [Fraction(7, 3), Fraction(-5, 2)])
def test_classic_values_match_the_first_kind_rows(n, lengths):
    # The transposed recurrence gives what one stirling_first(n) paired row
    # by row with the moments gives, a zero length (zero moments) included.
    moments = box_moments(lengths, n)
    assert _classic_first_values(moments, n) == classic_first_values_by_rows(
        moments, n
    )
    assert classic_first_with_lengths(n, lengths) == classic_first_values_by_rows(
        moments, n
    ).coefficient(n)


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_a_zero_box_length_gives_zero_classic_values(n):
    moments = box_moments((Fraction(3, 2), 0), n)
    assert moments == Polynomial()
    assert _classic_first_values(moments, n) == Polynomial()
    assert classic_first_with_lengths(n, (Fraction(3, 2), 0)) == 0


def test_family_point_validation():
    with pytest.raises(PreconditionError):
        FamilyPoint(-1, 1, (), (Fraction(1),))
    with pytest.raises(PreconditionError):
        FamilyPoint(0, 0, (), ())
    with pytest.raises(PreconditionError):
        FamilyPoint(2, 1, (Fraction(1),), (Fraction(1),))
    with pytest.raises(PreconditionError):
        FamilyPoint(0, 1, (), (Fraction(0),))


def test_family_point_ignores_extra_parameters():
    base = FamilyPoint(1, 1, (Fraction(3),), (Fraction(1),))
    padded = FamilyPoint(1, 1, (Fraction(3), Fraction(9)), (Fraction(1),))
    assert mp_first_def(base) == mp_first_def(padded)


def test_generalized_harmonic_values():
    h = generalized_harmonic((1, 2, 3), 3, 2)
    assert h == (Fraction(11, 6), Fraction(49, 36))
    assert generalized_harmonic((5,), 0, 3) == (
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


def test_generalized_harmonic_preconditions():
    with pytest.raises(PreconditionError, match="need nonzero parameters"):
        generalized_harmonic((0, 1), 2, 1)
    with pytest.raises(PreconditionError, match="need at least 2 parameters, got 1"):
        generalized_harmonic((1,), 2, 1)


@settings(max_examples=60)
@given(
    st.lists(
        st.one_of(nonzero_rationals, st.sampled_from((1, -1, 3, -2, Fraction(-1, 3)))),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=6),
)
@example([], 0, 3)
@example([Fraction(1, 2), -1, Fraction(1, 2), 7], 4, 0)
def test_generalized_harmonic_is_the_termwise_power_sum(alpha, n, max_order):
    # Its own oracle: the Bell route shares generalized_harmonic's integer
    # power sums, so the Bell tests above do not pin them.
    n = min(n, len(alpha))
    head = [Fraction(x) for x in alpha[:n]]
    expected = tuple(sum(x ** -j for x in head) for j in range(1, max_order + 1))
    got = generalized_harmonic(alpha, n, max_order)
    assert got == expected
    assert all(isinstance(h, Fraction) for h in got)


def test_modified_bell_small_cases():
    assert modified_bell(0, ()) == 1
    x1, x2 = Fraction(3, 2), Fraction(-5)
    assert modified_bell(1, (x1,)) == x1
    assert modified_bell(2, (x1, x2)) == x1 ** 2 / 2 + x2 / 2
    with pytest.raises(PreconditionError):
        modified_bell(2, (x1,))


def test_modified_bell_refuses_a_negative_index():
    with pytest.raises(PreconditionError, match="index must be nonnegative"):
        modified_bell(-1, ())


@pytest.mark.parametrize("seed", range(12))
def test_modified_bell_matches_sympys_series_of_exp(seed):
    # An oracle that shares no algorithm with the series composition behind
    # modified_bell or with the Bell route's Newton recurrence: sympy's own
    # series of exp(sum_j x_j t^j / j), read at t^m for m <= 6. P_m reads
    # x_1..x_m only, so one series serves every m. The draws come from a
    # small pool that holds zero, so zeros and repeated values occur.
    rng = random.Random(f"bell-sympy:{seed}")
    pool = [Fraction(0), Fraction(-1)] + [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 20))
        for _ in range(3)
    ]
    xs = [rng.choice(pool) for _ in range(6)]
    t = sympy.Symbol("t")
    inner = sum(sympy.Rational(str(x)) * t**j / j for j, x in enumerate(xs, 1))
    series = sympy.Poly(sympy.series(sympy.exp(inner), t, 0, 7).removeO(), t)
    for m in range(7):
        expected = Fraction(str(series.coeff_monomial(t**m)))
        assert modified_bell(m, xs[:m]) == expected, (xs, m)


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2),
    st.lists(nonzero_rationals, min_size=4, max_size=4),
)
def test_bell_route_agrees_on_nonzero_parameters(n, k, alpha):
    p = FamilyPoint(n, k, tuple(alpha), (Fraction(1),) * k)
    assert mp_first_bell(p) == mp_first_def(p)


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=2),
    st.lists(nonzero_rationals, min_size=8, max_size=8),
    st.lists(nonzero_rationals, min_size=2, max_size=2),
)
def test_bell_route_equals_the_per_index_bell_sum(n, k, alpha, lengths):
    p = FamilyPoint(n, k, tuple(alpha), tuple(lengths[:k]))
    minus_h = [-h for h in generalized_harmonic(alpha, n, n)]
    prod = Fraction(1)
    for l in p.lengths:
        prod *= l
    total = sum(
        modified_bell(m, minus_h[:m]) * prod ** (m + 1) / Fraction((m + 1) ** k)
        for m in range(n + 1)
    )
    expected = (-1) ** n * total
    for a in alpha[:n]:
        expected *= a
    assert mp_first_bell(p) == expected


@given(st.lists(nonzero_rationals, min_size=3, max_size=3))
def test_bell_polynomials_vanish_past_the_parameter_count(alpha):
    # exp(sum_j -H^(j) t^j / j) = prod_i (1 - t/a_i) has degree len(alpha).
    n = len(alpha)
    top = n + 4
    h = generalized_harmonic(alpha, n, top)
    args = tuple(-v for v in h)
    for m in range(n + 1, top + 1):
        assert modified_bell(m, args) == 0


def test_lif_series_prefix():
    s = lif_series(2, 3)
    assert s.coeffs == (
        Fraction(1),
        Fraction(1, 4),
        Fraction(1, 18),
        Fraction(1, 96),
    )


def test_lif_generating_function_check():
    for k in (1, 2, 3):
        lhs, rhs = lif_gf_check(k, 6)
        assert lhs == rhs


def test_lif_right_side_is_the_per_index_classical_values():
    # The one-pass right side against the classical values read one index
    # at a time through `specialize`, one product expansion per index.
    for k in (1, 2, 3):
        for order in range(11):
            values = [specialize("poly", "first", n, k) for n in range(order + 1)]
            assert lif_gf_check(k, order)[1] == algebra._egf(order, values)


def test_a_series_check_compares_whole_series():
    # A right side with an extra term matches the left side's prefix
    # coefficient by coefficient, but it is not the same series.
    lhs = TruncatedSeries(2, (1, 2, 3))
    rhs = TruncatedSeries(3, (1, 2, 3, 4))
    assert harness._one_reading(lhs, rhs)[:2] == ("FAIL", "FAIL")
    assert harness._one_reading(lhs, rhs.truncated(2))[:2] == ("PASS", "PASS")


# The arguments each special family reads; `specialize` refuses the others.
SPECIAL_READS = {
    "classic": {"lengths"},
    "poly": {"k"},
    "q-poly": {"k", "q"},
    "q-classic": {"q", "lengths"},
    "extended-q": {"k", "q", "lengths"},
}


def special_args(family, **args):
    """The entries of args that `family` reads."""
    return {name: arg for name, arg in args.items() if name in SPECIAL_READS[family]}


def test_specialize_families():
    assert specialize("classic", "first", 3) == mp_first_def(
        FamilyPoint(3, 1, (0, 1, 2), (1,))
    )
    assert specialize("poly", "second", 2, k=3) == mp_second_def(
        FamilyPoint(2, 3, (0, 1), (1, 1, 1))
    )
    assert specialize("q-poly", "first", 3, k=2, q=1) == specialize(
        "poly", "first", 3, k=2
    )
    assert specialize(
        "extended-q", "first", 2, k=2, q=Fraction(1, 2), lengths=(1, 1)
    ) == specialize("q-poly", "first", 2, k=2, q=Fraction(1, 2))
    got = specialize("q-classic", "second", 2, q=2, lengths=(Fraction(3),))
    want = mp_second_def(
        FamilyPoint(2, 1, (Fraction(0), Fraction(2)), (Fraction(3),))
    )
    assert got == want


def test_specialize_preconditions():
    with pytest.raises(PreconditionError):
        specialize("nope", "first", 2)
    with pytest.raises(PreconditionError):
        specialize("classic", "third", 2)
    with pytest.raises(PreconditionError):
        specialize("q-poly", "first", 2)
    with pytest.raises(PreconditionError):
        specialize("extended-q", "first", 2, q=1)
    with pytest.raises(PreconditionError):
        specialize("classic", "first", 2, lengths=(1, 2))


@pytest.mark.parametrize(
    "family, unread",
    [
        (family, name)
        for family in SPECIAL_FAMILIES
        for name in ("k", "q", "lengths")
        if name not in SPECIAL_READS[family]
    ],
)
def test_specialize_refuses_an_argument_its_family_does_not_read(family, unread):
    # q to classic or poly, lengths to poly or q-poly, k != 1 to classic or
    # q-classic: each would be dropped without a word.
    given = {"k": 3, "q": 5, "lengths": (3,)}
    args = special_args(family, **given)
    specialize(family, "first", 2, **args)  # what it reads, it takes
    with pytest.raises(PreconditionError, match=f"family {family!r} takes"):
        specialize(family, "first", 2, **args, **{unread: given[unread]})


@settings(max_examples=20)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(nonzero_rationals, min_size=2, max_size=2),
)
def test_polynomials_evaluate_to_the_shifted_integrals(n, k, alpha, lengths):
    p = FamilyPoint(n, k, tuple(alpha), tuple(lengths[:k]))
    first = mp_poly_first(p)
    second = mp_poly_second(p)
    assert first(0) == mp_first_def(p)
    assert second(0) == mp_second_def(p)
    for z in (Fraction(1), Fraction(-1, 2)):
        assert first(z) == mp_poly_first_oracle(p, z)
        assert second(z) == mp_poly_second_oracle(p, z)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.lists(st.sampled_from((0, 1, Fraction(-2, 3), Fraction(5, 4))), max_size=4),
    st.lists(rationals, min_size=12, max_size=12),
    st.lists(nonzero_rationals, min_size=3, max_size=3),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=35), max_size=5
    ),
)
def test_the_shifted_kernel_matches_the_definitions_at_shifted_parameters(
    n, k, pool, fresh, lengths, samples
):
    # Zero and repeated parameters from the pool; samples over denominators
    # the parameters need not share.
    alpha = tuple(pool[i % len(pool)] if pool and i % 2 else fresh[i] for i in range(n))
    p = FamilyPoint(n, k, alpha, tuple(lengths[:k]))
    first = [
        mp_first_def(FamilyPoint(p.n, p.k, [a + z for a in p.alpha], p.lengths))
        for z in samples
    ]
    second = [
        mp_second_def(FamilyPoint(p.n, p.k, [a - z for a in p.alpha], p.lengths))
        for z in samples
    ]
    assert [_def_values(1, p, (p.n,), z)[0] for z in samples] == first
    assert [_def_values(-1, p, (p.n,), z)[0] for z in samples] == second


def test_polynomial_degree_and_leading_coefficient():
    alpha = (Fraction(1, 3), Fraction(-2), Fraction(4))
    lengths = (Fraction(1, 2), Fraction(-3))
    prod = Fraction(1, 2) * Fraction(-3)
    for n in range(4):
        p = FamilyPoint(n, 2, alpha, lengths)
        first = mp_poly_first(p)
        second = mp_poly_second(p)
        assert len(first.num) - 1 == n
        assert len(second.num) - 1 == n
        assert first.coeffs[-1] == (-1) ** n * prod
        assert second.coeffs[-1] == prod


@pytest.mark.parametrize("seed", range(8))
def test_newton_bell_numerators_match_the_series_exp(seed):
    # Q_m = P_m(-H^(1), ..., -H^(m)) L^m by Newton's identities, against
    # modified_bell, which expands the series exp; past the parameter count
    # both are zero.
    rng = random.Random(f"newton:{seed}")
    pool = [Fraction(1), Fraction(-1)] + [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        for _ in range(4)
    ]
    alpha = tuple(rng.choice(pool) for _ in range(rng.randint(1, 12)))
    lcm, sums = _reciprocal_power_sums(alpha, 12)
    bell = _bell_numerators(sums)
    harmonic = generalized_harmonic(alpha, len(alpha), 12)
    for m in range(13):
        expected = modified_bell(m, [-h for h in harmonic[:m]]) * lcm**m
        assert bell[m] == expected, (alpha, m)


def test_the_definitions_reach_no_route_kernel(monkeypatch):
    # Every route keeps an independent oracle: with the triangle kernel, the
    # box moments and the integer pairing made to raise, the definitions,
    # the special families, the polynomial sample oracles and the kernel at
    # a shifted z, as the harness reads it, still give their values.
    rng = random.Random(2014)

    def rational(nonzero=False):
        while True:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if value or not nonzero:
                return value

    cases = [
        (
            FamilyPoint(
                n,
                k,
                tuple(rational() for _ in range(n)),
                tuple(rational(nonzero=True) for _ in range(k)),
            ),
            rational(),
        )
        for n in range(11)
        for k in (1, 2, 3)
    ]

    def values():
        return [
            (
                mp_first_def(p),
                mp_second_def(p),
                mp_poly_first_oracle(p, z),
                mp_poly_second_oracle(p, z),
                [
                    _def_values(sign, p, (p.n,), shift)[0]
                    for sign in (1, -1)
                    for shift in (z, Fraction(1, 7), -z)
                ],
                [
                    specialize(
                        family,
                        kind,
                        p.n,
                        **special_args(family, k=p.k, q=z or 1, lengths=ls),
                    )
                    for family in SPECIAL_FAMILIES
                    for kind in ("first", "second")
                    for ls in [p.lengths[:1] if "classic" in family else p.lengths]
                ],
            )
            for p, z in cases
        ]

    expected = values()

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle reached a shared route kernel")

    names = {"_rows", "box_moments", "_pair"}
    patched = set()
    for module in (algebra, cauchy, stirling):
        for name in names & set(vars(module)):
            monkeypatch.setattr(module, name, forbidden)
            patched.add(name)
    assert patched == names
    with pytest.raises(AssertionError, match="shared route kernel"):
        mp_first_closed(cases[-1][0])
    assert values() == expected
