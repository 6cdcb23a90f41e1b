import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam.algebra import Polynomial, PreconditionError, _prefix_products
from polyfam.cli import TABLE_FAMILIES
from polyfam.stirling import (
    CoeffTable,
    comtet_first,
    comtet_second,
    comtet_second_explicit,
    connection_coeffs,
    inversion_check,
    lah_closed_form,
    lah_signed,
    noncentral_second,
    signless_comtet_first,
    stirling_first,
    stirling_second,
    table_product,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)
alpha_lists = st.lists(rationals, min_size=0, max_size=5)


def classical(n):
    return tuple(Fraction(i) for i in range(n))


# Reference engine: expand each basis element into monomials and peel the
# target elements off from the top degree down. It shares no code with the
# node recurrence in polyfam.stirling and costs O(n^3) per table.


def _monomial(m):
    return Polynomial([Fraction(0)] * m + [Fraction(1)])


def _falling(m):
    return Polynomial.from_roots(range(m))


def _negated_falling(m):
    acc = Polynomial((1,))
    for i in range(m):
        acc = acc * Polynomial((-i, -1))
    return acc


def _multiparam(alpha):
    return lambda m: Polynomial.from_roots(alpha[:m])


def _rows(table):
    """Every row of a table as Fractions, read through `row`."""
    return tuple(table.row(n) for n in range(table.size + 1))


def _oracle_connection(source, target, size):
    rows = []
    for n in range(size + 1):
        residual = list(source(n).coeffs)
        residual.extend([Fraction(0)] * (n + 1 - len(residual)))
        out = [Fraction(0)] * (n + 1)
        for m in range(n, -1, -1):
            element = target(m)
            c = residual[m] / element.coeffs[-1]
            out[m] = c
            if c != 0:
                for i, b in enumerate(element.coeffs):
                    residual[i] -= c * b
        rows.append(tuple(out))
    return tuple(rows)


_ORACLE_BASES = {
    "comtet-1": lambda a: (_multiparam(a), _monomial),
    "comtet-2": lambda a: (_monomial, _multiparam(a)),
    "signless-comtet-1": lambda a: (_multiparam([-x for x in a]), _monomial),
    "stirling-1": lambda a: (_falling, _monomial),
    "stirling-2": lambda a: (_monomial, _falling),
    "lah": lambda a: (_negated_falling, _falling),
    "noncentral-2": lambda a: (_multiparam(a), _falling),
}


def test_table_indexing_outside_triangle_is_zero():
    t = stirling_first(3)
    assert t[3, 4] == 0
    assert t[2, -1] == 0
    assert t[5, 0] == 0
    assert t.row(3) == (Fraction(0), Fraction(2), Fraction(-3), Fraction(1))
    assert t.row(-1) == t.row(3)
    assert t.size == 3
    # A row reads n + 1 entries even where its polynomial is zero.
    assert CoeffTable(((1,), (0, 0))).row(1) == (0, 0)


def test_stirling_tables_match_reference_values():
    s = stirling_first(8)
    S = stirling_second(8)
    for n in range(9):
        for m in range(n + 1):
            assert s[n, m] == Fraction(
                int(sympy.functions.combinatorial.numbers.stirling(
                    n, m, kind=1, signed=True
                ))
            )
            assert S[n, m] == Fraction(
                int(sympy.functions.combinatorial.numbers.stirling(
                    n, m, kind=2
                ))
            )


def test_first_kind_rows_are_falling_factorial_coefficients():
    # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
    assert stirling_first(4).row(4) == (
        Fraction(0),
        Fraction(-6),
        Fraction(11),
        Fraction(-6),
        Fraction(1),
    )


def test_comtet_tables_generalize_the_classical_ones():
    for n in range(6):
        a = classical(n)
        assert comtet_first(a, n).row(n) == stirling_first(n).row(n)
        assert comtet_second(a, n).row(n) == stirling_second(n).row(n)


@given(alpha_lists)
def test_comtet_first_rows_expand_the_parameter_product(alpha):
    n = len(alpha)
    table = comtet_first(alpha, n)
    assert Polynomial.from_roots(alpha) == Polynomial(table.row(n))


@given(alpha_lists)
def test_signless_rows_expand_the_negated_product(alpha):
    n = len(alpha)
    table = signless_comtet_first(alpha, n)
    signed = comtet_first(alpha, n)
    assert Polynomial(table.row(n)) == Polynomial.from_roots([-a for a in alpha])
    for m in range(n + 1):
        assert table[n, m] == (-1) ** (n - m) * signed[n, m]


def test_signless_is_entrywise_abs_only_for_nonnegative_parameters():
    nonneg = (Fraction(0), Fraction(1, 2), Fraction(3))
    assert (
        signless_comtet_first(nonneg, 3).row(3)
        == comtet_first(nonneg, 3).entrywise_abs().row(3)
    )
    mixed = (Fraction(-1), Fraction(2))
    assert (
        signless_comtet_first(mixed, 2).row(2)
        != comtet_first(mixed, 2).entrywise_abs().row(2)
    )


@given(alpha_lists)
def test_unsigned_inversion_holds_for_every_parameter_choice(alpha):
    check = inversion_check(alpha, len(alpha))
    assert check.unsigned
    assert bool(check)


def test_signed_inversion_variant_fails():
    assert not inversion_check(classical(3), 3).signed
    assert not inversion_check((Fraction(1, 2), Fraction(-2)), 2).signed


@given(alpha_lists)
def test_comtet_tables_are_two_sided_inverses(alpha):
    n = len(alpha)
    first = comtet_first(alpha, n)
    second = comtet_second(alpha, n)
    assert table_product(first, second).is_identity()
    assert table_product(second, first).is_identity()
    assert connection_coeffs(alpha, alpha, n).is_identity()


def test_noncentral_table_collapses_classically():
    assert noncentral_second(classical(4), 4).is_identity()


def test_noncentral_row_against_hand_expansion():
    # (x - 1)(x - 2) = (x)_2 + 0*(x)_1 + ... with x^2 - 3x + 2 = x(x-1) - 2x + 2
    #               = (x)_2 - 2(x)_1 + 2(x)_0.
    table = noncentral_second((1, 2), 2)
    assert table.row(2) == (Fraction(2), Fraction(-2), Fraction(1))


def test_lah_small_values_and_closed_form():
    t = lah_signed(5)
    assert t[1, 1] == -1
    assert t[2, 1] == 2
    assert t[2, 2] == 1
    assert t[3, 2] == -6
    for m in range(6):
        for l in range(m + 1):
            assert t[m, l] == lah_closed_form(m, l)


def test_lah_rows_connect_the_two_falling_factorials():
    # (-x)_m = sum_l L(m, l) (x)_l, checked as polynomials.
    size = 5
    t = lah_signed(size)
    for m in range(size + 1):
        lhs = Polynomial.from_roots([-i for i in range(m)])  # (-1)^m * (-x)_m in x
        lhs = Fraction((-1) ** m) * lhs
        rhs = Polynomial()
        for l in range(m + 1):
            rhs = rhs + t[m, l] * Polynomial.from_roots(range(l))
        assert lhs == rhs


@given(alpha_lists, alpha_lists)
def test_connection_coefficients_compose_to_identity(a, b):
    size = min(len(a), len(b))
    forward = connection_coeffs(a, b, size)
    back = connection_coeffs(b, a, size)
    assert table_product(forward, back).is_identity()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.lists(rationals, min_size=10, max_size=10),
    st.lists(rationals, min_size=10, max_size=10),
)
def test_node_recurrence_matches_the_back_substitution_oracle(size, alpha, beta):
    assert sorted(_ORACLE_BASES) == sorted(TABLE_FAMILIES)
    for family, (build, needs_alpha) in TABLE_FAMILIES.items():
        table = build(alpha, size) if needs_alpha else build(size)
        source, target = _ORACLE_BASES[family](alpha)
        assert _rows(table) == _oracle_connection(source, target, size), family
    mixed = connection_coeffs(alpha, beta, size)
    assert _rows(mixed) == _oracle_connection(
        _multiparam(alpha), _multiparam(beta), size
    )


# Fraction-free kernel: nodes with denominators up to 50, zeros and repeats.
wide_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=50)


@st.composite
def node_lists(draw):
    pool = draw(st.lists(wide_rationals, min_size=1, max_size=3)) + [Fraction(0)]
    node = st.one_of(st.sampled_from(pool), wide_rationals)
    return draw(st.lists(node, min_size=12, max_size=12))


def _hand_built(table, factor):
    """The same entries held over the denominator factor * table.den and the
    row denominators factor * table.q[n]."""
    return CoeffTable(
        tuple(
            tuple(r * factor ** (n - m + 1) for m, r in enumerate(row))
            for n, row in enumerate(table.num)
        ),
        factor * table.den,
        tuple(factor * q for q in table.q),
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12), node_lists(), node_lists())
def test_integer_numerators_over_the_common_denominator(size, alpha, beta):
    builds = [
        (build(alpha, size) if needs_alpha else build(size), family)
        for family, (build, needs_alpha) in TABLE_FAMILIES.items()
    ]
    builds.append((connection_coeffs(alpha, beta, size), "mixed"))
    for table, family in builds:
        if family == "mixed":
            want = _oracle_connection(_multiparam(alpha), _multiparam(beta), size)
        else:
            source, target = _ORACLE_BASES[family](alpha)
            want = _oracle_connection(source, target, size)
        assert table.den >= 1
        assert len(table.q) == size + 1 and all(q >= 1 for q in table.q)
        assert all(isinstance(r, int) for row in table.num for r in row)
        for n, row in enumerate(table.num):
            assert len(row) == n + 1
            for m, r in enumerate(row):
                got = Fraction(r, table.q[n] * table.den ** (n - m))
                assert got == want[n][m], family
            int_row = table.int_row(n)
            # T(n, n) = +-1 keeps the degree n that _times and _bernoulli_row read.
            assert len(int_row.num) == n + 1
            assert [Fraction(c, int_row.den) for c in int_row.num] == list(want[n])
        assert table.int_row(-1) == table.int_row(table.size)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12), node_lists(), st.integers(2, 6))
def test_table_views_agree_across_denominators(size, alpha, factor):
    same = connection_coeffs(alpha, alpha, size)
    identity = connection_coeffs((0,) * size, (0,) * size, size)
    assert identity.den == 1
    assert same.is_identity() and identity.is_identity()
    assert same == identity
    assert hash(same) == hash(identity)
    first, second = comtet_first(alpha, size), comtet_second(alpha, size)
    for table in (first, second, signless_comtet_first(alpha, size)):
        hand = _hand_built(table, factor)
        assert hand.den != table.den
        assert hand == table and hash(hand) == hash(table)
        assert _rows(hand) == _rows(table) and hand[size, 0] == table[size, 0]
        assert hand.entrywise_abs() == table.entrywise_abs()
        assert _rows(hand.entrywise_abs()) == tuple(
            tuple(abs(c) for c in row) for row in _rows(table)
        )
        assert table_product(hand, identity) == table
        assert table_product(identity, hand) == table
        assert hand.is_identity() == table.is_identity()
    assert table_product(_hand_built(first, factor), second).is_identity()
    assert table_product(second, _hand_built(first, factor)).is_identity()
    last = first.num[-1]
    bumped = CoeffTable(
        first.num[:-1] + ((last[0] + 1,) + last[1:],), first.den, first.q
    )
    assert bumped != first and bumped != _hand_built(first, factor)
    # The identity holds T(n, n) = 1 over any row denominator, and only there.
    rows = tuple((0,) * n + (factor,) for n in range(size + 1))
    assert CoeffTable(rows, factor, (factor,) * (size + 1)).is_identity()
    assert not CoeffTable(rows).is_identity()


def test_a_table_holds_only_its_integers():
    # Reading a table builds its Fractions on demand and caches none of them.
    table = comtet_second([Fraction(1, 2), Fraction(-2, 3), 0], 3)
    hand = _hand_built(table, 2)
    assert hand.row(3) == table.row(3) and hand[3, 1] == table[3, 1]
    assert hand == table and hash(hand) == hash(table)
    assert type(table).__slots__ == type(hand).__slots__ == ("num", "den", "q")
    assert not hasattr(table, "__dict__") and not hasattr(hand, "__dict__")


def _linear_factor_bound(pairs, n):
    """prod_{i<n} (|p_i| + q_i): no coefficient of prod_{i<n} (q_i X - p_i)
    exceeds it in absolute value."""
    return math.prod(abs(p) + q for p, q in pairs[:n])


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_rationals, min_size=0, max_size=12))
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
def test_every_kernel_integer_stays_within_its_linear_factors(alpha):
    # Each node brings its own denominator and no other: the integers of the
    # first-kind tables and of the definitions' products are coefficients of
    # prod (q_i X -+ p_i), never scaled by the lcm of all the denominators.
    size = len(alpha)
    pairs = [(a.numerator, a.denominator) for a in alpha]
    for table in (comtet_first(alpha, size), signless_comtet_first(alpha, size)):
        for n, row in enumerate(table.num):
            assert max(map(abs, row)) <= _linear_factor_bound(pairs, n)
            assert math.prod(q for _, q in pairs[:n]) % table.int_row(n).den == 0
    for j, (cs, q) in enumerate(_prefix_products(pairs, range(size + 1))):
        assert max(map(abs, cs)) <= _linear_factor_bound(pairs, j)
        assert q == math.prod(q for _, q in pairs[:j])


def test_connection_preconditions():
    with pytest.raises(PreconditionError):
        connection_coeffs((), (), -1)
    short = "parameter sequence of length 2 cannot form a degree-3 basis element"
    with pytest.raises(PreconditionError, match=short):
        connection_coeffs((1, 2), (0, 0, 0), 3)
    with pytest.raises(PreconditionError, match=short):
        connection_coeffs((0, 0, 0), (1, 2), 3)


def test_explicit_second_kind_matches_the_table():
    alpha = (Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(7, 3))
    table = comtet_second(alpha, 3)
    for n in range(4):
        for m in range(n + 1):
            assert comtet_second_explicit(alpha, n, m) == table[n, m]


def test_explicit_second_kind_needs_distinct_parameters():
    with pytest.raises(PreconditionError):
        comtet_second_explicit((1, 1), 1, 1)
    with pytest.raises(PreconditionError):
        comtet_second_explicit((1,), 2, 1)


def test_table_product_requires_equal_sizes():
    with pytest.raises(PreconditionError):
        table_product(stirling_first(2), stirling_second(3))
