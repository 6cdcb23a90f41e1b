import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam.algebra import Polynomial, PreconditionError, _prefix_products
from polyfam.cli import TABLE_FAMILIES
from polyfam.stirling import (
    CoeffTable,
    _rebase,
    _row,
    _rows,
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
)

from oracles import _times_by_hand, table_product

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)
alpha_lists = st.lists(rationals, min_size=0, max_size=5)


def classical(n):
    return tuple(Fraction(i) for i in range(n))


def identity(size):
    return connection_coeffs((0,) * size, (0,) * size, size)


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


def _entries(table):
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
    assert t.size == 3
    # A row reads n + 1 entries even where its polynomial is zero.
    assert CoeffTable((Polynomial.over((1,)), Polynomial())).row(1) == (0, 0)


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
    assert signless_comtet_first(nonneg, 3).row(3) == tuple(
        map(abs, comtet_first(nonneg, 3).row(3))
    )
    mixed = (Fraction(-1), Fraction(2))
    assert signless_comtet_first(mixed, 2).row(2) != tuple(
        map(abs, comtet_first(mixed, 2).row(2))
    )


@given(alpha_lists)
def test_unsigned_inversion_holds_for_every_parameter_choice(alpha):
    assert inversion_check(alpha, len(alpha)) is True


def _signed_product_is_identity(alpha, size):
    """Whether sum_j (-1)^(j-i) s(n, j) S(j, i) is the identity, summed from
    the two generalized tables' entries."""
    first, second = comtet_first(alpha, size), comtet_second(alpha, size)
    return all(
        sum((-1) ** (j - i) * first[n, j] * second[j, i] for j in range(i, n + 1))
        == (n == i)
        for n in range(size + 1)
        for i in range(n + 1)
    )


def test_signed_inversion_variant_fails():
    assert not _signed_product_is_identity(classical(3), 3)
    assert not _signed_product_is_identity((Fraction(1, 2), Fraction(-2)), 2)


@given(alpha_lists)
def test_comtet_tables_are_two_sided_inverses(alpha):
    n = len(alpha)
    first = comtet_first(alpha, n)
    second = comtet_second(alpha, n)
    unit = _entries(identity(n))
    assert _entries(table_product(first, second)) == unit
    assert _entries(table_product(second, first)) == unit
    assert _entries(connection_coeffs(alpha, alpha, n)) == unit


def test_noncentral_table_collapses_classically():
    assert noncentral_second(classical(4), 4) == identity(4)


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
    assert table_product(forward, back) == identity(size)


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
        assert _entries(table) == _oracle_connection(source, target, size), family
    mixed = connection_coeffs(alpha, beta, size)
    assert _entries(mixed) == _oracle_connection(
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
    """The same entries, each row given as its integers times factor over its
    denominator times factor."""
    return CoeffTable(
        Polynomial.over((c * factor for c in row.num), row.den * factor)
        for row in table.rows
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
        # Each row is integers over one denominator, in Polynomial's
        # canonical form.
        assert len(table.rows) == size + 1
        for n, row in enumerate(table.rows):
            assert type(row) is Polynomial and row.den >= 1
            assert all(type(r) is int for r in row.num)
            assert math.gcd(row.den, *row.num) == 1
            # T(n, n) = +-1 keeps the degree n that _bernoulli_row reads.
            assert len(row.num) == n + 1
            assert [Fraction(c, row.den) for c in row.num] == list(want[n]), family


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12), node_lists(), st.integers(2, 6))
def test_table_views_agree_across_denominators(size, alpha, factor):
    same, unit = connection_coeffs(alpha, alpha, size), identity(size)
    assert all(row.den == 1 for row in unit.rows)
    assert _entries(same) == _entries(unit)
    first, second = comtet_first(alpha, size), comtet_second(alpha, size)
    for table in (first, second, signless_comtet_first(alpha, size)):
        # Rows given at another scale are held canonical: the same record.
        hand = _hand_built(table, factor)
        assert hand == table
        assert _entries(hand) == _entries(table) and hand[size, 0] == table[size, 0]
        assert tuple(tuple(map(abs, hand.row(n))) for n in range(size + 1)) == tuple(
            tuple(abs(c) for c in row) for row in _entries(table)
        )
        assert _entries(table_product(hand, unit)) == _entries(table)
        assert _entries(table_product(unit, hand)) == _entries(table)
    assert _entries(table_product(_hand_built(first, factor), second)) == _entries(unit)
    assert _entries(table_product(second, _hand_built(first, factor))) == _entries(unit)
    last = first.rows[-1]
    bumped = CoeffTable(first.rows[:-1] + (last + Polynomial.over((1,), last.den),))
    assert _entries(bumped) != _entries(first)
    assert _entries(bumped) != _entries(_hand_built(first, factor))
    # The identity holds T(n, n) = 1 over any row denominator, and only there.
    rows = [(0,) * n + (factor,) for n in range(size + 1)]
    over = CoeffTable(Polynomial.over(row, factor) for row in rows)
    assert over == unit and _entries(over) == _entries(unit)
    assert _entries(CoeffTable(map(Polynomial.over, rows))) != _entries(unit)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    node_lists(),
    node_lists(),
    st.lists(wide_rationals, min_size=9, max_size=9),
)
@example(
    3,
    [Fraction(1, 2), Fraction(-2, 3), 5] * 4,
    [0, Fraction(3, 4), Fraction(3, 4)] * 4,
    [Fraction(1, 3), -7] * 4 + [1],
)
def test_rebase_is_the_row_vector_times_the_table(size, alpha, beta, coeffs):
    # First kind, second kind, non-central, rising to falling, and mixed.
    zeros, falling, rising = (0,) * size, range(size), range(0, -size, -1)
    pairs = (
        (alpha, zeros),
        (zeros, alpha),
        (alpha, falling),
        (rising, falling),
        (alpha, beta),
    )
    for source, target in pairs:
        table = connection_coeffs(source, target, size)
        # Full degree, a lower degree, and the zero row.
        for row in (coeffs[: size + 1], coeffs[:size], ()):
            row = Polynomial(row)
            assert _rebase(row, source, target) == _times_by_hand(table, row)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=41),
    st.integers(min_value=1, max_value=10**6),
)
@example(40, [3**40 - m for m in range(41)], 7)
def test_rebase_is_the_row_times_the_classical_tables(size, ints, den):
    # Falling factorials to monomials is the classical first-kind table, and
    # the (-1)^m-signed rising row to falling factorials the signed Lah table.
    row = Polynomial.over(ints[: size + 1], den)
    signs = (-c if m % 2 else c for m, c in enumerate(row.num))
    signed = Polynomial.over(signs, row.den)
    falling, rising = range(size), range(0, -size, -1)
    first, lah = stirling_first(size), lah_signed(size)
    assert _rebase(row, falling, (0,) * size) == _times_by_hand(first, row)
    assert _rebase(signed, rising, falling) == _times_by_hand(lah, row)


@pytest.mark.parametrize("size", [0, 1, 40])
def test_rebase_maps_the_zero_row_to_zero(size):
    zero = Polynomial()
    assert _rebase(zero, range(size), (0,) * size) == zero
    assert _rebase(zero, range(0, -size, -1), range(size)) == zero


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=8), node_lists(), node_lists())
@example(
    6,
    [Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7)] * 3,
    [Fraction(3, 4), 0, Fraction(-5, 6)] * 4,
)
def test_every_read_of_a_table_is_its_int_row(size, alpha, beta):
    # Every builder, at rational nodes where it takes any: an entry, a row
    # and the polynomial row agree, and a row outside 0..size is an
    # IndexError, never a wrapped row.
    tables = (
        comtet_first(alpha, size),
        comtet_second(alpha, size),
        signless_comtet_first(alpha, size),
        noncentral_second(alpha, size),
        stirling_first(size),
        stirling_second(size),
        lah_signed(size),
        connection_coeffs(alpha, beta, size),
    )
    for table in tables:
        for n in range(size + 1):
            row, int_row = table.row(n), table.int_row(n)
            assert len(row) == n + 1
            for m in range(n + 1):
                assert table[n, m] == int_row.coefficient(m) == row[m]
        for n in (-1, size + 1):
            with pytest.raises(IndexError):
                table.int_row(n)
            with pytest.raises(IndexError):
                table.row(n)


def test_a_table_holds_only_its_integers():
    # A table holds one field, its rows, each integers over one denominator;
    # reading it builds its Fractions on demand and caches none of them.
    table = comtet_second([Fraction(1, 2), Fraction(-2, 3), 0], 3)
    hand = _hand_built(table, 2)
    assert hand.row(3) == table.row(3) and hand[3, 1] == table[3, 1]
    assert _entries(hand) == _entries(table)
    assert type(table).__slots__ == ("rows",)
    assert len(table.rows) == 4 and all(type(r) is Polynomial for r in table.rows)
    assert not hasattr(table, "__dict__") and not hasattr(hand, "__dict__")


# Rational, zero and repeated nodes, integer ones among them for the
# recurrence's q = 1 step.
_MIXED_NODES = [
    Fraction(1, 2), 0, Fraction(-2, 3), Fraction(1, 2), 3, Fraction(5, 7)
] * 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    node_lists(),
    node_lists(),
    st.lists(st.integers(min_value=0, max_value=10), max_size=6),
)
@example(7, _MIXED_NODES, _MIXED_NODES[::-1], [7])
@example(7, _MIXED_NODES, _MIXED_NODES[::-1], [0, 2, 3, 7])
@example(7, _MIXED_NODES, _MIXED_NODES[::-1], [5, 0, 3])
@example(7, _MIXED_NODES, _MIXED_NODES[::-1], [4, 4, 1, 4])
@example(0, _MIXED_NODES, _MIXED_NODES, [])
def test_rows_reads_the_oracle_rows_asked_for(size, alpha, beta, picks):
    # One row, ascending, out-of-order and repeated row lists, each row read
    # in the order asked for, at the routes' three node pairs and a mixed one.
    rows = [j % (size + 1) for j in picks]
    zeros = [0] * size
    negated = [-a for a in alpha]
    for source, target in (
        (alpha, zeros),
        (negated, zeros),
        (zeros, alpha),
        (alpha, beta),
    ):
        want = _oracle_connection(_multiparam(source), _multiparam(target), size)
        got = _rows(source, target, size, rows)
        assert len(got) == len(rows)
        for n, row in zip(rows, got):
            assert len(row.num) == n + 1 and row == Polynomial(want[n])
        for outside in (-1, size + 1):
            with pytest.raises(IndexError):
                _rows(source, target, size, rows + [outside])


def test_rows_keeps_the_connection_preconditions():
    short = "parameter sequence of length 2 cannot form a degree-3 basis element"
    with pytest.raises(PreconditionError):
        _rows((), (), -1, ())
    with pytest.raises(PreconditionError, match=short):
        _rows((1, 2), (0, 0, 0), 3, (3,))
    with pytest.raises(PreconditionError, match=short):
        _rows((0, 0, 0), (1, 2), 3, (0,))


def _linear_factor_bound(pairs, n):
    """prod_{i<n} (|p_i| + q_i): no coefficient of prod_{i<n} (q_i X - p_i)
    exceeds it in absolute value."""
    return math.prod(abs(p) + q for p, q in pairs[:n])


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_rationals, min_size=0, max_size=12))
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
def test_every_kernel_integer_stays_within_its_linear_factors(alpha):
    # Each node brings its own denominator and no other: the integers of the
    # first-kind rows (in lowest terms) and of the definitions' products stay
    # within the coefficients of prod (q_i X -+ p_i), never scaled by the lcm
    # of all the denominators.
    size = len(alpha)
    pairs = [(a.numerator, a.denominator) for a in alpha]
    for table in (comtet_first(alpha, size), signless_comtet_first(alpha, size)):
        for n, row in enumerate(table.rows):
            assert max(map(abs, row.num)) <= _linear_factor_bound(pairs, n)
            assert math.prod(q for _, q in pairs[:n]) % row.den == 0
    for j, (cs, q) in enumerate(_prefix_products(pairs, range(size + 1))):
        assert max(map(abs, cs)) <= _linear_factor_bound(pairs, j)
        assert q == math.prod(q for _, q in pairs[:j])


def _routes_large_alpha():
    # The 40 parameters of perfbench's seed-0 routes-large point: nonzero
    # rationals of height at most 20, drawn first from the seeded stream.
    rng, alpha = random.Random("routes-large:0"), []
    while len(alpha) < 40:
        value = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if value:
            alpha.append(value)
    return alpha


def test_the_fraction_free_loops_hand_over_integers_within_their_factors(
    monkeypatch,
):
    # The integers `_rows` and `_row` hand to Polynomial.over, before it
    # reduces them, at the routes-large point: each node brings its own
    # denominator only, so none exceeds prod (|p_i| + q_i), 155 bits here
    # (the largest reads 138). Scaling each step by the lcm of all the
    # denominators would hand over 1104-bit integers.
    alpha, n = _routes_large_alpha(), 40
    bound = _linear_factor_bound([a.as_integer_ratio() for a in alpha], n)
    over, handed = Polynomial.over.__func__, []

    def spy(cls, num, den=1):
        num = list(num)
        handed.extend((*num, den))
        return over(cls, num, den)

    monkeypatch.setattr(Polynomial, "over", classmethod(spy))
    zeros = (0,) * n
    rows = _rows(alpha, zeros, n, (n,)) + [_row(alpha, zeros, n)]
    assert rows[0] == rows[1] and len(rows[0].num) == n + 1
    largest = max(map(abs, handed))
    assert largest <= bound, (largest.bit_length(), bound.bit_length())


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


def test_rebase_refuses_a_row_longer_than_its_nodes():
    row = stirling_second(3).int_row(3)
    short = "parameter sequence of length 2 cannot form a degree-3 basis element"
    for nodes in (((0, 0), range(3)), (range(3), (0, 0))):
        with pytest.raises(PreconditionError, match=short):
            _rebase(row, *nodes)
