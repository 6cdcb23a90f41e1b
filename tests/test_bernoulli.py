import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_bernoulli_poly_gf_check
from polyfam.algebra import PreconditionError, TruncatedSeries, exp_series
from polyfam.bernoulli import (
    CONVENTIONS,
    _exp_sum,
    classic_poly_bernoulli,
    li_gf_check,
    mp_bernoulli,
    mp_bernoulli_gf_check,
    mp_bernoulli_poly,
)
from polyfam.cauchy import FamilyPoint
from polyfam.harness import ParamPoint, verify
from polyfam.stirling import comtet_second_explicit

SAMPLE = FamilyPoint(
    3, 1, (Fraction(1), Fraction(-2), Fraction(1, 2)), (Fraction(1),)
)


def test_depth_one_collapses_to_the_classical_sequence():
    # The k = 1 members agree with the Bernoulli numbers under the
    # B_1 = +1/2 convention.
    for n in range(9):
        want = Fraction(str(sympy.bernoulli(n) if n != 1 else Fraction(1, 2)))
        assert classic_poly_bernoulli(n, 1) == want


def test_classic_values_match_an_independent_stirling_sum():
    for n in range(7):
        for k in (1, 2, 3):
            want = sum(
                (
                    Fraction((-1) ** (n - m))
                    * math.factorial(m)
                    * Fraction(
                        int(
                            sympy.functions.combinatorial.numbers.stirling(
                                n, m, kind=2
                            )
                        )
                    )
                    / Fraction((m + 1) ** k)
                    for m in range(n + 1)
                ),
                Fraction(0),
            )
            assert classic_poly_bernoulli(n, k) == want


def test_small_anchor_values():
    assert classic_poly_bernoulli(1, 1) == Fraction(1, 2)
    assert classic_poly_bernoulli(2, 1) == Fraction(1, 6)
    assert classic_poly_bernoulli(2, 2) == Fraction(-1, 36)


def test_multiparameter_family_contains_the_classical_one():
    for n in range(5):
        for k in (1, 2):
            point = FamilyPoint(n, k, tuple(range(n)), (1,) * k)
            assert mp_bernoulli(point) == classic_poly_bernoulli(n, k)


def test_conventions_differ_and_are_validated():
    assert set(CONVENTIONS) == {"corrected", "verbatim"}
    assert mp_bernoulli(SAMPLE) == Fraction(7, 3)
    assert mp_bernoulli(SAMPLE, "verbatim") == Fraction(61, 6)
    with pytest.raises(PreconditionError):
        mp_bernoulli(SAMPLE, "folk")
    with pytest.raises(PreconditionError):
        mp_bernoulli_poly(SAMPLE, "folk")


def test_polynomial_reduces_to_the_number_at_zero():
    for convention in CONVENTIONS:
        poly = mp_bernoulli_poly(SAMPLE, convention)
        assert poly(0) == mp_bernoulli(SAMPLE, convention)


def test_polynomial_degree_and_leading_coefficient():
    alpha = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3))
    lengths = (Fraction(2), Fraction(-1, 3))
    prod = Fraction(2) * Fraction(-1, 3)
    for n in range(5):
        poly = mp_bernoulli_poly(FamilyPoint(n, 2, alpha, lengths))
        assert len(poly.num) - 1 == n
        assert poly.coeffs[-1] == (
            Fraction((-1) ** n) * math.factorial(n) * prod
        )


def _complete_homogeneous(degree, values):
    """h_degree(values): the sum of all monomials of that degree."""
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(values, degree):
        total += math.prod(combo, start=Fraction(1))
    return total


def test_polynomial_matches_symbolic_shifted_integrals():
    """Independent route for every z: sum_m (-1)^(n-m) m!^e S_a(n, m) times
    the iterated sympy integral of (x_1...x_k - z)^m, with e = 1 (corrected)
    or 2 (verbatim) and S_a(n, m) = h_(n-m)(a_0, ..., a_m)."""
    z = sympy.Symbol("z")
    alpha = (Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(-3))
    for lengths in ((Fraction(-5, 2),), (Fraction(3, 2), Fraction(-2, 5))):
        k = len(lengths)
        xs = sympy.symbols(f"x0:{k}")
        integrals = []
        for m in range(5):
            integrand = (sympy.prod(xs) - z) ** m
            for x, l in zip(xs, lengths):
                integrand = sympy.integrate(integrand, (x, 0, sympy.Rational(l)))
            integrals.append(integrand)
        for n in range(5):
            for convention, power in (("corrected", 1), ("verbatim", 2)):
                want = sum(
                    (-1) ** (n - m)
                    * math.factorial(m) ** power
                    * sympy.Rational(_complete_homogeneous(n - m, alpha[: m + 1]))
                    * integrals[m]
                    for m in range(n + 1)
                )
                got = mp_bernoulli_poly(FamilyPoint(n, k, alpha, lengths), convention)
                got_expr = sum(
                    sympy.Rational(c) * z**i for i, c in enumerate(got.coeffs)
                )
                assert sympy.expand(want - got_expr) == 0, (n, k, convention)


def test_li_generating_function_check():
    for k in (1, 2, 3):
        lhs, rhs = li_gf_check(k, 6)
        assert lhs == rhs
        # The one-pass right side is the classical values, one by one.
        for order in (0, 1, 2, 6):
            assert li_gf_check(k, order)[1].coeffs == tuple(
                classic_poly_bernoulli(n, k) / math.factorial(n)
                for n in range(order + 1)
            )


def test_number_generating_function_check():
    lhs, rhs = mp_bernoulli_gf_check(FamilyPoint(3, 1, (1, 2, 3, 4), (1,)))
    assert lhs.order == rhs.order == 3
    # The closed form is one sum, taken in the stated order, so the stated
    # reading is the corrected one and the check has one verdict.
    assert lhs == rhs
    point = ParamPoint(3, 1, (1, 2, 3, 4), (1,), series_order=3)
    assert "order" in verify("T4.1", point).note


def _height_20_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


@pytest.mark.parametrize("order", range(8))
def test_exponential_sum_against_the_explicit_second_kind_columns(order):
    # n! [t^n] sum_m w_m sum_{j<=m} e^{-a_j t} / prod_{i<=m, i!=j} (a_j - a_i)
    # is (-1)^n sum_m w_m S_a(n, m), for arbitrary rational weights.
    rng = random.Random(order)
    for _ in range(25):
        head = []
        while len(head) < order + 1:
            a = _height_20_rational(rng)
            if a not in head:
                head.append(a)
        weights = [_height_20_rational(rng) for _ in range(order + 1)]
        series = _exp_sum(head, weights)
        for n in range(order + 1):
            want = (-1) ** n * sum(
                w * comtet_second_explicit(head, n, m) for m, w in enumerate(weights)
            )
            assert math.factorial(n) * series.coefficient(n) == want, (head, n)


def _fraction_exp_sum(head, weights):
    """The reference: _exp_sum as it was when it added one exp_series per
    parameter, scaled by its coefficient c_j, as Fraction series."""
    order = len(weights) - 1
    acc = TruncatedSeries(order, (0,))
    for j, a in enumerate(head):
        denom = math.prod((a - head[i] for i in range(j)), start=Fraction(1))
        coeff = weights[j] / denom
        for m in range(j + 1, order + 1):
            denom *= a - head[m]
            coeff += weights[m] / denom
        acc = acc + exp_series(order, rate=-a) * coeff
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda order: st.tuples(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=6),
                min_size=order + 1,
                max_size=order + 1,
                unique=True,
            ),
            st.lists(
                st.fractions(min_value=-20, max_value=20, max_denominator=30),
                min_size=order + 1,
                max_size=order + 1,
            ),
        )
    )
)
def test_the_integer_exp_sum_matches_the_per_parameter_series(head_weights):
    # Zero and negative parameters, weights over mixed denominators.
    head, weights = head_weights
    assert _exp_sum(head, weights) == _fraction_exp_sum(head, weights)


def test_number_generating_function_needs_distinct_parameters():
    with pytest.raises(PreconditionError):
        mp_bernoulli_gf_check(FamilyPoint(3, 1, (1, 1, 2, 3), (1,)))
    with pytest.raises(PreconditionError):
        mp_bernoulli_gf_check(FamilyPoint(3, 1, (1, 2, 3), (1,)))


def test_the_T41_sweep_refuses_a_box_that_does_not_have_k_lengths():
    # The sweep hands T4.1 one FamilyPoint, whose own check names the box.
    report = verify("T4.1", ParamPoint(2, 2, (1, 2, 3), (1,), series_order=2))
    assert (report.verbatim, report.corrected) == ("NA", "NA")
    assert report.note == "precondition violated: expected 2 box lengths, got 1"


def test_the_T41_note_counts_the_order_plus_one_parameters_it_needs():
    # Order 6 reads seven distinct parameters, one more than a FamilyPoint of
    # index 6 asks for.
    report = verify("T4.1", ParamPoint(2, 1, (1, 2), (1,), series_order=6))
    assert (report.verbatim, report.corrected) == ("NA", "NA")
    assert report.note == (
        "precondition violated: need 7 parameters for the generating function, "
        "got 2"
    )


def test_polynomial_generating_function_check():
    chk = mp_bernoulli_poly_gf_check((1, 2, 3, 4), (1,), 1, Fraction(1, 2), 3)
    assert chk.lhs == chk.rhs
    # The stated closed form drops the factorial weight, so it only matches
    # through the linear term.
    assert chk.lhs != chk.verbatim_rhs
    assert chk.lhs.truncated(1) == chk.verbatim_rhs.truncated(1)


def test_polynomial_generating_function_with_two_variables():
    chk = mp_bernoulli_poly_gf_check(
        (1, 2, 3, Fraction(9, 2)), (Fraction(1), Fraction(1, 2)), 2, 1, 3
    )
    assert chk.lhs == chk.rhs
