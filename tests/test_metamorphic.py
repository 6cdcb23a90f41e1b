"""Metamorphic relations as route oracles.

Each property checks a route against itself at a transformed point, with no
second implementation, so a fault that two routes share still shows
(Chen, Cheung and Yiu, HKUST-CS98-01, 1998; Segura et al., IEEE TSE 42(9),
2016). The points follow the adversarial law of
`test_the_corrected_reading_holds_or_names_its_precondition`: repeated
parameters, zeros, heights up to 10^30 and negative lengths. A route that
refuses a point must refuse its image with the same message.

- R1: the Cauchy types depend on the parameters only through their multiset,
  so permuting alpha leaves their ten routes unchanged. The Bernoulli types
  read a_0..a_m in order, and are left out.
- R2: the box enters through the product of its lengths, so (l_1, ..., l_k)
  and (l_1...l_k, 1, ..., 1) give every route the same value.
- R3: a polynomial at z is a number at shifted parameters: the first kind's
  at alpha + z and the second kind's at alpha - z.
- R4: R1 carried to the sweep: permuting alpha leaves the whole report
  (verdicts, lhs, rhs and note) of every identity that reads only Cauchy-type
  values unchanged, a single-integral case at k = 1 with the first length.
  CASES-2 and CASES-3 read no alpha. The T4, C4 and T5.2 ids read the
  Bernoulli types, and are left out.
- R5: scaling, the one relation that also binds the Bernoulli types. For
  c != 0, a route at c alpha and the box (c l_1, l_2, ..., l_k) is c^(n+1)
  times the route at alpha and (l_1, ..., l_k): put x_1 = c y_1 in the box
  integral, or read S_a(n, m) as homogeneous of degree n - m in a. A
  polynomial is read at c z against the other at z. It holds for all twelve
  routes, and for both Bernoulli-type routes under either convention.
"""

import functools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import polyfam
from polyfam.algebra import Polynomial, PreconditionError
from polyfam.cauchy import (
    FamilyPoint,
    mp_first_closed,
    mp_poly_first,
    mp_poly_second,
    mp_second_lah,
)
from polyfam.harness import ParamPoint, verify
from test_harness import K1_ONLY, _adversarial_points

CAUCHY_ROUTES = (
    "mp_first_def",
    "mp_first_closed",
    "mp_first_noncentral",
    "mp_first_via_polycauchy",
    "mp_first_bell",
    "mp_second_def",
    "mp_second_closed",
    "mp_second_lah",
    "mp_poly_first",
    "mp_poly_second",
)
ROUTES = CAUCHY_ROUTES + ("mp_bernoulli", "mp_bernoulli_poly")


def _family_point(case):
    """The FamilyPoint of an adversarial case's ParamPoint."""
    p = case[1]
    return FamilyPoint(p.n, p.k, p.alpha, p.lengths)


_points = _adversarial_points().map(_family_point)
# R3 takes the law's sample point z0 as its z, so only cases that draw one.
_shifts = (
    _adversarial_points()
    .filter(lambda case: case[1].z0 is not None)
    .map(lambda case: (_family_point(case), case[1].z0))
)

_BUDGET = settings(max_examples=200, deadline=None, derandomize=True)


def _outcome(route, point):
    """The route's value at the point, or the precondition it names."""
    try:
        return route(point)
    except PreconditionError as exc:
        return f"precondition violated: {exc}"


def _outcomes(names, point):
    return {name: _outcome(getattr(polyfam, name), point) for name in names}


@_BUDGET
@given(_points, st.data())
def test_permuting_the_parameters_leaves_the_cauchy_routes_unchanged(p, data):
    permuted = FamilyPoint(p.n, p.k, data.draw(st.permutations(p.alpha)), p.lengths)
    assert _outcomes(CAUCHY_ROUTES, permuted) == _outcomes(CAUCHY_ROUTES, p)


@_BUDGET
@given(_points)
def test_the_box_enters_through_the_product_of_its_lengths(p):
    lengths = (math.prod(p.lengths),) + (Fraction(1),) * (p.k - 1)
    folded = FamilyPoint(p.n, p.k, p.alpha, lengths)
    assert _outcomes(ROUTES, folded) == _outcomes(ROUTES, p)


@_BUDGET
@given(_shifts)
def test_a_polynomial_at_z_is_a_number_at_shifted_parameters(shift):
    p, z = shift
    up = FamilyPoint(p.n, p.k, [a + z for a in p.alpha], p.lengths)
    down = FamilyPoint(p.n, p.k, [a - z for a in p.alpha], p.lengths)
    assert mp_poly_first(p)(z) == mp_first_closed(up)
    assert mp_poly_second(p)(z) == mp_second_lah(down)


CAUCHY_IDS = (
    "T2.1 C2.1 T2.2 C2.2 T2.3 T2.4 T3.1 C3.1 T3.2 C3.2 T5.1a T5.1b C5.1a C5.1b "
    "CASES-2 CASES-3"
).split()


def _report(identity, pt):
    report = verify(identity, pt)
    return report.verbatim, report.corrected, report.lhs, report.rhs, report.note


@settings(max_examples=350, deadline=None, derandomize=True)
@given(st.sampled_from(CAUCHY_IDS), _adversarial_points(), st.data())
def test_permuting_the_parameters_leaves_the_cauchy_reports_unchanged(
    identity, case, data
):
    pt = case[1]
    # The law draws its own id: a single-integral case gets the first length.
    lengths = pt.lengths[:1] if identity in K1_ONLY else pt.lengths
    pt = ParamPoint(pt.n, len(lengths), pt.alpha, lengths, pt.z0, pt.q, pt.series_order)
    alpha = data.draw(st.permutations(pt.alpha))
    permuted = ParamPoint(pt.n, pt.k, alpha, pt.lengths, pt.z0, pt.q, pt.series_order)
    assert _report(identity, permuted) == _report(identity, pt)


# Every route, and the Bernoulli-type routes once more under the verbatim
# convention.
SCALED_ROUTES = {name: getattr(polyfam, name) for name in ROUTES} | {
    f"{name} verbatim": functools.partial(getattr(polyfam, name), convention="verbatim")
    for name in ("mp_bernoulli", "mp_bernoulli_poly")
}


def _unscaled(outcome, c, n):
    """A route's outcome at the scaled point brought back to the point: a
    number over c^(n+1), a polynomial read at c z over c^(n+1), a refusal as
    it is."""
    if isinstance(outcome, str):
        return outcome
    if isinstance(outcome, Polynomial):
        outcome = Polynomial(a * c**i for i, a in enumerate(outcome.coeffs))
    return outcome * (1 / c ** (n + 1))


@_BUDGET
@given(
    _points,
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
)
def test_scaling_the_parameters_and_one_length_scales_every_route(p, c):
    lengths = (c * p.lengths[0],) + p.lengths[1:]
    scaled = FamilyPoint(p.n, p.k, [c * a for a in p.alpha], lengths)
    for name, route in SCALED_ROUTES.items():
        image = _unscaled(_outcome(route, scaled), c, p.n)
        assert image == _outcome(route, p), name
