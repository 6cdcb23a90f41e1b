"""Mutation matrix: a sweep cannot pass over a broken kernel.

Each case plants one fault in the library, bound wherever the faulty name is
bound (every module of the package, or the class that owns a method). Every
fault is in code that feeds a corrected column, and it lists the ids that
the default-grid `sweep()` of the whole catalog at seed 0 then reports as a
corrected FAIL: all of them, so that a change which blinds the sweep to the
fault on any one id shows. With no fault there is none
(`test_a_sweep_with_no_fault_reads_no_corrected_fail` in
tests/test_harness.py). This is mutation analysis (DeMillo, Lipton and
Sayward, IEEE Computer 1978; Jia and Harman, IEEE TSE 2011) with
hand-written mutants.

`NOT_SEEN_BY_THE_SWEEP` names the faults the sweep is not expected to catch,
each with the Tier-1 test that does.
"""

import contextlib
import importlib
import io
import math
from fractions import Fraction
from pathlib import Path

import pytest

import polyfam
from polyfam import algebra, bernoulli, cauchy, cli, harness, stirling, transforms
from polyfam.algebra import Polynomial, TruncatedSeries
from polyfam.harness import FAIL, sweep
from polyfam.stirling import CoeffTable

from test_independence import SHARED

MODULES = (algebra, stirling, cauchy, bernoulli, transforms, harness, cli, polyfam)


def _inject(monkeypatch, owner, name, make, modules=MODULES):
    """Bind make(real) in place of owner.name: on the class for a method,
    else under every name of every module that binds the function."""
    real = getattr(owner, name)
    fake = make(real)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, fake)
        return
    for module in modules:
        for bound, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, bound, fake)


def _failed(reports):
    return {r.identity for r in reports if r.corrected == FAIL}


# --- L0: arithmetic -------------------------------------------------------


def _exp_series_factorial_off_by_one(real):
    # Coefficient m is rate^m / (m-1)!.
    def fake(order, rate=1):
        coeffs = real(order, rate).coeffs
        return TruncatedSeries(order, [c * max(m, 1) for m, c in enumerate(coeffs)])

    return fake


def _egf_factorial_off_by_one(real):
    # Coefficient m is values[m] / (m-1)! in place of values[m] / m!.
    def fake(order, values):
        coeffs = real(order, values).coeffs
        return TruncatedSeries(order, [c * max(m, 1) for m, c in enumerate(coeffs)])

    return fake


def _log1p_last_term_dropped(real):
    # The loop stops one short: the t^order coefficient is zero.
    return lambda order: TruncatedSeries(order, real(order).coeffs[:order])


def _compose_constant_dropped(real):
    # Horner's scheme forgets the outer series' constant term.
    return lambda self, inner: real(self, inner) + (-self.coeffs[0])


def _truncation_one_short(real):
    # The prefix is cut at t^(order-1): the t^order coefficient is lost.
    def fake(cls, order, poly):
        return real(order, Polynomial.over(poly.num[:order], poly.den))

    return classmethod(fake)


def _truncation_one_long(real):
    # The prefix keeps t^(order+1) as well, under the same order.
    def fake(cls, order, poly):
        series = cls.__new__(cls)
        series._set(order, Polynomial.over(poly.num[: order + 2], poly.den))
        return series

    return classmethod(fake)


def _horner_unreversed(real):
    # Horner's scheme run from the constant term: the reversed polynomial.
    def fake(self, point):
        x, acc = Fraction(point), Fraction(0)
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    return fake


def _antiderivative_divisor_off_by_one(real):
    # Coefficient c_i becomes c_i / i in place of c_i / (i + 1), for i >= 1.
    return lambda self: Polynomial(
        [Fraction(0)] + [c / max(i, 1) for i, c in enumerate(self.coeffs)]
    )


def _gcd_skipped(real):
    # Trailing zeros are stripped and the denominator made positive, but
    # numerators and denominator are not divided by their gcd, so the form
    # is no longer canonical.
    def fake(num, den):
        while num and not num[-1]:
            num.pop()
        return (tuple(num), den) if den > 0 else (tuple(-c for c in num), -den)

    return fake


def _from_roots_wrong_power(real):
    # Coefficient m over D^(n-m-1) in place of D^(n-m), D the lcm of the
    # roots' denominators: every integer of the product D times too large.
    def fake(cls, roots):
        pairs = [(r.numerator, r.denominator) for r in map(Fraction, roots)]
        d = math.lcm(*(q for _, q in pairs))
        ((cs, q),) = algebra._prefix_products(pairs, (len(pairs),))
        return Polynomial.over((c * d for c in cs), q)

    return classmethod(fake)


def _prefix_products_sign_slip(real):
    # The integer kernel multiplies by q_i X + p_i in place of q_i X - p_i.
    return lambda roots, rows: real([(-p, q) for p, q in roots], rows)


def _prefix_products_unit_denominators(real):
    # The per-node denominators are dropped: every q_i is read as 1, so the
    # kernel multiplies by X - p_i in place of q_i X - p_i.
    return lambda roots, rows: real([(p, 1) for p, _ in roots], rows)


# --- L1: triangles --------------------------------------------------------


def _rows_target_off_by_one(real):
    # Column m reads target node m-1: b_0, b_0, b_1, ... in place of b_0, b_1, ...
    def fake(source, target, size, rows):
        b = tuple(target)
        return real(source, b[:1] + b[:-1], size, rows)

    return fake


def _rows_source_off_by_one(real):
    # Row n + 1 reads source node n-1: a_0, a_0, a_1, ... in place of a_0, a_1, ...
    def fake(source, target, size, rows):
        a = tuple(source)
        return real(a[:1] + a[:-1], target, size, rows)

    return fake


def _rows_wrong_power(real):
    # The decode scales numerator m by D^(n-m) in place of D^m, with row n
    # read as the integers D^(n-m) T(n, m) over one denominator D, the lcm of
    # the source and target nodes' denominators: coefficient m becomes
    # T(n, m) D^(n-2m).
    def fake(source, target, size, rows):
        a, b = tuple(source)[:size], tuple(target)[:size]
        d = Fraction(math.lcm(*(Fraction(x).denominator for x in a + b)))
        return [
            Polynomial(row.coefficient(m) * d ** (n - 2 * m) for m in range(n + 1))
            for n, row in zip(rows, real(a, b, size, rows))
        ]

    return fake


def _rebase_source_off_by_one(real):
    # Horner step m reads source node m-1: a_0, a_0, a_1, ... in place of
    # a_0, a_1, ...
    def fake(row, source, target):
        a = tuple(source)
        return real(row, a[:1] + a[:-1], target)

    return fake


def _rebase_target_off_by_one(real):
    # Column l reads target node l-1: b_0, b_0, b_1, ... in place of
    # b_0, b_1, ...
    def fake(row, source, target):
        b = tuple(target)
        return real(row, source, b[:1] + b[:-1])

    return fake


def _row_unit_carries_the_row_below(real):
    # The unit row is X^n + X^(n-1): row n reads as row n plus row n-1.
    def fake(source, target, n):
        row = real(source, target, n)
        return row + real(source, target, n - 1) if n else row

    return fake


# --- L2: routes -----------------------------------------------------------


def _first_length_only(real):
    # The box moments of the first edge alone.
    return lambda lengths, size: real(
        tuple(lengths[:1]) + (1,) * (len(lengths) - 1), size
    )


def _doubled_mu1(real):
    def fake(lengths, size):
        mu = real(lengths, size)
        num = (2 * v if m == 1 else v for m, v in enumerate(mu.num))
        return Polynomial.over(num, mu.den)

    return fake


def _box_integral_first_variable_only(real):
    # The definitions integrate over x_1 alone.
    return lambda nums, dens, lengths: real(nums, dens, lengths[:1])


def _pair_shifted(real):
    # row[m] paired with mu_(m+1).
    return lambda row, moments: Fraction(
        sum(a * b for a, b in zip(row.num, moments.num[1:])), row.den * moments.den
    )


def _poly_from_row_sign_slip(real):
    # The (-1)^i of the shifted moments is dropped: the polynomial at -z.
    return lambda row, moments: Polynomial(
        (-1) ** i * c for i, c in enumerate(real(row, moments).coeffs)
    )


def _bernoulli_row_sign_slip(real):
    # (-1)^m in place of (-1)^(n-m).
    def fake(row, convention="corrected"):
        out = real(row, convention)
        sign = (-1) ** (len(row.num) - 1)
        return Polynomial.over((sign * c for c in out.num), out.den)

    return fake


def _exp_sum_weights_shifted(real):
    # Column m weighted by w_(m-1).
    return lambda head, weights: real(head, list(weights[:1]) + list(weights[:-1]))


def _exp_sum_power_off_by_one(real):
    # The body of _exp_sum with the power sums one step ahead: the t^r
    # coefficient reads sum_j C_j (-A_j)^(r+1) in place of sum_j C_j (-A_j)^r.
    def fake(head, weights):
        order = len(weights) - 1
        coeffs = [
            sum(
                weights[m] / math.prod(a - head[i] for i in range(m + 1) if i != j)
                for m in range(j, order + 1)
            )
            for j, a in enumerate(head)
        ]
        powers, e = algebra._over_lcm(coeffs)
        rates, d = algebra._over_lcm([-a for a in head])
        num = []
        for r in range(order + 1):
            powers = [c * x for c, x in zip(powers, rates)]
            num.append(sum(powers) * d ** (order - r) * math.perm(order, order - r))
        poly = Polynomial.over(num, e * d**order * math.factorial(order))
        return TruncatedSeries._of(order, poly)

    return fake


def _power_sums_from_zero(real):
    # N_0, ..., N_(order-1) in place of N_1, ..., N_order.
    def fake(head, order):
        lcm, sums = real(head, order)
        return lcm, ([len(head)] + sums)[:order]

    return fake


def _newton_sum_off_by_one(real):
    # The inner sum of m Q_m = -sum_{j<=m} N_j Q_(m-j) stops at j = m - 1.
    def fake(sums):
        q = [1]
        for m in range(1, len(sums) + 1):
            q.append(-sum(s * x for s, x in zip(sums[: m - 1], reversed(q))) // m)
        return q

    return fake


def _classic_first_off_at_two(real):
    # C_2 is one too large.
    def fake(moments, n):
        out = real(moments, n)
        return out + Polynomial((0, 0, 1)) if n >= 2 else out

    return fake


def _lah_sign_dropped(real):
    # The body of _lah_values without the (-1)^m of the Lah row: the
    # non-central row moves from the rising to the falling basis unsigned.
    def fake(p, boxes):
        row = stirling._row(p.alpha[: p.n], range(p.n), p.n)
        row = stirling._rebase(row, range(0, -p.n, -1), range(p.n))
        moments = (algebra.box_moments(b, p.n) for b in boxes)
        return [
            cauchy._pair(row, cauchy._classic_first_values(mu, p.n)) for mu in moments
        ]

    return fake


def _specialize_k_dropped(real):
    # The sugar forgets k and integrates over one variable.
    return lambda family, kind, n, k=1, q=None, lengths=None: real(
        family, kind, n, 1 if family == "poly" else k, q, lengths
    )


def _specialize_den_q_dropped(real):
    # The kernel reads the parameters i num(q) over 1 in place of den(q).
    return lambda family, kind, n, k=1, q=None, lengths=None: real(
        family, kind, n, k, None if q is None else Fraction(q).numerator, lengths
    )


def _shift_sign_slip(real):
    # The definitions' kernel shifts every parameter by -sign z in place of
    # sign z (at z = 0, the definitions themselves, nothing changes).
    return lambda sign, p, rows, z=0: real(sign, p, rows, -z)


def _value_off_at_two(real):
    # One too large at n = 2.
    return lambda n, k: real(n, k) + (n == 2)


def _lif_factorial_off_by_one(real):
    # Coefficient m over m! m in place of m!, for m >= 1.
    return lambda k, order: TruncatedSeries(
        order, [c / max(m, 1) for m, c in enumerate(real(k, order).coeffs)]
    )


def _row_shifted(*slice_):
    # Row j of one slice of a one-pass kernel, named by its leading
    # arguments (a table kernel's pairing, then a Cauchy kind's sign), is the
    # value at j + 1: right at row n, which is all a public route reads, and
    # wrong below it. The other slices' rows are untouched.
    def make(real):
        def fake(*args):
            head, (p, rows, *z) = args[: len(slice_)], args[len(slice_) :]
            if head != slice_:
                return real(*args)
            values = real(*head, p, range(p.n + 1), *z)
            return [values[min(j + 1, p.n)] for j in rows]

        return fake

    make.__name__ = "row_shifted"
    return make


def _misaligned(pairing):
    # In one pairing's slice of the Bernoulli-type kernel, row j paired with
    # mu_(n-j), ..., mu_n of the size-n moments: right for row n and wrong
    # below it. The other pairing's rows are untouched.
    def make(real):
        def kernel(sliced, p, rows, convention="corrected"):
            if sliced is not pairing:
                return real(sliced, p, rows, convention)
            read = stirling._rows((0,) * p.n, p.alpha[: p.n], p.n, rows)
            mu = algebra.box_moments(p.lengths, p.n)
            return [
                pairing(
                    bernoulli._bernoulli_row(row, convention),
                    Polynomial.over(mu.num[p.n - j :], mu.den),
                )
                for j, row in zip(rows, read)
            ]

        return kernel

    make.__name__ = f"misaligned_{pairing.__name__.strip('_')}"
    return make


def _kind_sign_dropped(real):
    # The number slice of the closed forms' kernel leaves out sign^j for the
    # second kind: mp_second_closed pairs the signless row n without the
    # (-1)^n that the negated variable brings.
    def fake(pairing, sign, p, rows):
        values = real(pairing, sign, p, rows)
        if pairing is not cauchy._pair or sign > 0:
            return values
        return [sign**j * v for j, v in zip(rows, values)]

    return fake


# --- Expansion sums: transforms, read by the harness ----------------------


def _expand_index_sign_dropped(real):
    # The (-1)^(e_j j) factor of the expansion weights is dropped.
    return lambda values, alpha, *weights: real(
        values, alpha, *(w[:3] + (0,) + w[4:] for w in weights)
    )


def _combine_first_denominator(real):
    # Every value is brought to the first value's denominator, not to the
    # lcm of all of them.
    def fake(weights, den, values):
        poly = isinstance(values[0], Polynomial)
        parts = [
            (v.num, v.den) if poly else ((v.numerator,), v.denominator)
            for v in values
        ]
        q = parts[0][1]
        out = [0] * max(len(vn) for vn, _ in parts)
        for w, (vn, vd) in zip(weights, parts):
            for i, c in enumerate(vn):
                out[i] += w * (q // vd) * c
        return Polynomial.over(out, den * q) if poly else Fraction(out[0], den * q)

    return fake


# Each fault with the ids it turns into a corrected FAIL at seed 0.
MATRIX = [
    # L0
    (algebra, "exp_series", _exp_series_factorial_off_by_one, "GF-Li"),
    (algebra, "_egf", _egf_factorial_off_by_one, "GF-Li GF-Lif T4.1"),
    (algebra, "log1p_series", _log1p_last_term_dropped, "GF-Lif"),
    (TruncatedSeries, "compose", _compose_constant_dropped, "GF-Li GF-Lif"),
    (TruncatedSeries, "_of", _truncation_one_short, "GF-Li GF-Lif T4.1"),
    (TruncatedSeries, "_of", _truncation_one_long, "GF-Li GF-Lif"),
    (
        Polynomial,
        "__call__",
        _horner_unreversed,
        "C5.1a C5.1b CASES-2 CASES-3 T5.1a T5.1b",
    ),
    (
        Polynomial,
        "antiderivative",
        _antiderivative_divisor_off_by_one,
        "CASES-2 CASES-3",
    ),
    (
        algebra,
        "_reduced",
        _gcd_skipped,
        "GF-Li GF-Lif T4.1 T5.2a T5.2b T5.2c T5.2d",
    ),
    (Polynomial, "from_roots", _from_roots_wrong_power, "CASES-2 CASES-3"),
    (
        algebra,
        "_prefix_products",
        _prefix_products_unit_denominators,
        "C2.1 C2.2 C3.1 C3.2 C4.1a C4.1b C4.2a C4.2b C5.1a C5.1b CASES-2 CASES-3 "
        "T2.1 T2.2 T2.3 T2.4 T3.1 T3.2 T4.2a T4.2b T4.3a T4.3b T5.1a T5.1b",
    ),
    (
        algebra,
        "_prefix_products",
        _prefix_products_sign_slip,
        "C2.1 C2.2 C3.1 C3.2 C4.1a C4.1b C4.2a C4.2b C5.1a C5.1b CASES-2 CASES-3 "
        "GF-Lif T2.1 T2.2 T2.3 T2.4 T3.1 T3.2 T4.2a T4.2b T4.3a T4.3b T5.1a T5.1b",
    ),
    # L1
    (
        stirling,
        "_rows",
        _rows_target_off_by_one,
        "C4.1a C4.1b C4.2a C4.2b GF-Li T4.1 T4.2a T4.2b T4.3a T4.3b T5.2a T5.2b "
        "T5.2c T5.2d",
    ),
    (
        stirling,
        "_rows",
        _rows_source_off_by_one,
        "C2.1 C3.1 C5.1a C5.1b CASES-2 CASES-3 T2.1 T3.1 T5.1a T5.1b T5.2a T5.2b "
        "T5.2c T5.2d",
    ),
    (
        stirling,
        "_rows",
        _rows_wrong_power,
        "C2.1 C3.1 C4.1a C4.1b C4.2a C4.2b C5.1a C5.1b CASES-2 CASES-3 T2.1 T3.1 "
        "T4.1 T4.2a T4.2b T4.3a T4.3b T5.1a T5.1b T5.2a T5.2b T5.2c T5.2d",
    ),
    # The expansion weights run _rebase from the nodes (alpha, 0, ...) for
    # the first kind and (0, ..., alpha) for the second: a fault on either
    # side's nodes reaches the ids of one kind. T2.2, T2.3, T3.2 and CASES
    # read row n as X^n moved by it. T3.2's route moves twice into falling
    # factorials; a target fault shifts both moves alike and cancels there.
    (
        stirling,
        "_rebase",
        _rebase_source_off_by_one,
        "C2.2 C3.2 C4.1a C4.2a CASES-2 CASES-3 T2.2 T2.3 T3.2 T4.2a T4.3a T5.2c "
        "T5.2d",
    ),
    (
        stirling,
        "_rebase",
        _rebase_target_off_by_one,
        "C2.2 C4.1b C4.2b T2.2 T2.3 T4.2b T4.3b T5.2a T5.2b",
    ),
    # Every one-row read and every expansion's row n of T come from _row.
    (
        stirling,
        "_row",
        _row_unit_carries_the_row_below,
        "C2.2 C3.2 C4.1a C4.1b C4.2a C4.2b CASES-2 CASES-3 T2.2 T2.3 T3.2 T4.2a "
        "T4.2b T4.3a T4.3b T5.2a T5.2b T5.2c T5.2d",
    ),
    # L2
    (
        algebra,
        "box_moments",
        _first_length_only,
        "CASES-2 CASES-3 T2.1 T2.2 T2.3 T2.4 T3.1 T3.2 T4.2a T4.2b T4.3a T4.3b "
        "T5.1a T5.1b",
    ),
    (
        algebra,
        "box_moments",
        _doubled_mu1,
        "C2.1 C2.2 C3.1 C3.2 C4.1a C4.1b C4.2a C4.2b C5.1a C5.1b CASES-2 CASES-3 "
        "GF-Lif T2.1 T2.2 T2.3 T2.4 T3.1 T3.2 T4.2a T4.2b T4.3a T4.3b T5.1a T5.1b",
    ),
    (
        cauchy,
        "_box_integral",
        _box_integral_first_variable_only,
        "CASES-2 CASES-3 GF-Lif T2.1 T2.2 T2.3 T2.4 T3.1 T3.2 T4.2a T4.2b T4.3a "
        "T4.3b T5.1a T5.1b",
    ),
    (
        cauchy,
        "_pair",
        _pair_shifted,
        "C2.1 C2.2 C3.1 C3.2 C4.1a C4.1b C4.2a C4.2b CASES-2 CASES-3 GF-Li T2.1 "
        "T2.2 T2.3 T2.4 T3.1 T3.2 T4.1 T4.2a T4.2b T4.3a T4.3b",
    ),
    (cauchy, "_poly_from_row", _poly_from_row_sign_slip, "C5.1a C5.1b T5.1a T5.1b"),
    (
        bernoulli,
        "_bernoulli_row",
        _bernoulli_row_sign_slip,
        "C4.1a C4.1b C4.2a C4.2b GF-Li T4.1 T4.2a T4.2b T4.3a T4.3b T5.2a T5.2b "
        "T5.2c T5.2d",
    ),
    (bernoulli, "_exp_sum", _exp_sum_weights_shifted, "T4.1"),
    (bernoulli, "_exp_sum", _exp_sum_power_off_by_one, "T4.1"),
    (cauchy, "_reciprocal_power_sums", _power_sums_from_zero, "T2.4"),
    (cauchy, "_bell_numerators", _newton_sum_off_by_one, "T2.4"),
    (cauchy, "_classic_first_values", _classic_first_off_at_two, "C3.2 T2.3 T3.2"),
    # T3.2's two readings share the one Lah row that _lah_values moves.
    (cauchy, "_lah_values", _lah_sign_dropped, "C3.2 T3.2"),
    (cauchy, "specialize", _specialize_k_dropped, "CASES-2 CASES-3"),
    (cauchy, "specialize", _specialize_den_q_dropped, "CASES-2 CASES-3"),
    (cauchy, "_def_values", _shift_sign_slip, "C5.1a C5.1b T5.1a T5.1b"),
    (cauchy, "lif_series", _lif_factorial_off_by_one, "GF-Lif"),
    # A shared kernel's fault in one slice's rows is named by that slice:
    # _first_def_values is _def_values at sign +1, _poly_first_values is
    # _closed_values at _poly_from_row and +1, _bernoulli_poly_values is
    # _bernoulli_values at _poly_from_row.
    (
        cauchy,
        "_def_values",
        _row_shifted(1),
        "C4.2b GF-Lif T4.3b",
        "_first_def_values",
    ),
    (cauchy, "_def_values", _row_shifted(-1), "C4.1b T4.2b", "_second_def_values"),
    (
        cauchy,
        "_closed_values",
        _row_shifted(cauchy._poly_from_row, 1),
        "T5.2a",
        "_poly_first_values",
    ),
    (
        cauchy,
        "_closed_values",
        _row_shifted(cauchy._poly_from_row, -1),
        "T5.2b",
        "_poly_second_values",
    ),
    (
        cauchy,
        "_closed_values",
        _kind_sign_dropped,
        "C3.1 CASES-3 T3.1",
        "_second_closed_values",
    ),
    (
        bernoulli,
        "_bernoulli_values",
        _misaligned(cauchy._pair),
        "C4.1a C4.2a GF-Li T4.1 T4.2a T4.3a",
    ),
    (
        bernoulli,
        "_bernoulli_values",
        _misaligned(cauchy._poly_from_row),
        "T5.2c T5.2d",
        "_bernoulli_poly_values",
    ),
    # Expansion sums: _expand as the harness binds it, _combine in transforms
    (
        harness,
        "_expand",
        _expand_index_sign_dropped,
        "C4.1a C4.2a T4.2a T4.3a T5.2c T5.2d",
    ),
    (
        transforms,
        "_combine",
        _combine_first_denominator,
        "C4.1a C4.1b C4.2a C4.2b T4.2a T4.2b T4.3a T4.3b T5.2a T5.2b T5.2c T5.2d",
    ),
]


def _case_id(owner, name, make, slice_name=None):
    owner_name = owner.__name__.rpartition(".")[2]
    return f"{owner_name}.{slice_name or name}:{make.__name__.strip('_')}"


@pytest.mark.parametrize(
    "owner, name, make, caught",
    [
        pytest.param(*case[:4], id=_case_id(*case[:3], *case[4:]))
        for case in MATRIX
    ],
)
def test_the_sweep_sees_the_fault(owner, name, make, caught, monkeypatch):
    # The whole catalog is swept, so an id missing from the list fails too.
    _inject(monkeypatch, owner, name, make)
    assert _failed(sweep(seed=0)) == set(caught.split())


def test_every_expansion_fails_under_a_rebase_fault():
    # The weights of every expansion identity are moved by _rebase alone, and
    # so is the one row that T2.2's, T2.3's and T3.2's routes read.
    caught = set()
    for owner, name, _, ids, *_ in MATRIX:
        if owner is stirling and name == "_rebase":
            caught.update(ids.split())
    assert caught >= set(SHARED) | {"T2.2", "T2.3", "T3.2"}


def _table_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["table", "comtet-2", "--n-max", "4", "--alpha", "1/2,-2/3,0,5/4"])
    return out.getvalue()


def test_the_int_row_fault_changes_what_table_prints(monkeypatch):
    # `table` prints the rows the routes pair, so the decode fault the sweep
    # sees in them (once in `int_row`, now in `_rows`) is also in its output.
    real = _table_stdout()
    _inject(monkeypatch, stirling, "_rows", _rows_wrong_power)
    assert _table_stdout() != real


# --- Faults the sweep is not expected to catch ----------------------------


def _series_exp_divisor_off_by_one(real):
    # Coefficient i of exp is scaled by i.
    return lambda self: TruncatedSeries(
        self.order, [c * max(i, 1) for i, c in enumerate(real(self).coeffs)]
    )


def _all_zero_samples(real):
    # Every sample point is 0: the check compares at one point.
    return lambda count: (Fraction(0),) * count


def _getitem_wrong_power(real):
    # Entry (n, m) over a further den^(n-m), den its row's denominator: the
    # fraction-free form's scale applied to a canonical row.
    def fake(self, nm):
        n, m = nm
        if 0 <= m <= n < len(self.rows):
            return real(self, nm) / self.rows[n].den ** (n - m)
        return real(self, nm)

    return fake


NOT_SEEN_BY_THE_SWEEP = [
    # No sweep column reads the series exp; only modified_bell and the
    # perfbench tracer do.
    (
        TruncatedSeries,
        "exp",
        _series_exp_divisor_off_by_one,
        "tests/test_cauchy.py::test_newton_bell_numerators_match_the_series_exp",
        {"seed": 0},
    ),
    # The fault weakens the polynomial checks without changing any value.
    (
        algebra,
        "integer_samples",
        _all_zero_samples,
        "tests/test_algebra.py::test_integer_samples_order",
        {},
    ),
    # GF-Li reads the classical values from one _bernoulli_values pass, and
    # neither `number` nor `table` calls the helper. Only tests call it: five
    # in tests/test_bernoulli.py, its anchor values first, and the table pin.
    (
        bernoulli,
        "classic_poly_bernoulli",
        _value_off_at_two,
        "tests/test_bernoulli.py::test_small_anchor_values",
        {},
    ),
    # No verify reading indexes a table; the sweep reads rows through _rows.
    (
        CoeffTable,
        "__getitem__",
        _getitem_wrong_power,
        "tests/test_stirling.py::test_explicit_second_kind_matches_the_table",
        {},
    ),
]


@pytest.mark.parametrize(
    "owner, name, make, killer, kwargs",
    [pytest.param(*case, id=_case_id(*case[:3])) for case in NOT_SEEN_BY_THE_SWEEP],
)
def test_a_fault_the_sweep_misses_fails_its_named_test(
    owner, name, make, killer, kwargs, monkeypatch
):
    path, test = killer.split("::")
    module = importlib.import_module(Path(path).stem)
    _inject(monkeypatch, owner, name, make, MODULES + (module,))
    assert _failed(sweep(seed=0)) == set()
    with pytest.raises(AssertionError):
        getattr(module, test)(**kwargs)
