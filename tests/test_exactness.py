"""Exactness pin: a speedup that changes one output byte is a regression.

The sha256 below is over the `repr` of the twelve public routes and of
`Polynomial.from_roots` on seeded points, two of them at n=40, k=2 with
height-20 rationals. It was taken at commit a4dbe14, where the definitions
and the Bell route still ran on `Fraction`, so every later kernel must
reproduce those bytes.
"""

import hashlib
import random
from fractions import Fraction

import polyfam
from polyfam.algebra import Polynomial

ROUTES = (
    "mp_first_def",
    "mp_first_closed",
    "mp_first_noncentral",
    "mp_first_via_polycauchy",
    "mp_first_bell",
    "mp_second_def",
    "mp_second_closed",
    "mp_second_lah",
    "mp_bernoulli",
    "mp_poly_first",
    "mp_poly_second",
    "mp_bernoulli_poly",
)

PINNED_SHA256 = "7a13a3ce476edd8aef7682780ca25577f4ac813fcfd395cbd17505e3827eea7f"


def _rational(rng, height):
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value:
            return value


def _points():
    rng = random.Random("exactness-pin")
    points = []
    for i in range(18):
        n, k = rng.randint(0, 14), rng.randint(1, 3)
        height = (2, 20, 10**6)[i % 3]
        pool = [_rational(rng, height) for _ in range(3)] + [Fraction(1), Fraction(-1)]
        # Drawing from a small pool gives repeated parameters and +-1.
        alpha = tuple(
            rng.choice(pool) if rng.random() < 0.5 else _rational(rng, height)
            for _ in range(n)
        )
        lengths = tuple(_rational(rng, height) for _ in range(k))
        points.append(polyfam.FamilyPoint(n, k, alpha, lengths))
    for _ in range(2):
        alpha = tuple(_rational(rng, 20) for _ in range(40))
        lengths = (_rational(rng, 20), _rational(rng, 20))
        points.append(polyfam.FamilyPoint(40, 2, alpha, lengths))
    return points


def _digest() -> str:
    h = hashlib.sha256()
    for p in _points():
        for name in ROUTES:
            h.update(f"{name}:{getattr(polyfam, name)(p)!r}\n".encode())
        roots = p.alpha + (Fraction(0),) + p.lengths
        h.update(f"from_roots:{Polynomial.from_roots(roots)!r}\n".encode())
    return h.hexdigest()


def test_the_routes_and_from_roots_reproduce_the_pinned_bytes():
    assert _digest() == PINNED_SHA256
