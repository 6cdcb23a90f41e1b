"""Layer tracing for the polyfam benchmark, installed from outside the package.

`Tracer.install()` replaces, at run time, the public functions of each layer
by timing wrappers, in every polyfam module that bound them (so the
`from .stirling import comtet_first` copies in `cauchy`, `harness` and the
package namespace are all covered). Nothing under `src/` is edited.

Layers, named after the modules:

    algebra.poly    Polynomial.__mul__, Polynomial.from_roots
    algebra.series  TruncatedSeries mul, pow, compose, exp, log
    stirling        the functions in stirling.__all__ (triangles)
    route           the functions in cauchy.__all__ and bernoulli.__all__
    harness         the functions in harness.__all__ (verify, sweep, ...)

Every wrapped call pushes a frame; on return its duration minus the time its
child frames covered is added to its layer's self time. Spans are folded into
these aggregates as they close rather than stored, because a deep sweep makes
millions of algebra calls.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

STIRLING = "stirling"
ROUTE = "route"
HARNESS = "harness"
POLY = "algebra.poly"
SERIES = "algebra.series"


def _bits(value) -> int:
    """Largest numerator or denominator bit length in a route's output."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        value = coeffs
    if isinstance(value, (tuple, list)):
        return max((_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Aggregated spans of one process; `snapshot()` makes them JSON-ready."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [layer, seconds covered by children]
        self.self_s: Counter = Counter()  # layer -> self seconds
        self.calls: Counter = Counter()  # function -> calls, nested ones included
        self.incl_s: Counter = Counter()  # function -> inclusive seconds
        self.entries: Counter = Counter()  # layer -> calls entering it from outside
        self.requests: set = set()  # distinct stirling requests at the boundary
        self.identity_s: Counter = Counter()  # identity id -> seconds in verify()
        self.verdicts: Counter = Counter()  # corrected-column verdicts of verify()
        self.value_bits_max = 0
        self.active = True

    @contextmanager
    def paused(self):
        """Run the benchmark's own cross-checks without counting them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, after=None):
        stack, self_s, calls, incl_s = self._stack, self.self_s, self.calls, self.incl_s

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entering = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                self_s[layer] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                calls[name] += 1
                incl_s[name] += seconds
            if entering:
                self.entries[layer] += 1
                if layer == STIRLING:
                    self._request(name, args, kwargs)
            if after is not None:
                after(args, result, seconds)
            return result

        return functools.wraps(fn)(traced)

    def _request(self, name: str, args, kwargs) -> None:
        key = (name,) + tuple(
            tuple(a) if isinstance(a, list) else a for a in args
        ) + tuple(sorted(kwargs.items()))
        try:
            self.requests.add(key)
        except TypeError:
            self.requests.add((name, repr(args), repr(kwargs)))

    def _after_route(self, args, result, seconds) -> None:
        bits = _bits(result)
        if bits > self.value_bits_max:
            self.value_bits_max = bits

    def _after_verify(self, args, report, seconds) -> None:
        self.identity_s[args[0]] += seconds
        self.verdicts[report.corrected] += 1

    def install(self) -> None:
        """Wrap every layer's public functions wherever polyfam bound them."""
        import polyfam
        from polyfam import algebra, bernoulli, cauchy, cli, harness, stirling

        modules = (polyfam, algebra, stirling, cauchy, bernoulli, harness, cli)

        def rebind(original, wrapped) -> None:
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)

        for module, layer in (
            (stirling, STIRLING),
            (cauchy, ROUTE),
            (bernoulli, ROUTE),
            (harness, HARNESS),
        ):
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                after = None
                if layer == ROUTE:
                    after = self._after_route
                elif name == "verify":
                    after = self._after_verify
                rebind(fn, self._wrap(layer, name, fn, after))

        poly, series = algebra.Polynomial, algebra.TruncatedSeries
        poly.__mul__ = self._wrap(POLY, "Polynomial.__mul__", poly.__mul__)
        from_roots = vars(poly)["from_roots"].__func__
        poly.from_roots = classmethod(
            self._wrap(POLY, "Polynomial.from_roots", from_roots)
        )
        for name in ("__mul__", "__pow__", "compose", "exp", "log"):
            setattr(
                series,
                name,
                self._wrap(SERIES, f"TruncatedSeries.{name}", vars(series)[name]),
            )

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "entries": dict(self.entries),
            "distinct_requests": len(self.requests),
            "identity_s": dict(self.identity_s),
            "verdicts": dict(self.verdicts),
            "value_bits_max": self.value_bits_max,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (maxima for maxima)."""
    total: dict = {
        "self_s": Counter(),
        "calls": Counter(),
        "incl_s": Counter(),
        "entries": Counter(),
        "distinct_requests": 0,
        "identity_s": Counter(),
        "verdicts": Counter(),
        "value_bits_max": 0,
    }
    for snap in snapshots:
        for key in ("self_s", "calls", "incl_s", "entries", "identity_s", "verdicts"):
            total[key].update(snap[key])
        total["distinct_requests"] += snap["distinct_requests"]
        total["value_bits_max"] = max(total["value_bits_max"], snap["value_bits_max"])
    return total
