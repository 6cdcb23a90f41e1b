"""Exact-arithmetic computation of multiparameter Cauchy- and Bernoulli-type
number and polynomial families, with mechanical verification of their
identity catalog.

Everything is computed over `fractions.Fraction`; equality checks throughout
the package and its test suite are exact.

`import polyfam` loads the families and their triangles only. The identity
sweep (`polyfam.harness`) loads on first access to one of its names.
"""

from .algebra import *
from .bernoulli import *
from .cauchy import *
from .stirling import *

__version__ = "0.1.0"

# harness.__all__, spelled out so that the harness need not be imported to
# know it; tests/test_structure.py holds the two lists equal.
_HARNESS_NAMES = (
    "CATALOG",
    "GridSpec",
    "IDENTITY_IDS",
    "Identity",
    "IdentityReport",
    "ParamPoint",
    "bernoulli_from_first",
    "bernoulli_from_second",
    "errata_ledger",
    "first_from_bernoulli",
    "point_to_json",
    "second_from_bernoulli",
    "summarize",
    "sweep",
    "verify",
)

__all__ = [
    *algebra.__all__,
    *bernoulli.__all__,
    *cauchy.__all__,
    *stirling.__all__,
    *_HARNESS_NAMES,
    "algebra",
    "bernoulli",
    "cauchy",
    "harness",
    "stirling",
]


def __getattr__(name):
    # Not `from . import harness`: its fromlist check calls hasattr on this
    # package, which lands here again.
    if name == "harness" or name in _HARNESS_NAMES:
        from importlib import import_module

        harness = import_module(".harness", __name__)
        # Looked up on every access, so a name rebound in the harness is
        # the one returned.
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
