"""Exact-arithmetic computation of multiparameter Cauchy- and Bernoulli-type
number and polynomial families, with mechanical verification of their
identity catalog.

Everything is computed over `fractions.Fraction`; equality checks throughout
the package and its test suite are exact.

`import polyfam` loads the families and their triangles only. The identity
sweep (`polyfam.harness`) loads on first access to anything else: one of
its names, `__all__` (so a star import), `dir(polyfam)` or an unknown name.
"""

from .algebra import *
from .bernoulli import *
from .cauchy import *
from .stirling import *

__version__ = "0.1.0"


def __getattr__(name):
    # Not `from . import harness`: its fromlist check calls hasattr on this
    # package, which lands here again.
    from importlib import import_module

    harness = import_module(".harness", __name__)
    if name == "harness":
        return harness
    if name in harness.__all__:
        # Looked up on every access, so a name rebound in the harness is
        # the one returned.
        return getattr(harness, name)
    if name == "__all__":
        modules = (algebra, bernoulli, cauchy, harness, stirling)
        return [
            *(export for module in modules for export in module.__all__),
            *(module.__name__.rpartition(".")[2] for module in modules),
        ]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
