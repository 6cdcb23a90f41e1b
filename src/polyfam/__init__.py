"""Exact-arithmetic computation of multiparameter Cauchy- and Bernoulli-type
number and polynomial families, with mechanical verification of their
identity catalog.

Everything is computed over `fractions.Fraction`; equality checks throughout
the package and its test suite are exact.

`import polyfam` loads the families and their triangles only. The inversion
transforms (`polyfam.transforms`) load on first access to one of their
names. The identity sweep (`polyfam.harness`) loads on first access to
anything else: one of its names, `__all__` (so a star import),
`dir(polyfam)` or an unknown name.
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

    for lazy in ("transforms", "harness"):
        module = import_module(f".{lazy}", __name__)
        if name == lazy:
            return module
        if name in module.__all__:
            # Looked up on every access, so a name rebound in its module is
            # the one returned.
            return getattr(module, name)
    if name == "__all__":
        # The loop loaded both lazy modules, which binds them here.
        modules = (algebra, bernoulli, cauchy, harness, stirling, transforms)
        return [
            *(export for module in modules for export in module.__all__),
            *(module.__name__.rpartition(".")[2] for module in modules),
        ]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
