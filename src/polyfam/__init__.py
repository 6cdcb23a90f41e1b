"""Exact-arithmetic computation of multiparameter Cauchy- and Bernoulli-type
number and polynomial families, with mechanical verification of their
identity catalog.

Everything is computed over `fractions.Fraction`; equality checks throughout
the package and its test suite are exact.
"""

from .algebra import *
from .bernoulli import *
from .cauchy import *
from .harness import *
from .stirling import *

__version__ = "0.1.0"
