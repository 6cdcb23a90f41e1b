"""Exact-arithmetic computation of multiparameter Cauchy- and Bernoulli-type
number and polynomial families, with mechanical verification of their
identity catalog.

Everything is computed over `fractions.Fraction`; equality checks throughout
the package and its test suite are exact.
"""

from .algebra import (
    Polynomial,
    PreconditionError,
    Rat,
    TruncatedSeries,
    X,
    as_rat,
    as_rat_tuple,
    box_moments,
    exp_series,
    integer_samples,
    log1p_series,
)
from .bernoulli import (
    CONVENTIONS,
    classic_poly_bernoulli,
    li_gf_check,
    mp_bernoulli,
    mp_bernoulli_gf_check,
    mp_bernoulli_poly,
    mp_bernoulli_poly_gf_check,
)
from .cauchy import (
    SPECIAL_FAMILIES,
    FamilyPoint,
    SeriesCheck,
    classic_first_with_lengths,
    family_point,
    generalized_harmonic,
    lif_gf_check,
    lif_series,
    modified_bell,
    mp_first_bell,
    mp_first_closed,
    mp_first_def,
    mp_first_noncentral,
    mp_first_via_polycauchy,
    mp_poly_first,
    mp_poly_first_oracle,
    mp_poly_second,
    mp_poly_second_oracle,
    mp_second_closed,
    mp_second_def,
    mp_second_lah,
    specialize,
)
from .harness import (
    CATALOG,
    IDENTITY_IDS,
    GridSpec,
    Identity,
    IdentityReport,
    ParamPoint,
    bernoulli_from_first,
    bernoulli_from_second,
    errata_ledger,
    first_from_bernoulli,
    second_from_bernoulli,
    summarize,
    sweep,
    verify,
)
from .stirling import (
    Basis,
    CoeffTable,
    comtet_first,
    comtet_second,
    comtet_second_explicit,
    connection_coeffs,
    identity_table,
    inversion_check,
    lah_closed_form,
    lah_signed,
    noncentral_second,
    signless_comtet_first,
    stirling_first,
    stirling_second,
    table_product,
)

__version__ = "0.1.0"
