"""Exact C-fraction / power-series conversion and Hankel transforms."""

from .cfrac import (
    ApproximantPair,
    CFraction,
    Terminated,
    Truncated,
    approximants,
    cfraction_from_json,
    cfraction_to_json,
    correspond,
    determinant_identity_residual,
    evaluate,
    prepend_unit_lead,
)
from .closedform import (
    Convention,
    DEFAULT_CONVENTION,
    DenseTransform,
    IndexProfile,
    MonomialValue,
    PFraction,
    a_from_b,
    b_from_a,
    closed_form_from_b,
    closed_form_monomial,
    closed_form_value,
    dense_to_json,
    dense_transform,
    dense_transform_of,
    index_profile,
    p_sequence,
    pfraction_from_cfraction,
)
from .catalog import (
    CATALOG_NAMES,
    VerificationReport,
    catalan_numbers,
    catalog_cfraction,
    catalog_series,
    expand_rational_gf,
    fibonacci_numbers,
    report_to_json,
    select_convention,
    terms_for_order,
    verify_claims,
)
from .exact import (
    GAMMA,
    ParamPoly,
    Poly,
    PolyFrac,
    Series,
    poly,
    series,
    series_from_json,
    series_mul,
    series_quotient,
    series_reciprocal,
    series_to_json,
    series_valuation,
)
from .hankel_oracle import (
    det_cofactor,
    hankel_det,
    hankel_matrix,
    hankel_transform,
    matrix_det,
)

__version__ = "0.1.0"
