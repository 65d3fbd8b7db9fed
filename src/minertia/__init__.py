"""Exact inertia invariants of Hermitian matrices over the Gaussian
rationals, classification of the rank <= 2 strata and their cones, the
degree/parity law of that locus, aggregated Hodge-number lower bounds, and
a randomized falsifier for subspaces with minimal inertia >= 2.
"""

from .bounds import (
    Assumptions,
    BoundReport,
    PencilData,
    SurfaceRecord,
    best_bound,
    bmy_bound,
    catalog,
    epsilon_bound,
    general_bound,
    k2_less_than_8chi,
    odd_q_bound,
    pencil_bound,
    power_of_two_q_bound,
    surface_identities,
)
from .degree import (
    DegreeRecord,
    binary_disjoint,
    degree_binomial_form,
    degree_product_form,
    parity_record,
    two_adic_valuation,
    verify_parity_law,
)
from .errors import (
    HypothesisNotMetError,
    InconsistencyError,
    MinertiaError,
    NotHermitianError,
    NotProjectivePointError,
    SingularTransformError,
    UnsupportedSizeError,
)
from .exactnum import (
    GaussianRational,
    Rational,
    RationalPolynomial,
    format_rational,
    parse_rational,
    poly_gcd_tower,
)
from .hermitian_core import (
    HermitianMatrix,
    Inertia,
    char_poly,
    congruence_transform,
    inertia,
    minimal_inertia,
    rank,
)
from .oracles import descartes_inertia
from .search import (
    GrowReport,
    SearchConfig,
    SearchReport,
    SubspaceBasis,
    Witness,
    falsify_min_inertia,
    grow_subspace,
    random_subspace,
    run_search,
)
from .strata import (
    ConeClassification,
    ConeLabel,
    StratumLabel,
    classify_cone,
    classify_d2,
    d2_real_dimension,
    dim_limit_min_inertia_ge2,
    eigenvalue_of_high_multiplicity,
)

__version__ = "0.1.0"
