"""Exact inertia invariants of Hermitian matrices over the Gaussian
rationals, classification of the rank <= 2 strata and their cones, the
degree/parity law of that locus, aggregated Hodge-number lower bounds, and
a randomized falsifier for subspaces with minimal inertia >= 2.

Importing the package loads none of its modules.  Each public name below
(``minertia.inertia``, ``minertia.run_search``, ...) and each submodule
(``minertia.kernels``, ...) is imported on its first access (PEP 562), so a
command-line process compiles and runs only the modules its subcommand
uses.
"""

import sys

_EXPORTS = {
    "bounds": (
        "Assumptions",
        "BoundReport",
        "PencilData",
        "SurfaceRecord",
        "best_bound",
        "bmy_bound",
        "catalog",
        "epsilon_bound",
        "general_bound",
        "k2_less_than_8chi",
        "odd_q_bound",
        "pencil_bound",
        "power_of_two_q_bound",
        "surface_identities",
    ),
    "degree": (
        "DegreeRecord",
        "binary_disjoint",
        "degree_binomial_form",
        "degree_product_form",
        "parity_record",
        "two_adic_valuation",
        "verify_parity_law",
    ),
    "errors": (
        "HypothesisNotMetError",
        "InconsistencyError",
        "MinertiaError",
        "NotHermitianError",
        "NotProjectivePointError",
        "SingularTransformError",
        "UnsupportedSizeError",
    ),
    "exactnum": (
        "GaussianRational",
        "RationalPolynomial",
        "format_rational",
        "parse_rational",
        "poly_gcd_tower",
    ),
    "hermitian_core": (
        "HermitianMatrix",
        "Inertia",
        "char_poly",
        "congruence_transform",
        "inertia",
        "minimal_inertia",
        "rank",
    ),
    "oracles": ("descartes_inertia",),
    "search": (
        "GrowReport",
        "SearchConfig",
        "SearchReport",
        "SubspaceBasis",
        "Witness",
        "falsify_min_inertia",
        "grow_subspace",
        "random_subspace",
        "run_search",
    ),
    "strata": (
        "ConeClassification",
        "ConeLabel",
        "StratumLabel",
        "classify_cone",
        "classify_d2",
        "d2_real_dimension",
        "dim_limit_min_inertia_ge2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "criteria", "jsonrecord", "kernels"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def _submodule(name: str):
    full = f"{__name__}.{name}"
    __import__(full)  # the import statement's path, so -X importtime lists it
    return sys.modules[full]


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_submodule(_MODULE_OF[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
