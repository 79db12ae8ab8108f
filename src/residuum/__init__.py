"""Residue prescription and pluriharmonic construction on model geometries.

The exact half (nerves, cohomology, rational forms on the sphere) runs
over the Gaussian rationals with zero tolerance; the numeric half
(Weierstrass torus, contour periods, pairs) is double precision with
every key quantity cross-checked against an exact or closed-form oracle.
"""

from .cech import (
    Cochain,
    CohomologySpace,
    Nerve,
    coboundary,
    cohomology_dims,
    standard_good_nerves,
    validate_nerve,
)
from .chern import (
    HodgeRecord,
    TransitionData,
    Verdict,
    chern_cocycle,
    double_delta,
    has_property_h,
    kernel_dimension,
    residue_feasible,
    sphere_point_transitions,
)
from .divisor import CDivisor
from .exact import ExactComplex, format_exact, parse_exact
from .models import SphereModel, TorusModel, prescribe_residues, second_kind, third_kind
from .periods import (
    Garden,
    contour_integral,
    contour_integrals,
    is_exact,
    long_period_vector,
    make_garden,
    normalize_pure_imaginary,
    prescribe_full,
    short_period_vector,
)
from .pluriharmonic import (
    Pair,
    PluriharmonicField,
    conjugate,
    integrate_pair,
    laplacian_check,
    pairs_equivalent,
    pluriharmonic_space_dim,
    well_definedness_audit,
)
from .sphere import (
    INFINITY,
    RationalForm,
    SpherePoint,
    check_residue_theorem,
    decompose_kinds,
    pole_order_bound_check,
    residue_at,
    residue_divisor,
)
from .torus import EllipticForm, Torus

__version__ = "0.1.0"

__all__ = [
    "CDivisor",
    "Cochain",
    "CohomologySpace",
    "EllipticForm",
    "ExactComplex",
    "Garden",
    "HodgeRecord",
    "INFINITY",
    "Nerve",
    "Pair",
    "PluriharmonicField",
    "RationalForm",
    "SphereModel",
    "SpherePoint",
    "Torus",
    "TorusModel",
    "TransitionData",
    "Verdict",
    "chern_cocycle",
    "check_residue_theorem",
    "coboundary",
    "cohomology_dims",
    "conjugate",
    "contour_integral",
    "contour_integrals",
    "decompose_kinds",
    "double_delta",
    "format_exact",
    "has_property_h",
    "integrate_pair",
    "is_exact",
    "kernel_dimension",
    "laplacian_check",
    "long_period_vector",
    "make_garden",
    "normalize_pure_imaginary",
    "pairs_equivalent",
    "parse_exact",
    "pluriharmonic_space_dim",
    "pole_order_bound_check",
    "prescribe_full",
    "prescribe_residues",
    "residue_at",
    "residue_divisor",
    "residue_feasible",
    "second_kind",
    "short_period_vector",
    "sphere_point_transitions",
    "standard_good_nerves",
    "third_kind",
    "validate_nerve",
    "well_definedness_audit",
]
