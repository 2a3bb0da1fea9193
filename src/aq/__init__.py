"""Exact computational commutative algebra over QQ and GF(p).

Polynomial arithmetic and Groebner bases feed Kahler differentials,
explicit simplicial resolutions, truncated cotangent complexes, homology
and cohomology of algebra maps, and decision procedures for smoothness,
unramifiedness, etaleness, complete intersections, and regularity.  Every
computation is exact and every headline number is recomputed by an
independent oracle.
"""

from .classify import (
    ClassifyError,
    classification_report,
    hkr_equivalence_check,
    is_complete_intersection,
    is_etale_at,
    is_lci_at,
    is_regular_local,
    is_smooth_at,
    is_unramified_at,
)
from .cotangent import (
    CotangentError,
    aq_cohomology,
    aq_homology,
    base_change_check,
    cotangent_from_resolution,
    cotangent_trunc2,
    five_term_check,
    jacobi_zariski_window,
    tor_modules,
)
from .fields import GF, QQ, AqError, FieldError, field_from_spec
from .kahler import (
    KahlerError,
    kahler_oracle_via_diagonal,
    kahler_presentation,
    relative_presentation,
)
from .modules import (
    FPModule,
    FreeComplex,
    ModuleError,
    koszul_complex,
    koszul_homology_all_vanish,
)
from .orders import MonomialOrder
from .poly import ParseError, PolyError, PolyRing, Polynomial, parse_polynomial
from .rings import (
    AlgebraError,
    AlgebraMap,
    PointError,
    PresentedAlgebra,
    compose,
)
from .session import Session, SessionError, parse_session
from .simplicial import (
    SimplicialError,
    bar_construction,
    constant_extension,
    hypersurface_resolution,
    kill_cycle,
    tensor_resolutions,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "AlgebraMap", "AqError", "ClassifyError", "CotangentError",
    "FPModule", "FieldError", "FreeComplex", "GF", "KahlerError",
    "ModuleError", "MonomialOrder", "ParseError", "PointError", "PolyError",
    "PolyRing", "Polynomial", "PresentedAlgebra", "QQ", "SUITES", "Session",
    "SessionError", "SimplicialError", "aq_cohomology", "aq_homology",
    "bar_construction", "base_change_check", "classification_report",
    "compose", "constant_extension", "cotangent_from_resolution",
    "cotangent_trunc2", "field_from_spec", "five_term_check",
    "hkr_equivalence_check", "hypersurface_resolution",
    "is_complete_intersection", "is_etale_at", "is_lci_at",
    "is_regular_local", "is_smooth_at", "is_unramified_at",
    "jacobi_zariski_window", "kahler_oracle_via_diagonal",
    "kahler_presentation", "kill_cycle", "koszul_complex",
    "koszul_homology_all_vanish", "parse_polynomial", "parse_session",
    "relative_presentation", "run_suite", "tensor_resolutions", "tor_modules",
]
