"""Exact reductions of polynomial endomorphisms over Q.

The package pivots around three reductions of a nonsingular polynomial
map: lowering the degree to 3, squeezing into cubic homogeneous form,
and the cubic linear pairing, with every step recorded as a replayable
certificate.  The attrs module counts fibers of plane maps exactly.
"""

from .attrs import AttributeReport, dex2, fiber_count_real, mfs_sample
from .certs import (Automorphism, Certificate, RationalMap,
                    fiber_transport_check, verify_certificate)
from .examples import builtin_example, builtin_ids, corpus
from .gz import (CubicLinearMap, GZPairing, pair_down, pair_up, pairing_to_equivalence,
                 verify_pairing)
from .linalg import RatMatrix
from .maps import (Budget, BudgetExceeded, Classification, DEFAULT_BUDGET,
                   GenericityError, PolyMap, classify, is_druzkowski,
                   is_nilpotent, is_yagzhev, jacobian_det)
from .poly import Poly
from .reduce import (ReductionTrace, eliminate_quadratic, lower_degree,
                     meng_symmetrize, normalize, segre_step, to_yagzhev)
from .textio import MapDocument, ParseError, parse_expression, parse_map, print_map

__version__ = "0.1.0"

__all__ = [
    "AttributeReport", "Automorphism", "Budget", "BudgetExceeded",
    "Certificate", "Classification", "CubicLinearMap", "DEFAULT_BUDGET",
    "GZPairing", "GenericityError", "MapDocument", "ParseError", "Poly",
    "PolyMap", "RatMatrix", "RationalMap", "ReductionTrace",
    "builtin_example", "builtin_ids", "classify", "corpus", "dex2",
    "eliminate_quadratic", "fiber_count_real", "fiber_transport_check",
    "is_druzkowski", "is_nilpotent", "is_yagzhev", "jacobian_det",
    "lower_degree", "meng_symmetrize", "mfs_sample", "normalize",
    "pair_down", "pair_up", "pairing_to_equivalence", "parse_expression",
    "parse_map", "print_map", "segre_step", "to_yagzhev",
    "verify_certificate", "verify_pairing",
]
