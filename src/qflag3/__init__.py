"""Exact model of the quantum exterior algebra of the full quantum
flag manifold of SU_q(3), with mechanical verification suites for its
relations, dimensions, Frobenius structure, complex structures, and the
Kaehler obstruction.
"""

from .scalar import Coefficient, LaurentPoly
from .ncpoly import Alphabet, NCPolynomial, ReductionSystem, RewriteRule
from .qpair import coset, omega, right_act
from .flagext import ExteriorAlgebra, associated_graded, build_relations
from .report import Check, VerificationReport
from . import geometry, rootdata, suites

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Check", "Coefficient", "ExteriorAlgebra", "LaurentPoly",
    "NCPolynomial", "ReductionSystem", "RewriteRule", "VerificationReport",
    "associated_graded", "build_relations", "coset", "geometry", "omega",
    "right_act", "rootdata", "suites",
]
