"""Exact-arithmetic workbench for finite-dimensional Novikov algebras."""

__version__ = "0.1.0"

from .constructions import (adjoin_unit, direct_sum, example1_algebra,
                            gd_construct, random_commutative_pair,
                            truncated_poly, weighted_euler_derivation,
                            zero_algebra)
from .core import AlgebraTable, IdentityReport, verify_identity
from .exactlin import GF, QQ, Field, Matrix, Subspace, kernel, rank, solve
from .ideals import (ChainReport, ClassifyReport, chain, classify,
                     commutator_ideal, ideal_closure, is_ideal, is_trivial_ideal,
                     quotient, subalgebra_generated, subspace_product)
from .radicals import (Certificate, RadicalReport, baer_radical,
                       bound_certificates, check_certificate, lqr_radical,
                       nilradical_commutative, quasi_inverse_lift,
                       quasiregular_solve)

__all__ = [
    "AlgebraTable",
    "Certificate",
    "ChainReport",
    "ClassifyReport",
    "Field",
    "GF",
    "IdentityReport",
    "Matrix",
    "QQ",
    "RadicalReport",
    "Subspace",
    "adjoin_unit",
    "baer_radical",
    "bound_certificates",
    "chain",
    "check_certificate",
    "classify",
    "commutator_ideal",
    "direct_sum",
    "example1_algebra",
    "gd_construct",
    "ideal_closure",
    "is_ideal",
    "is_trivial_ideal",
    "kernel",
    "lqr_radical",
    "nilradical_commutative",
    "quasi_inverse_lift",
    "quasiregular_solve",
    "quotient",
    "random_commutative_pair",
    "rank",
    "solve",
    "subalgebra_generated",
    "subspace_product",
    "truncated_poly",
    "verify_identity",
    "weighted_euler_derivation",
    "zero_algebra",
    "__version__",
]
