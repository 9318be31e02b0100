"""Exact-rational and float linear algebra for substochastic matrices.

Core surface: dense matrices over exact/float scalar backends, certified
substochastic matrices with fundamental-matrix checks, both-sides
evaluation of the minor/adjugate/Schur identities, seeded instance
generators, and a Monte-Carlo random-walk oracle (``substoch.montecarlo``,
imported on demand).
"""

from . import errors
from .scalars import EXACT, FLOAT
from .matrix import (
    DenseMatrix,
    adjugate,
    delete_row_col,
    determinant,
    inverse,
    mat_vec,
    minor,
)
from .substochastic import (
    Certification,
    MaximalityReport,
    MaximalityWitness,
    SubstochasticMatrix,
    check_diagonal_maximality,
    det_I_minus_Pt_positive,
    fundamental_matrix,
    identity_minus,
    merge_rows_reduction,
    minor_sum_nonneg,
    spectral_radius_estimate,
    spectral_radius_lt_one,
    validate_substochastic,
)
from .identities import (
    GeneralMatrix,
    IdentityId,
    IdentityReport,
    certify_general,
    verify_all,
)
from .generators import GenSpec, SplitMix64, derive_seed, gen_general, gen_substochastic

__version__ = "0.1.0"

__all__ = [
    "errors",
    "EXACT",
    "FLOAT",
    "DenseMatrix",
    "adjugate",
    "delete_row_col",
    "determinant",
    "inverse",
    "mat_vec",
    "minor",
    "Certification",
    "MaximalityReport",
    "MaximalityWitness",
    "SubstochasticMatrix",
    "check_diagonal_maximality",
    "det_I_minus_Pt_positive",
    "fundamental_matrix",
    "identity_minus",
    "merge_rows_reduction",
    "minor_sum_nonneg",
    "spectral_radius_estimate",
    "spectral_radius_lt_one",
    "validate_substochastic",
    "GeneralMatrix",
    "IdentityId",
    "IdentityReport",
    "certify_general",
    "verify_all",
    "GenSpec",
    "SplitMix64",
    "derive_seed",
    "gen_general",
    "gen_substochastic",
    "__version__",
]
