"""Exact-rational and float linear algebra for substochastic matrices.

Core surface: dense matrices over exact/float scalar backends, certified
substochastic matrices with fundamental-matrix checks, both-sides
evaluation of the minor/adjugate/Schur identities, seeded instance
generators, and a Monte-Carlo random-walk oracle (``substoch.montecarlo``).
Every module is imported on demand: an exported name loads its home module
the first time it is read, and ``substoch.<module>`` loads that module.
"""

import sys

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "scalars": ("EXACT", "FLOAT"),
    "matrix": (
        "DenseMatrix", "adjugate", "delete_row_col", "determinant", "identity_minus", "inverse",
        "mat_vec", "minor",
    ),
    "substochastic": (
        "Certification",
        "MaximalityReport",
        "MaximalityWitness",
        "SubstochasticMatrix",
        "check_diagonal_maximality",
        "det_I_minus_Pt_positive",
        "fundamental_matrix",
        "merge_rows_reduction",
        "minor_sum_nonneg",
        "spectral_radius_estimate",
        "spectral_radius_lt_one",
        "validate_substochastic",
    ),
    "identities": ("GeneralMatrix", "IdentityId", "IdentityReport", "certify_general", "verify_all"),
    "generators": ("GenSpec", "SplitMix64", "derive_seed", "gen_general", "gen_substochastic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME, "__version__"]


def __getattr__(name: str):
    # __import__, not importlib.import_module, so -X importtime lists the module
    module = f"{__name__}.{_HOME.get(name, name)}"
    try:
        __import__(module)
    except ModuleNotFoundError as exc:
        if exc.name != module:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[module], name) if name in _HOME else sys.modules[module]
