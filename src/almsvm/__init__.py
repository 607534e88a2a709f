"""Augmented Lagrangian training for sparse linear SVMs.

Primal solver for hinge-loss classification and eps-insensitive
regression. The outer loop is a multiplier method whose subproblems are
solved by a semismooth Newton-CG iteration exploiting the active-set
structure of the penalty's proximal map; every solve reports KKT
residuals and a duality gap as an optimality certificate.
"""

from .alm import (
    DivergedError,
    Problem,
    SolveReport,
    SolverConfig,
    alm_solve,
    build_svc,
    build_svr,
    dual_objective,
    kkt_residual,
    primal_objective,
)
from .data_io import (
    Dataset,
    ParseError,
    augment_bias,
    load_libsvm,
    normalize_labels,
    parse_libsvm,
    serialize_libsvm,
    split,
    write_libsvm,
)
from .metrics import Model, accuracy, mse, predict, predict_label
from .sparse import SparseMatrix

__version__ = "0.1.0"

__all__ = [
    "DivergedError",
    "Problem",
    "SolveReport",
    "SolverConfig",
    "alm_solve",
    "build_svc",
    "build_svr",
    "dual_objective",
    "kkt_residual",
    "primal_objective",
    "Dataset",
    "ParseError",
    "augment_bias",
    "load_libsvm",
    "normalize_labels",
    "parse_libsvm",
    "serialize_libsvm",
    "split",
    "write_libsvm",
    "Model",
    "accuracy",
    "mse",
    "predict",
    "predict_label",
    "SparseMatrix",
    "__version__",
]
