"""qgrass: exact verification of Grassmann graph structure.

Builds the Grassmann graph J_q(N, D) over a prime field, decomposes its
adjacency algebra exactly, constructs the displacement-zero nucleus at a
base vertex together with its two subspace-indexed bases, and checks
every closed-form identity involved in integer and rational arithmetic.
"""

from .errors import (
    DimensionMismatch,
    EigenvalueCollision,
    FalsifiedFact,
    InvalidParameters,
    InvalidQuadruple,
    InvalidType,
    QgrassError,
    SizeCapExceeded,
)
from .qarith import FieldContext, SqrtQScalar, q_binomial, q_int, verify_q_identities

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EigenvalueCollision",
    "FalsifiedFact",
    "FieldContext",
    "InvalidParameters",
    "InvalidQuadruple",
    "InvalidType",
    "QgrassError",
    "SizeCapExceeded",
    "SqrtQScalar",
    "q_binomial",
    "q_int",
    "verify_q_identities",
    "__version__",
]
