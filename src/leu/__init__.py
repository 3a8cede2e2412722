"""Exact pivot-free linear algebra over prime fields and rationals.

The core operation factors any square matrix A as L * A * U = E with L
lower triangular and invertible, U upper unitriangular, and E a truncated
permutation of the same rank as A, without ever pivoting.  The generalized
Bruhat decomposition, exact inverse, rank, kernel basis and a maximal
nonsingular block all derive from that one factorization.

The elimination oracle in :mod:`leu.oracle` is a verification aid and is
deliberately not re-exported here.
"""

from .decompose import (
    LeuResult,
    VerifyReport,
    leu_decompose,
    leu_verify,
)
from .dense import (
    DenseMatrix,
    MulCounter,
    invert_lower_triangular,
    invert_upper_unitriangular,
    mat_mul_classical,
)
from .derived import (
    BruhatResult,
    bruhat_decompose,
    kernel_basis,
    largest_nonsingular_block,
    mat_inverse,
    mat_rank,
)
from .errors import FieldMismatchError, InvariantError, ParseError, ShapeError, SingularError
from .fields import GF, QQ, FieldSpec, PrimeField, RationalField, Scalar
from .perms import (
    DiagIdem,
    TruncPerm,
    reversal_perm,
    tp_to_dense,
)
from .textio import format_matrix, format_perm, parse_matrix

__all__ = [
    "GF",
    "QQ",
    "BruhatResult",
    "DenseMatrix",
    "DiagIdem",
    "FieldMismatchError",
    "FieldSpec",
    "InvariantError",
    "LeuResult",
    "MulCounter",
    "ParseError",
    "PrimeField",
    "RationalField",
    "Scalar",
    "ShapeError",
    "SingularError",
    "TruncPerm",
    "VerifyReport",
    "bruhat_decompose",
    "format_matrix",
    "format_perm",
    "invert_lower_triangular",
    "invert_upper_unitriangular",
    "kernel_basis",
    "largest_nonsingular_block",
    "leu_decompose",
    "leu_verify",
    "mat_inverse",
    "mat_mul_classical",
    "mat_rank",
    "parse_matrix",
    "reversal_perm",
    "tp_to_dense",
]
