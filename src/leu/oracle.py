"""Reference implementations for testing and verification.

Gaussian elimination with pivoting, the classic algorithm family the
decomposition core deliberately avoids: the rank and the kernel read one
row echelon form, the inverse runs its own Gauss-Jordan elimination.
Agreement between the two routes is therefore meaningful.  Nothing in
the decomposition path calls into this module; it backs the test-suite,
the CLI ``verify`` command and ``largest_nonsingular_block(verify=True)``
only.  ``verify`` reads the rank, the nullity and :func:`check_inverse`,
which checks an inverse by its definition, A * X = I; ``gauss_inverse``
backs the tests.  The echelon form is on the ``verify`` path, so the row
operations are whole-row list expressions in plain integer or rational
arithmetic, reduced mod p over GF(p), rather than the decomposition's
kernels.
"""

from __future__ import annotations

from operator import mul as _mul

from .dense import DenseMatrix
from .errors import FieldMismatchError, ShapeError, SingularError


def _row_ops(field):
    """(f * row, row - f * pivot row), entry by entry, in plain arithmetic."""
    if field.kind == "gfp":
        p = field.modulus
        return (lambda f, row: [f * v % p for v in row],
                lambda row, f, prow: [(v - f * pv) % p for v, pv in zip(row, prow)])
    return (lambda f, row: [f * v for v in row],
            lambda row, f, prow: [v - f * pv for v, pv in zip(row, prow)])


def _row_echelon(A: DenseMatrix):
    """Echelon form scanning columns left to right; returns (rows, pivot cols)."""
    field = A.field
    m = [list(r) for r in A._d]
    nrows, ncols = A.rows, A.cols
    axpy = _row_ops(field)[1]
    pivots = []
    prow = 0
    for col in range(ncols):
        found = None
        for i in range(prow, nrows):
            if m[i][col]:
                found = i
                break
        if found is None:
            continue
        if found != prow:
            m[prow], m[found] = m[found], m[prow]
        inv_p = field.inv(m[prow][col])
        pr = m[prow][col:]
        for i in range(prow + 1, nrows):
            f = m[i][col]
            if f:
                ri = m[i]
                ri[col:] = axpy(ri[col:], f * inv_p, pr)
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return m, pivots


def gauss_rank(A: DenseMatrix) -> int:
    """Rank: the number of pivots of the echelon form."""
    return len(_row_echelon(A)[1])


def gauss_kernel(A: DenseMatrix) -> DenseMatrix:
    """Right kernel basis (cols x nullity) via back-substitution."""
    field = A.field
    m, pivots = _row_echelon(A)
    ncols = A.cols
    free = [j for j in range(ncols) if j not in pivots]
    canon, inv = field.canon, field.inv
    z = field.zero_raw
    basis = []
    for f in free:
        x = [z] * ncols
        x[f] = field.one_raw
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = z
            row = m[r]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s = canon(s + row[j] * x[j])
            if s:
                x[pc] = canon(-s * inv(row[pc]))
        basis.append(x)
    data = [[basis[k][i] for k in range(len(free))] for i in range(ncols)]
    return DenseMatrix._wrap(field, data, ncols, len(free))


def gauss_inverse(A: DenseMatrix) -> DenseMatrix:
    """Inverse by Gauss-Jordan elimination; SingularError carries the rank."""
    n = A.rows
    if A.cols != n:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    field = A.field
    scale, axpy = _row_ops(field)
    z, o = field.zero_raw, field.one_raw
    m = [list(r) + [o if i == j else z for j in range(n)] for i, r in enumerate(A._d)]
    for col in range(n):
        found = None
        for i in range(col, n):
            if m[i][col]:
                found = i
                break
        if found is None:
            rank = gauss_rank(A)
            raise SingularError(f"matrix of rank {rank} < {n} has no inverse", rank=rank)
        if found != col:
            m[col], m[found] = m[found], m[col]
        # left of col the pivot row is zero
        prow = m[col]
        prow[col:] = scale(field.inv(prow[col]), prow[col:])
        prow = prow[col:]
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                ri = m[i]
                ri[col:] = axpy(ri[col:], f, prow)
    data = [row[n:] for row in m]
    return DenseMatrix._wrap(field, data, n, n)


def check_inverse(A: DenseMatrix, B: DenseMatrix) -> bool:
    """Whether B is the inverse of the square matrix A.

    A * B is taken in plain row arithmetic, independent of the product
    kernel under test.  Over a field a one-sided inverse of a square matrix
    is two-sided, so A * B = I alone decides it.  A non-square A, or a B of
    another shape, has no inverse to be; a B over another field is an error.
    """
    field = A.field
    if B.field != field:
        raise FieldMismatchError(f"mixed fields {field!r} and {B.field!r}")
    if A.rows != A.cols or B.shape != A.shape:
        return False
    cols = list(zip(*B._d))
    if field.kind == "gfp":
        p = field.modulus
        prod = [[sum(map(_mul, r, c)) % p for c in cols] for r in A._d]
    else:
        prod = [[sum(map(_mul, r, c)) for c in cols] for r in A._d]
    return prod == DenseMatrix.identity(field, A.rows)._d
