"""Operations derived from the triple factorization L * A * U = E.

Everything here rides on one decomposition of the input: the generalized
Bruhat form V1 * w * V2 with triangular V1, V2 and a full permutation w,
the exact inverse U * E^T * L of a nonsingular matrix, the rank as the
number of ones of E, a kernel basis read off the columns of U, and index
sets of a nonsingular submatrix of maximal size.  The inverse and Bruhat's
triangular inverses read L and U as kernel blocks, the kernel reads U alone
and the rank and the block read E alone; the decomposition computes only the
factors each reads, and only what they return is stored.
"""

from __future__ import annotations

from .decompose import _E, _LU, _U, _ensure, _leu_blocks, _square
from .dense import DenseMatrix, MulCounter, _Record, blocks, invert_lower_block, mat_mul_classical
from .errors import SingularError
from .perms import TruncPerm, _col_mask, _row_mask


class BruhatResult(_Record):
    """Factors of M = V1 * w * V2.

    V1 and V2 are upper triangular and may be singular exactly when M is;
    w is a full permutation.
    """

    __slots__ = __match_args__ = ("V1", "w", "V2")

    def __init__(self, V1: DenseMatrix, w: TruncPerm, V2: DenseMatrix):
        self.V1, self.w, self.V2 = V1, w, V2


def _sub_unit_diag_outside(M: DenseMatrix, support_mask: int) -> DenseMatrix:
    # subtract 1 from each diagonal entry whose index is outside the support
    f = M.field
    data = [row if (support_mask >> i) & 1 else [*row[:i], f.canon(row[i] - f.one_raw), *row[i + 1:]]
            for i, row in enumerate(M._d)]
    return DenseMatrix._wrap(f, data, M.rows, M.cols)


def _reverse_both(M: DenseMatrix) -> DenseMatrix:
    data = [list(reversed(row)) for row in reversed(M._d)]
    return DenseMatrix._wrap(M.field, data, M.rows, M.cols)


def bruhat_decompose(
    M: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    debug_checks: bool = False,
) -> BruhatResult:
    """Generalized Bruhat decomposition M = V1 * w * V2.

    Decomposes the row-reversed matrix, then converts: with L*(rev*M)*U = E,
    V1 is the reversal conjugate of L^-1 minus its off-support unit diagonal,
    w is the reversal composed with the permutation E completed to full rank,
    and V2 is U^-1 minus its off-support unit diagonal.
    """
    s = M.rows
    rev = DenseMatrix._wrap(M.field, M._d[::-1], s, M.cols)
    l, e, u, plan = _leu_blocks(_square(rev), _LU, counter, method, cutoff, debug_checks)
    K = plan.k
    l_inv = invert_lower_block(K, K.one_sided(l), s, plan.counter)
    ut_inv = invert_lower_block(K, K.one_sided(K.transpose(u)), s, plan.counter, unit=True)
    v1 = _reverse_both(_sub_unit_diag_outside(l_inv, _row_mask(e)))
    v2 = _sub_unit_diag_outside(ut_inv.transpose(), _col_mask(e))
    full = [*e, *TruncPerm(s, e).complement().ones]
    w = TruncPerm(s, [(s - 1 - i, j) for i, j in full])
    return BruhatResult(v1, w, v2)


def mat_inverse(
    A: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    parallel: bool = False,
    debug_checks: bool = False,
) -> DenseMatrix:
    """Exact inverse U * E^T * L of a nonsingular matrix.

    Read off the decomposition's own blocks, so that only the inverse is
    made into field values: E^T is applied by row selection, and one dense
    product remains and is counted.  Raises SingularError carrying the rank
    when rank < n.
    """
    l, e, u, plan = _leu_blocks(_square(A), _LU, counter, method, cutoff, debug_checks, parallel)
    return _inverse_from(A, l, e, u, plan.counter)


def _inverse_from(A: DenseMatrix, l, ones, u, counter: MulCounter) -> DenseMatrix:
    # the inverse of the square matrix A from its decomposition's n x n blocks
    n = A.rows
    r = len(ones)
    if r < n:
        raise SingularError(f"matrix of rank {r} < {n} has no inverse", rank=r)
    # U shares its denominators down its columns and E^T * L along its rows;
    # with the scales moved there, neither is put over the other direction's lcms
    counter.scalar_mults += n * n * n
    K = blocks(A.field)
    etl = K.perm_rows(ones, K.one_sided(l), n, n)
    data = K.store(K.mul(K.one_sided(u, cols=True), etl))
    return DenseMatrix._wrap(A.field, data, n, n)


def mat_rank(
    A: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    debug_checks: bool = False,
) -> int:
    """Rank of a matrix; rectangular input is counted as its zero-padded square.

    Read off E alone.  A matrix with one empty dimension has rank 0 and is
    not visited; the counter gets the model's count of the padded zero block.
    """
    return len(_leu_blocks(A, _E, counter, method, cutoff, debug_checks)[1])


def kernel_basis(
    A: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    debug_checks: bool = False,
) -> DenseMatrix:
    """Basis of the right kernel as the columns of an (n x nullity) matrix.

    With L*A*U = E, each zero column j of E gives A * (U e_j) =
    L^-1 * E * e_j = 0, and those columns of U are linearly independent
    because U is invertible.  Rectangular input runs the recursion of its
    zero-padded power-of-two square on its own rows and columns, so U is
    n x n: the padded square's U is the identity beyond it, and a padded
    column's basis vector would lie outside A's domain.
    """
    _, e, u, plan = _leu_blocks(A, _U, counter, method, cutoff, debug_checks)
    K = _kernel_from(A, e, plan.k.store(u))
    if debug_checks:
        prod = mat_mul_classical(A, K, MulCounter())
        _ensure(prod.is_zero(), "kernel candidate fails to annihilate")
    return K


def _kernel_from(A: DenseMatrix, ones, ud) -> DenseMatrix:
    # the kernel basis read off E's ones and the stored cols x cols U of A
    cols = A.cols
    covered = {j for _, j in ones}
    free = [j for j in range(cols) if j not in covered]
    data = [[ud[i][j] for j in free] for i in range(cols)]
    return DenseMatrix._wrap(A.field, data, cols, len(free))


def largest_nonsingular_block(
    A: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    verify: bool = False,
) -> tuple:
    """Row and column index sets of a nonsingular rank x rank submatrix.

    The rows holding ones of E and the columns holding ones of E are
    returned, each ascending.  With ``verify`` the submatrix is
    cross-checked nonsingular by the elimination oracle.
    """
    e = _leu_blocks(_square(A), _E, counter, method, cutoff, verify)[1]
    rows = tuple(sorted(i for i, _ in e))
    cols = tuple(sorted(j for _, j in e))
    if verify:
        from .oracle import gauss_rank

        _ensure(gauss_rank(A.select(rows, cols)) == len(rows), "selected block is singular")
    return rows, cols
