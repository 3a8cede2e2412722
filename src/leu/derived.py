"""Operations derived from the triple factorization L * A * U = E.

Everything here rides on one decomposition of the input: the generalized
Bruhat form V1 * w * V2 with triangular V1, V2 and a full permutation w,
the exact inverse U * E^T * L of a nonsingular matrix, the rank as the
number of ones of E, a kernel basis read off the columns of U, and index
sets of a nonsingular submatrix of maximal size.  No triangular factor is
inverted.  The inverse and Bruhat take L and U as the recursion's blocks,
the kernel U alone and the rank and the block E alone; the decomposition
computes only the factors each reads, and only what they return is stored.

Over the rationals the inverse's entries can be far smaller than the
numbers of the fraction-free U * E^T * L that make them, so there the one
decomposition is taken modulo a word-size prime p, of the input with its
rows scaled to integers, and the same U * E^T * L mod p is lifted p-adically
(Dixon) until one exact integer product certifies it.  A matrix singular
mod p, or ``debug_checks``, takes the fraction-free path; the counts are the
model's either way.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd
from operator import mul as _mul, sub as _sub

from .decompose import _E, _LU, _U, _ensure, _leu_blocks, _square
from .dense import (
    _LOWER,
    _UPPER,
    DenseMatrix,
    MulCounter,
    _fraction_free,
    _int_classical,
    _Record,
    _tri_count,
    blocks,
    mat_mul_classical,
)
from .errors import SingularError
from .fields import GF
from .perms import TruncPerm


class BruhatResult(_Record):
    """Factors of M = V1 * w * V2.

    V1 and V2 are upper triangular and may be singular exactly when M is;
    w is a full permutation.
    """

    __slots__ = __match_args__ = ("V1", "w", "V2")

    def __init__(self, V1: DenseMatrix, w: TruncPerm, V2: DenseMatrix):
        self.V1, self.w, self.V2 = V1, w, V2


def bruhat_decompose(
    M: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    debug_checks: bool = False,
) -> BruhatResult:
    """Generalized Bruhat decomposition M = V1 * w * V2.

    With L*R*U = E for the row-reversed R = J*M (J the reversal),
    R*U = L^-1*E and L*R = E*U^-1, and by the root's support contract
    L^-1 (U^-1) is the identity's in exactly the columns (rows) outside
    E's rows (columns), whose unit diagonal is D (D').  So
    V1 = J*(L^-1 - D)*J = M*U*E^T*J and V2 = U^-1 - D' = E^T*L*J*M: two
    products, no inverse.  w is the reversal composed with E completed to
    a full permutation.  The count is the model's of the form
    M = J*L^-1*E*U^-1, whose two triangular inverses the products stand
    for: 2 _tri_count(n) multiplications and n inversions.
    """
    s = M.rows
    rev = DenseMatrix._wrap(M.field, M._d[::-1], s, M.cols)
    l, e, u, plan = _leu_blocks(_square(rev), _LU, counter, method, cutoff, debug_checks)
    plan.counter.scalar_mults += 2 * _tri_count(s)
    plan.counter.scalar_invs += s
    K = plan.k
    # column s - 1 - i of X * E^T * J is column j of X for each one (i, j)
    v1 = K.perm_cols(K.mul(K.load(M._d), u, _UPPER), [(s - 1 - i, j) for i, j in e], s)
    v2 = K.perm_rows(e, K.mul(l, K.load_cols(rev._d), _LOWER), s, s)
    full = [*e, *TruncPerm(s, e).complement().ones]
    w = TruncPerm(s, [(s - 1 - i, j) for i, j in full])
    return BruhatResult(DenseMatrix._wrap(M.field, K.store(v1), s, s), w,
                        DenseMatrix._wrap(M.field, K.store(v2), s, s))


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

    Over the rationals, unless ``debug_checks`` is set, A's rows are scaled
    to an integer matrix B, B is decomposed once modulo a prime p < 2^28,
    and B^-1 mod p = U * E^T * L is lifted p-adically: each digit costs one
    product mod p and one product of B, and B C = d I, checked in exact
    integers, certifies C / d = B^-1 before anything is returned.  When B is
    singular mod p, A goes the fraction-free way, which gives the exact
    rank.  Either way the count is the model's: one decomposition and n^3
    multiplications, n inversions.
    """
    if A.field.kind == "rational" and not debug_checks:
        if counter is None:
            counter = MulCounter()
        inv = _lifted_inverse(_square(A), counter, method, cutoff, parallel)
        if inv is not None:
            return inv
    l, e, u, plan = _leu_blocks(_square(A), _LU, counter, method, cutoff, debug_checks, parallel)
    return _inverse_from(A, l, e, u, plan.counter)


# the largest prime below 2^28: a GF(p) slot sums k (p-1)^2 < 2^64 up to k = 256
_LIFT = GF(268435399)


def _lifted_inverse(A: DenseMatrix, counter: MulCounter, method, cutoff, parallel):
    # The inverse of a square rational A by one decomposition of B = diag(s) A
    # mod p and p-adic lifting (Dixon), or None when B is singular mod p or
    # the lifting reaches its cap uncertified.  The lifting keeps
    # B y = d I - m r exactly, with m = p^k and d prime to p: the digit
    # z = X0 r mod p makes y + m z a solution mod m p.  Each step multiplies
    # B by one matrix, and that product gives the next r: by z while a digit
    # looks like noise, else by the candidate c, y's symmetric residues.
    # B c = d I is the exact certificate that c / d = B^-1, and then
    # A^-1 = c diag(s) / d.  The common denominator d is read off noisy
    # residues by rational reconstruction: the first time from one solution
    # lifted ahead of y, later from y itself.
    n = A.rows
    p = _LIFT.modulus
    b, s = _fraction_free(A._d)
    bp = DenseMatrix._wrap(_LIFT, [[v % p for v in row] for row in b], n, n)
    scratch = MulCounter()
    l, e, u, plan = _leu_blocks(bp, _LU, scratch, method, cutoff, False, parallel)
    if len(e) < n:
        return None
    x0 = _inverse_from(bp, l, e, u, scratch)._d
    # B^-1 = adj B / det B, and the Hadamard bound H of B caps |det B| and
    # every cofactor, so by m > 2 p H^2 every entry reads off as a fraction
    # and d B^-1 fits the symmetric residues; the lifting gives up a few
    # digits later, past m = p^5 H^2.  H^2 <= (n max |b_ij|^2)^n
    top = max(max(map(max, b)), -min(map(min, b)))
    cap = n * (2 * top.bit_length() + n.bit_length()) + 5 * p.bit_length()
    half, quarter = p >> 1, p >> 2
    c, m, d, probe, spot = x0, p, 1, True, None
    while True:
        prod = _int_classical(b, c, n, n)
        if all(row[i] == d and row.count(0) == n - 1 for i, row in enumerate(prod)):
            counter.scalar_mults += scratch.scalar_mults
            counter.scalar_invs += scratch.scalar_invs
            rows = c if s.count(1) == n else [[v * t for v, t in zip(row, s)] for row in c]
            data = blocks(A.field).store((rows, [d] * n, [1] * n))
            return DenseMatrix._wrap(A.field, data, n, n)
        if c is not x0:
            # read too early: after the next digit, the entry farthest from 0
            # is read as a fraction, as if its digit were noise
            flat = list(chain.from_iterable(c))
            spot = divmod(flat.index(max(flat, key=abs)), n)
        # r = (d I - B c) / m, mod p for the next digit; whole only once a
        # digit is noise and the lifting goes on by digits
        y, r = c, None
        rp = [[-v // m % p for v in row] for row in prod]
        for i, row in enumerate(prod):
            rp[i][i] = (d - row[i]) // m % p
        while True:
            if m.bit_length() > cap:
                return None
            z = plan.k.mul(x0, rp)
            mp = m * p
            # a digit far from 0 and p marks an entry far from 0 and mp
            far = min(map(abs, map(_sub, chain.from_iterable(z), repeat(half)))) < quarter
            noise = spot or far and next((i, j) for i, row in enumerate(z)
                                         for j, v in enumerate(row) if abs(v - half) < quarter)
            spot = None
            if not noise:
                h = mp >> 1
                c = [[(a + m * v + h) % mp - h for a, v in zip(ya, za)] for ya, za in zip(y, z)]
                m = mp
                break
            if r is None:
                r = [[-v // m for v in row] for row in prod]
                for i, row in enumerate(prod):
                    r[i][i] = (d - row[i]) // m
            r = [[(a - v) // p for a, v in zip(ra, rv)] for ra, rv in zip(r, _int_classical(b, z, n, n))]
            y = [[a + m * v for a, v in zip(ya, za)] for ya, za in zip(y, z)]
            m = mp
            if probe:
                # n^2 multiplications a digit instead of n^3
                probe = False
                g = _solution_denominator(b, x0, p, cap)
            else:
                i, j = noise
                g = _denominators(y, y[i][j], m, p)
            if g > 1:
                d *= g
                h = m >> 1
                c = [[(v * g + h) % m - h for v in row] for row in y]
                break
            rp = [[v % p for v in row] for row in r]


def _solution_denominator(b, x0, p, cap):
    # The common denominator of B^-1 w for w = (1, 2, ..., n), by the same
    # lifting on that one column, B x = w - m r: x's residues are read as
    # fractions after each digit.  1 once a digit leaves x's symmetric
    # residues as they were (x is an integer vector), or by the cap
    n = len(b)
    x, r, m, c = [0] * n, list(range(1, n + 1)), 1, None
    while m.bit_length() <= cap:
        z = [sum(map(_mul, row, r)) % p for row in x0]
        r = [(a - sum(map(_mul, row, z))) // p for a, row in zip(r, b)]
        x = [a + m * v for a, v in zip(x, z)]
        m *= p
        h = m >> 1
        last, c = c, [(v + h) % m - h for v in x]
        if c == last:
            return 1
        g = _denominators([x], max(c, key=abs), m, p)
        if g > 1:
            return g
    return 1


def _denominators(y, v, m, p):
    # The common denominator g of y's residues mod m, read as fractions one
    # at a time: v's, then each time that of g y's symmetric residue farthest
    # from 0, until none is farther than m / 4.  1 once one reads none, so
    # that a fraction read by chance is kept only if it clears every residue
    g, h = 1, m >> 1
    while True:
        f = _denominator(v % m, m, p)
        if f == 1:
            return 1
        g *= f
        v = max([(w * g + h) % m - h for w in chain.from_iterable(y)], key=abs)
        if 4 * abs(v) <= m:
            return g


def _denominator(v, m, t):
    # The denominator of the fraction that v mod m stands for, by Monagan's
    # maximal quotient rational reconstruction: of the Euclidean remainders
    # a = x v mod m, the one before the largest quotient q gives a / x, read
    # only when q > t, so that a residue with no small fraction (noise) reads
    # as one with probability about log2(m) / t.  1 when none is read
    r0, r1, x0, x1 = m, v, 0, 1
    best, a, x = t, 0, 0
    while r1:
        q = r0 // r1
        if q > best:
            best, a, x = q, r1, x1
        r0, r1, x0, x1 = r1, r0 - q * r1, x1, x0 - q * x1
    x = abs(x)
    return x if x and gcd(a, x) == 1 and gcd(x, m) == 1 else 1


def _inverse_from(A: DenseMatrix, l, ones, u, counter: MulCounter) -> DenseMatrix:
    # the inverse of the square matrix A from its decomposition's n x n blocks
    n = A.rows
    r = len(ones)
    if r < n:
        raise SingularError(f"matrix of rank {r} < {n} has no inverse", rank=r)
    counter.scalar_mults += n * n * n
    K = blocks(A.field)
    data = K.store(K.mul(u, K.perm_rows(ones, l, n, n)))
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
