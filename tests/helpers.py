"""Shared builders for randomized tests.

All randomness flows through explicit random.Random instances so every
test is reproducible.
"""

from __future__ import annotations

import random

from leu import QQ, DenseMatrix, GF, MulCounter, TruncPerm, mat_mul_classical

GF7 = GF(7)
GF65521 = GF(65521)
FIELDS = (GF7, GF65521, QQ)


def rand_matrix(field, rows: int, cols: int, rng: random.Random) -> DenseMatrix:
    if field.kind == "gfp":
        p = field.modulus
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[field.canon(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    return DenseMatrix._wrap(field, data, rows, cols)


def planted_rank(field, n: int, r: int, rng: random.Random) -> DenseMatrix:
    """Random n x n matrix of rank at most r, as a product of thin factors."""
    if r == 0:
        return DenseMatrix.zeros(field, n, n)
    P = rand_matrix(field, n, r, rng)
    Q = rand_matrix(field, r, n, rng)
    return mat_mul_classical(P, Q, MulCounter())


def profiled(field, n: int, r: int, rng: random.Random) -> tuple:
    """(L0 * P * U0, P): L0 random n x n lower triangular with a nonzero
    diagonal, P a random truncated permutation of rank r and U0 random unit
    upper triangular.  P is the rank profile matrix of the product, so the
    decomposition's E is P; and unlike planted_rank's, the leading blocks need
    not have generic rank, so the middle recursions of a node do real work."""

    def entry(nonzero=False):
        if field.kind == "gfp":
            return rng.randrange(nonzero, field.modulus)
        return rng.choice((-1, 1)) * rng.randint(1, 9) if nonzero else rng.randint(-9, 9)

    lo = [[entry(True) if i == j else entry() if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else entry() if j > i else 0 for j in range(n)] for i in range(n)]
    P = TruncPerm(n, zip(rng.sample(range(n), r), rng.sample(range(n), r)))
    pu = [[0] * n for _ in range(n)]
    for i, j in P.ones:
        pu[i] = up[j]
    return mul(DenseMatrix(field, lo), DenseMatrix(field, pu)), P


def mul(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
    return mat_mul_classical(A, B, MulCounter())


def pow2_padded(A: DenseMatrix) -> DenseMatrix:
    """A as the leading block of its power-of-two square, zeros elsewhere."""
    m = 1 << (max(A.shape) - 1).bit_length()
    z = A.field.zero_raw
    data = [row + [z] * (m - A.cols) for row in A._d] + [[z] * m for _ in range(m - A.rows)]
    return DenseMatrix._wrap(A.field, data, m, m)


def beside_identity(rows: list, k: int, field) -> list:
    """The raw rows of diag(X, I_k) for the raw rows X (of any shape)."""
    z, o = field.zero_raw, field.one_raw
    width = len(rows[0]) if rows else 0
    return [row + [z] * k for row in rows] + [
        [z] * width + [o if j == i else z for j in range(k)] for i in range(k)]


def diag(field, n: int, mask: int) -> DenseMatrix:
    """Dense n x n diagonal 0/1 matrix: a one at (i, i) for each bit i of mask."""
    z, o = field.zero_raw, field.one_raw
    data = [[o if i == j and (mask >> i) & 1 else z for j in range(n)] for i in range(n)]
    return DenseMatrix._wrap(field, data, n, n)
