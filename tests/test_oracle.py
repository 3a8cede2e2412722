"""Elimination oracle self-consistency."""

import random

import pytest

from leu import (
    GF,
    QQ,
    DenseMatrix,
    FieldMismatchError,
    MulCounter,
    ShapeError,
    SingularError,
    mat_mul_classical,
)
from leu.oracle import check_inverse, gauss_inverse, gauss_kernel, gauss_rank
from helpers import FIELDS, GF7, planted_rank, rand_matrix

rng = random.Random(0x0DDB109)


def test_rank_examples():
    assert gauss_rank(DenseMatrix.zeros(GF7, 3, 3)) == 0
    assert gauss_rank(DenseMatrix.identity(GF7, 4)) == 4
    assert gauss_rank(DenseMatrix(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_example():
    K = gauss_kernel(DenseMatrix(QQ, [[0, 1], [0, 0]]))
    assert K == DenseMatrix(QQ, [[1], [0]])


def test_inverse_examples():
    I = DenseMatrix.identity(GF7, 3)
    assert gauss_inverse(I) == I
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    assert gauss_inverse(A) == DenseMatrix(GF7, [[2, 1], [2, 4]])
    with pytest.raises(SingularError) as exc:
        gauss_inverse(DenseMatrix(GF7, [[0, 1], [0, 0]]))
    assert exc.value.rank == 1
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got \(2, 3\)$"):
        gauss_inverse(DenseMatrix(GF7, [[1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity_and_inverse(field):
    for _ in range(20):
        n = rng.randint(1, 9)
        A = planted_rank(field, n, rng.randint(0, n), rng)
        r = gauss_rank(A)
        K = gauss_kernel(A)
        assert r + K.cols == n
        if K.cols:
            assert mat_mul_classical(A, K, MulCounter()).is_zero()
            assert gauss_rank(K) == K.cols
        if r == n:
            assert check_inverse(A, gauss_inverse(A))
        else:
            with pytest.raises(SingularError):
                gauss_inverse(A)


def test_rectangular_kernel():
    A = rand_matrix(QQ, 3, 6, rng)
    K = gauss_kernel(A)
    assert K.rows == 6
    assert K.cols == 6 - gauss_rank(A)
    assert mat_mul_classical(A, K, MulCounter()).is_zero()


def test_check_inverse_does_not_use_the_product_kernel(monkeypatch):
    # a product kernel that is wrong everywhere, in either field, must not
    # change the verdict; the product itself does go wrong
    import leu.dense

    cases = []
    for field in (GF(65521), QQ):
        A = planted_rank(field, 6, 6, random.Random(7))
        inv = gauss_inverse(A)
        wrong = DenseMatrix._wrap(field, [row[:] for row in inv._d], 6, 6)
        wrong._d[2][3] = field.canon(wrong._d[2][3] + 1)
        cases.append((A, inv, wrong))
    monkeypatch.setattr(leu.dense, "_gfp_classical",
                        lambda x, y, k, c, p, tri: [[1] * c for _ in x])
    monkeypatch.setattr(leu.dense, "_int_classical",
                        lambda x, y, k, c: [[1] * c for _ in x])
    for A, inv, wrong in cases:
        assert mat_mul_classical(A, inv) != DenseMatrix.identity(A.field, 6)
        assert check_inverse(A, inv)
        assert not check_inverse(A, wrong)


@pytest.mark.parametrize("field", FIELDS)
def test_check_inverse_rejects(field):
    A = DenseMatrix(field, [[2, 1], [1, 1]])
    inv = gauss_inverse(A)
    assert check_inverse(A, inv)
    assert not check_inverse(A, DenseMatrix.identity(field, 2))
    assert not check_inverse(A, DenseMatrix.identity(field, 3))  # another shape
    assert not check_inverse(DenseMatrix(field, [[1, 0, 0], [0, 1, 0]]),
                             DenseMatrix(field, [[1, 0], [0, 1], [0, 0]]))
    other = QQ if field.kind == "gfp" else GF7
    with pytest.raises(FieldMismatchError):
        check_inverse(A, DenseMatrix(other, [[1, -1], [-1, 2]]))
