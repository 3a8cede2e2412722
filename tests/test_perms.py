"""Truncated permutations and diagonal masks: structure, supports and dense form."""

import random

import pytest
from hypothesis import given, strategies as st

from leu import (
    DenseMatrix,
    DiagIdem,
    TruncPerm,
    reversal_perm,
    tp_to_dense,
)
from helpers import GF7, diag, mul, rand_matrix

rng = random.Random(0xFACADE)


@st.composite
def trunc_perms(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = list(range(n))
    cols = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    draw(st.randoms(use_true_random=False)).shuffle(cols)
    k = draw(st.integers(min_value=0, max_value=n))
    return TruncPerm(n, list(zip(rows[:k], cols[:k])))


def rand_tp(n):
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    k = rng.randint(0, n)
    return TruncPerm(n, list(zip(rows[:k], cols[:k])))


def test_truncperm_validation():
    with pytest.raises(ValueError):
        TruncPerm(2, [(0, 0), (0, 1)])  # row used twice
    with pytest.raises(ValueError):
        TruncPerm(2, [(0, 0), (1, 0)])  # column used twice
    with pytest.raises(ValueError):
        TruncPerm(2, [(2, 0)])


@pytest.mark.parametrize("bad", [(1.9, 0), (0, 1.0), (True, 0), (0, False), ("1", 0), (0, "0")])
def test_truncperm_rejects_non_integer_positions(bad):
    # a float would be truncated and a bool or str coerced, silently moving a one
    with pytest.raises(TypeError):
        TruncPerm(3, [bad])


def test_truncperm_accepts_any_integral_position():
    class Pos:
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    E = TruncPerm(3, [(Pos(2), Pos(0))])
    assert E == TruncPerm(3, [(2, 0)])
    assert all(type(v) is int for pair in E.ones for v in pair)


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3", None])
def test_dimensions_must_be_integers(bad):
    # a float or bool size used to be kept as given and fail later, or not at all
    with pytest.raises(TypeError):
        TruncPerm(bad, [(1, 0)])
    with pytest.raises(TypeError):
        TruncPerm(bad)
    with pytest.raises(TypeError):
        DiagIdem(bad, 1)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
def test_diag_mask_must_be_an_integer(bad):
    # unchecked, a float mask would fail on an unrelated >> and a bool be kept as given
    with pytest.raises(TypeError, match="mask"):
        DiagIdem(3, bad)


def test_diag_mask_accepts_any_integral():
    class Mask:
        def __index__(self):
            return 0b101

    D = DiagIdem(3, Mask())
    assert D == DiagIdem(3, 0b101) and type(D.mask) is int


def test_dimensions_must_be_nonnegative():
    with pytest.raises(ValueError):
        TruncPerm(-1, [])
    with pytest.raises(ValueError):
        DiagIdem(-1)
    assert TruncPerm(0).ones == () and DiagIdem(0).mask == 0


def test_dimensions_accept_any_integral():
    class Size:
        def __index__(self):
            return 3

    E = TruncPerm(Size(), [(2, 0)])
    assert E == TruncPerm(3, [(2, 0)]) and type(E.n) is int
    D = DiagIdem(Size(), 0b101)
    assert D == DiagIdem(3, 0b101) and type(D.n) is int


def test_complement_examples():
    E = TruncPerm(2, [(0, 1)])
    assert E.complement() == TruncPerm(2, [(1, 0)])
    I = TruncPerm(3, [(i, i) for i in range(3)])
    assert I.complement() == TruncPerm(3)
    Z = TruncPerm(3)
    assert Z.complement() == TruncPerm(3, [(i, i) for i in range(3)])


def test_supports_example():
    E = TruncPerm(2, [(0, 1)])
    assert E.row_support() == DiagIdem(2, 0b01)
    assert E.col_support() == DiagIdem(2, 0b10)
    F = TruncPerm(3, [(0, 1), (1, 0), (2, 2)])
    assert F.row_support() == DiagIdem(3, 0b111)
    assert F.col_support() == DiagIdem(3, 0b111)


def test_diag_ops():
    assert DiagIdem(3, 0b011).mask == 0b011
    assert DiagIdem(3).mask == 0
    assert DiagIdem(3, 0b101) == DiagIdem(3, 0b101) != DiagIdem(4, 0b101)
    with pytest.raises(ValueError):
        DiagIdem(2, 0b100)  # bit outside the dimension


def test_reversal():
    assert reversal_perm(2) == TruncPerm(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        reversal_perm(0)
    for n in range(1, 17):
        r = tp_to_dense(reversal_perm(n), GF7)
        assert mul(r, r) == DenseMatrix.identity(GF7, n)


def test_reversal_conjugation_swaps_triangularity():
    n = 6
    lo = [[rand_matrix(GF7, 1, 1, rng)._d[0][0] if j <= i else 0 for j in range(n)]
          for i in range(n)]
    L = DenseMatrix(GF7, lo)
    r = reversal_perm(n)
    R = tp_to_dense(r, GF7)
    M = mul(mul(R, L), R)
    assert all(not M._d[i][j] for i in range(n) for j in range(i))


@given(trunc_perms())
def test_complement_completes_to_full_permutation(E):
    full = TruncPerm(E.n, E.ones + E.complement().ones)
    assert full.rank == E.n
    assert {i for i, _ in full.ones} == set(range(E.n))
    assert {j for _, j in full.ones} == set(range(E.n))


@given(trunc_perms())
def test_zero_identities(E):
    # E^T annihilates the complement of the row support, and symmetrically
    f = GF7
    d = tp_to_dense(E, f)
    dt = d.transpose()
    full = (1 << E.n) - 1
    ibar = diag(f, E.n, E.row_support().mask ^ full)
    jbar = diag(f, E.n, E.col_support().mask ^ full)
    z = DenseMatrix.zeros(f, E.n, E.n)
    assert mul(dt, ibar) == z
    assert mul(ibar, d) == z
    assert mul(d, jbar) == z
    assert mul(jbar, dt) == z


@given(trunc_perms())
def test_supports_match_dense_products(E):
    f = GF7
    d = tp_to_dense(E, f)
    dt = d.transpose()
    assert mul(d, dt) == diag(f, E.n, E.row_support().mask)
    assert mul(dt, d) == diag(f, E.n, E.col_support().mask)


def test_to_dense_roundtrip():
    E = TruncPerm(2, [(0, 1)])
    assert tp_to_dense(E, GF7) == DenseMatrix(GF7, [[0, 1], [0, 0]])
    assert tp_to_dense(reversal_perm(3), GF7) == DenseMatrix(GF7, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    for _ in range(20):
        F = rand_tp(rng.randint(1, 8))
        D = tp_to_dense(F, GF7)._d
        assert [(i, j) for i, row in enumerate(D) for j, v in enumerate(row) if v] == list(F.ones)
        assert all(v in (0, 1) for row in D for v in row)
