"""Bruhat decomposition, inverse, rank, kernel, largest nonsingular block."""

import random
from fractions import Fraction

import pytest

from leu import (
    GF,
    QQ,
    DenseMatrix,
    InvariantError,
    MulCounter,
    ShapeError,
    SingularError,
    TruncPerm,
    bruhat_decompose,
    invert_lower_triangular,
    invert_upper_unitriangular,
    kernel_basis,
    largest_nonsingular_block,
    leu_decompose,
    mat_inverse,
    mat_rank,
    reversal_perm,
    tp_to_dense,
)
from leu import oracle
from leu.cli import bench_matrix
from leu.dense import blocks, is_upper_triangular
from helpers import (FIELDS, GF7, GF65521, beside_identity, mul, planted_rank, pow2_padded, profiled,
                     rand_matrix)

rng = random.Random(0xB10C5)


def bruhat_product(br, field):
    return mul(mul(br.V1, tp_to_dense(br.w, field)), br.V2)


def test_bruhat_worked_example():
    M = DenseMatrix(GF7, [[0, 1], [0, 0]])
    br = bruhat_decompose(M)
    assert br.V1 == DenseMatrix(GF7, [[1, 0], [0, 0]])
    assert br.w == reversal_perm(2)
    assert br.V2 == DenseMatrix(GF7, [[0, 0], [0, 1]])
    assert bruhat_product(br, GF7) == M


def test_bruhat_identity():
    I = DenseMatrix.identity(GF7, 4)
    br = bruhat_decompose(I)
    assert bruhat_product(br, GF7) == I
    assert br.w.rank == 4


def test_bruhat_nonsingular_properties():
    for _ in range(10):
        A = rand_matrix(GF65521, 8, 8, rng)
        if oracle.gauss_rank(A) < 8:
            continue
        br = bruhat_decompose(A)
        assert bruhat_product(br, GF65521) == A
        assert is_upper_triangular(br.V1) and is_upper_triangular(br.V2)
        assert all(br.V1._d[i][i] for i in range(8))
        assert all(br.V2._d[i][i] for i in range(8))
        assert br.w.rank == 8
        # the decomposition of the row-reversed input, and the two triangular
        # inverses that the products stand for: 2 * 168 multiplications, 8 inversions
        for method, cutoff in (("classical", 32), ("strassen", 1)):
            c = MulCounter()
            bruhat_decompose(A, c, method=method, cutoff=cutoff)
            rev = leu_decompose(DenseMatrix(GF65521, A._d[::-1]), method=method, cutoff=cutoff)
            assert c == MulCounter(rev.counter.scalar_mults + 2 * 168, rev.counter.scalar_invs + 8)


def _bruhat_reference(M):
    # the paper's A = L^-1 E U^-1 read literally, on L R U = E for the
    # row-reversed R: V1 = J (L^-1 - D) J and V2 = U^-1 - D', with D and D' the
    # unit diagonals outside E's rows and columns, and the count of both inverses
    n, f = M.rows, M.field
    res = leu_decompose(DenseMatrix(f, M._d[::-1]))
    c = res.counter
    li, ui = invert_lower_triangular(res.L, c)._d, invert_upper_unitriangular(res.U, c)._d
    rows, cols = {i for i, _ in res.E.ones}, {j for _, j in res.E.ones}
    v1 = [[v - int(i == j and i not in rows) for j, v in enumerate(row)] for i, row in enumerate(li)]
    v2 = [[v - int(i == j and i not in cols) for j, v in enumerate(row)] for i, row in enumerate(ui)]
    full = [*res.E.ones, *res.E.complement().ones]
    w = TruncPerm(n, [(n - 1 - i, j) for i, j in full])
    return DenseMatrix(f, [row[::-1] for row in v1[::-1]]), w, DenseMatrix(f, v2), c


@pytest.mark.parametrize("field", [GF(2), GF7, GF65521, GF(2**61 - 1), QQ])
def test_bruhat_products_match_the_inverses_formula(field):
    # V1 = M U E^T J and V2 = E^T L J M are exactly the values of the form
    # read literally, and the count is that of its two triangular inverses
    r = random.Random(f"bruhat route {field!r}")
    for n in (3, 5, 12, 37):
        for rank in sorted({0, 1, n // 2, n - 1, n}):
            for M in (planted_rank(field, n, rank, r), profiled(field, n, rank, r)[0]):
                if field == QQ:
                    # rows and columns scaled by fractions keep the rank profile
                    d = [Fraction(r.randint(1, 9), r.randint(1, 9)) for _ in range(2 * n)]
                    M = DenseMatrix(QQ, [[v * d[i] * d[n + j] for j, v in enumerate(row)]
                                         for i, row in enumerate(M._d)])
                V1, w, V2, count = _bruhat_reference(M)
                for debug in (False, True):
                    c = MulCounter()
                    br = bruhat_decompose(M, c, debug_checks=debug)
                    assert (br.V1, br.w, br.V2, c) == (V1, w, V2, count)


@pytest.mark.parametrize("field", FIELDS)
def test_bruhat_random_incl_singular(field):
    for _ in range(15):
        n = rng.randint(1, 10)
        M = planted_rank(field, n, rng.randint(0, n), rng)
        br = bruhat_decompose(M)
        assert bruhat_product(br, field) == M
        assert is_upper_triangular(br.V1) and is_upper_triangular(br.V2)
        assert br.w.rank == n


def test_inverse_worked_example():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    assert mat_inverse(A) == DenseMatrix(GF7, [[2, 1], [2, 4]])


def test_inverse_identity():
    I = DenseMatrix.identity(QQ, 5)
    assert mat_inverse(I) == I


def test_inverse_singular():
    with pytest.raises(SingularError) as exc:
        mat_inverse(DenseMatrix(GF7, [[0, 1], [0, 0]]))
    assert exc.value.rank == 1


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_random_vs_oracle(field):
    for _ in range(10):
        n = rng.randint(1, 9)
        A = rand_matrix(field, n, n, rng)
        r = oracle.gauss_rank(A)
        if r < n:
            with pytest.raises(SingularError) as exc:
                mat_inverse(A)
            assert exc.value.rank == r
        else:
            inv = mat_inverse(A)
            assert oracle.check_inverse(A, inv)
            assert inv == oracle.gauss_inverse(A)


@pytest.mark.parametrize("seed", range(4))
def test_rational_inverses_take_blocks_with_scales_on_both_sides(seed):
    # the triangular inverse and U * E^T * L take L and U as the recursion
    # made them, with a scale per row and per column, none moved first
    from leu.dense import _inv_lower
    from leu.derived import _inverse_from

    r = random.Random(seed)
    K = blocks(QQ)

    def scales(n):
        if r.random() < 0.3:
            return [1] * n
        return [r.choice([1, 2, 3, 4, 6, 9, 35, 2**70 + 1]) for _ in range(n)]

    def triangle(n, unit):
        # lower triangular numerators; with unit, a unit diagonal once scaled
        rs, cs = scales(n), scales(n)
        nums = [[r.randint(-40, 40) if j < i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            nums[i][i] = rs[i] * cs[i] * (1 if unit else r.choice([-3, -1, 2, 5]))
        x = (nums, rs, cs)
        return x, DenseMatrix._wrap(QQ, K.store(x), n, n)

    for n in (1, 3, 4, 7):
        l, L = triangle(n, False)
        ut, Ut = triangle(n, True)
        assert K.store(_inv_lower(K, l, n, False)) == oracle.gauss_inverse(L)._d
        assert K.store(_inv_lower(K, ut, n, True)) == oracle.gauss_inverse(Ut)._d
        cols = list(range(n))
        r.shuffle(cols)
        ones = list(enumerate(cols))
        E = tp_to_dense(TruncPerm(n, ones), QQ)
        U = Ut.transpose()
        A = mul(mul(oracle.gauss_inverse(L), E), oracle.gauss_inverse(U))
        c = MulCounter()
        u = [list(col) for col in zip(*ut[0])], ut[2], ut[1]  # U's block: ut transposed
        assert _inverse_from(A, l, ones, u, c) == oracle.gauss_inverse(A)
        assert c.scalar_mults == n**3


def test_rank_examples():
    assert mat_rank(DenseMatrix.zeros(GF7, 4, 4)) == 0
    assert mat_rank(DenseMatrix.identity(GF7, 4)) == 4
    A = planted_rank(GF65521, 6, 3, rng)
    assert mat_rank(A) == oracle.gauss_rank(A)


def test_rank_rectangular():
    for _ in range(10):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(QQ, r, c, rng)
        assert mat_rank(A) == oracle.gauss_rank(A)


_STRASSEN = ({}, {"method": "strassen", "cutoff": 1}, {"method": "strassen", "cutoff": 2})


@pytest.mark.parametrize("field", [GF7, QQ], ids=["gf7", "qq"])
@pytest.mark.parametrize("shape,counts", [
    ((0, 5), (1904, 1581, 1768)),
    ((5, 0), (1904, 1581, 1768)),
    ((0, 1), (0, 0, 0)),
    ((3, 0), (204, 187, 204)),
])
def test_rank_of_an_empty_dimension(field, shape, counts):
    # rank 0 without padding; the count stays that of the recursion on the
    # zero square the input pads to, as it was when that recursion ran
    A = DenseMatrix.zeros(field, *shape)
    m = 1 << (max(shape) - 1).bit_length()
    for kw, want in zip(_STRASSEN, counts):
        c = MulCounter()
        assert mat_rank(A, c, **kw) == 0
        assert c == MulCounter(want, 0)
        assert leu_decompose(DenseMatrix.zeros(field, m, m), **kw).counter == c
        assert mat_rank(A, debug_checks=True, **kw) == 0
    with pytest.raises(ValueError, match="unknown multiplication method"):
        mat_rank(A, method="fast")
    with pytest.raises(ValueError, match="^cutoff must be >= 1$"):
        mat_rank(A, method="strassen", cutoff=0)


def test_rank_of_an_empty_dimension_allocates_nothing():
    m = 1 << 27
    c = MulCounter()
    assert mat_rank(DenseMatrix.zeros(GF7, 0, m), c) == 0
    assert c == MulCounter(17 * (m**3 - m**2) // 4, 0)


def test_kernel_worked_example():
    K = kernel_basis(DenseMatrix(GF7, [[0, 1], [0, 0]]))
    assert K == DenseMatrix(GF7, [[1], [0]])


def test_kernel_full_rank_empty():
    K = kernel_basis(DenseMatrix.identity(QQ, 3))
    assert K.shape == (3, 0)


def test_kernel_planted_rank():
    A = planted_rank(QQ, 8, 5, rng)
    r = oracle.gauss_rank(A)
    K = kernel_basis(A, debug_checks=True)
    assert K.cols == 8 - r
    assert mul(A, K).is_zero()
    assert oracle.gauss_rank(K) == K.cols
    assert oracle.gauss_kernel(A).cols == K.cols


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_random(field):
    for _ in range(10):
        n = rng.randint(1, 10)
        A = planted_rank(field, n, rng.randint(0, n), rng)
        K = kernel_basis(A, debug_checks=True)
        assert K.cols == n - oracle.gauss_rank(A)
        if K.cols:
            assert oracle.gauss_rank(K) == K.cols


def test_kernel_rectangular():
    for _ in range(20):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        A = rand_matrix(QQ, r, c, rng)
        K = kernel_basis(A, debug_checks=True)
        assert K.rows == c
        assert K.cols == c - oracle.gauss_rank(A)
        assert mul(A, K).is_zero()
        if K.cols:
            assert oracle.gauss_rank(K) == K.cols


def test_block_worked_examples():
    rows, cols = largest_nonsingular_block(DenseMatrix(GF7, [[0, 1], [0, 0]]), verify=True)
    assert rows == (0,) and cols == (1,)
    rows, cols = largest_nonsingular_block(DenseMatrix(GF7, [[0, 0], [1, 0]]), verify=True)
    assert rows == (1,) and cols == (0,)


def test_block_nonsingular_input():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    rows, cols = largest_nonsingular_block(A, verify=True)
    assert rows == (0, 1) and cols == (0, 1)


@pytest.mark.parametrize("field", FIELDS)
def test_block_random_singular(field):
    for _ in range(10):
        n = rng.randint(2, 9)
        A = planted_rank(field, n, rng.randint(0, n - 1), rng)
        rows, cols = largest_nonsingular_block(A, verify=True)
        r = oracle.gauss_rank(A)
        assert len(rows) == len(cols) == r
        assert oracle.gauss_rank(A.select(rows, cols)) == r


def test_block_verify_raises_typed_error(monkeypatch):
    # the cross-check is a contract: an oracle that under-reports the rank
    # of the selected block must raise InvariantError, not a bare assert
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    monkeypatch.setattr(oracle, "gauss_rank", lambda M: M.rows - 1)
    with pytest.raises(InvariantError, match="selected block is singular"):
        largest_nonsingular_block(A, verify=True)
    assert largest_nonsingular_block(A) == ((0, 1), (0, 1))


def test_counters_accumulate():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    c = MulCounter()
    mat_inverse(A, c)
    # 17 for the decomposition plus one final 2x2 dense product
    assert c.scalar_mults == 17 + 8


def test_non_square_bruhat_rejected():
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got \(2, 3\)$"):
        bruhat_decompose(rand_matrix(GF7, 2, 3, rng))
    with pytest.raises(ShapeError):
        mat_inverse(rand_matrix(GF7, 2, 3, rng))


@pytest.mark.parametrize("op", [leu_decompose, bruhat_decompose, mat_inverse, mat_rank,
                                kernel_basis, largest_nonsingular_block])
def test_empty_matrix_rejected(op):
    with pytest.raises(ShapeError, match="^empty matrix$"):
        op(DenseMatrix(GF7, []))


def test_rational_derived_operations_store_only_what_they_return(monkeypatch):
    # the derived operations read the decomposition's blocks: the rank and
    # the block store nothing, the inverse stores only itself, the kernel
    # only U, and the decomposition L and U
    from leu.dense import _RationalBlocks

    calls = []
    real = _RationalBlocks.store

    def counted(self, x):
        calls.append(len(x[0]))
        return real(self, x)

    monkeypatch.setattr(_RationalBlocks, "store", counted)
    A = planted_rank(QQ, 5, 5, random.Random(21))  # 5 x 5 pads to 8 x 8
    for op, want in ((mat_rank, []), (largest_nonsingular_block, []), (mat_inverse, [5]),
                     (kernel_basis, [5]), (leu_decompose, [5, 5])):
        calls.clear()
        op(A)
        assert calls == want, op.__name__


def _planted(field, rows, cols, r):
    # a rows x cols matrix of rank at most r, seeded by its parameters: the
    # product of two sparse factors, so that leading blocks are singular in
    # ways that give the middle children of a node nonzero blocks
    g = random.Random(f"{field!r} {rows} {cols} {r}")

    def sparse(m, k):
        return DenseMatrix(field, [[g.randrange(1, 10) if g.random() < 0.3 else 0 for _ in range(k)]
                                   for _ in range(m)])

    if r == 0:
        return DenseMatrix.zeros(field, rows, cols)
    return mul(sparse(rows, r), sparse(r, cols))


def _padded(A):
    # A with zero rows or columns added to make it square
    s = max(A.shape)
    z = A.field.zero_raw
    data = [row + [z] * (s - A.cols) for row in A._d] + [[z] * s for _ in range(s - A.rows)]
    return DenseMatrix._wrap(A.field, data, s, s)


@pytest.mark.parametrize("field", [GF(2), GF7, GF65521, QQ], ids=["gf2", "gf7", "gf65521", "qq"])
@pytest.mark.parametrize("shape", [(5, 5), (16, 16), (6, 11), (16, 9)], ids=str)
@pytest.mark.parametrize("kw", _STRASSEN[:2], ids=["classical", "strassen-1"])
def test_rank_kernel_and_block_read_the_full_decomposition(field, shape, kw):
    # the rank and the block read only E and the kernel only E and U, so their
    # nodes skip the products of the other factors; what they return and count,
    # and every node's log entry, are those of the decomposition of A made square
    from leu.decompose import _E, _L, _LU, _U, _leu_blocks
    from leu.derived import _kernel_from

    rows, cols = shape
    s = max(shape)
    g = random.Random(f"profiled {field!r} {shape}")
    inputs = [_planted(field, rows, cols, r) for r in sorted({0, min(shape) // 2, min(shape)})]
    # the leading block of L0 * P * U0 is the same kind of product, of a smaller P
    inputs += [profiled(field, s, r, g)[0].select(range(rows), range(cols))
               for r in sorted({0, s // 2, s - 1, s})]
    for A in inputs:
        log = []
        full = leu_decompose(_padded(A), **kw, _node_log=log)
        c = MulCounter()
        assert mat_rank(A, c, **kw) == full.rank
        assert c == full.counter
        c = MulCounter()
        assert kernel_basis(A, c, **kw) == _kernel_from(A, full.E.ones, full.U._d)
        assert c == full.counter
        if rows == cols:
            c = MulCounter()
            assert largest_nonsingular_block(A, c, **kw) == (
                tuple(sorted(i for i, _ in full.E.ones)), tuple(sorted(j for _, j in full.E.ones)))
            assert c == full.counter
        K = blocks(field)
        for reads in (_E, _L, _U, _LU):
            for parallel in (False, True):
                got = []
                c = MulCounter()
                l, e, u, _ = _leu_blocks(A, reads, c, kw.get("method", "classical"),
                                         kw.get("cutoff", 32), False, parallel, got)
                assert (sorted(e), c, got) == (sorted(full.E.ones), full.counter, log)
                if reads & _L:
                    assert beside_identity(K.store(l), s - rows, field) == full.L._d
                if reads & _U:
                    assert beside_identity(K.store(u), s - cols, field) == full.U._d


@pytest.mark.parametrize("field", [GF(2), GF7, GF65521, QQ], ids=["gf2", "gf7", "gf65521", "qq"])
@pytest.mark.parametrize("shape", [(1, 5), (6, 11), (16, 9), (33, 2)], ids=str)
@pytest.mark.parametrize("kw", _STRASSEN[:2], ids=["classical", "strassen-1"])
@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_rank_and_kernel_of_a_rectangle_are_those_of_its_padded_square(field, shape, kw, debug):
    # the recursion runs on A's own rows and columns: the rank, the kernel and
    # the count are those of A padded with zeros, by hand, to its power-of-two
    # square, whose extra columns are free and add the identity to the basis
    rows, cols = shape
    for A in (rand_matrix(field, rows, cols, random.Random(f"{field!r} {shape}")),
              _planted(field, rows, cols, min(shape) // 2)):
        P = pow2_padded(A)
        got, want = MulCounter(), MulCounter()
        assert mat_rank(A, got, **kw, debug_checks=debug) == mat_rank(P, want, **kw,
                                                                       debug_checks=debug)
        assert got == want
        got, want = MulCounter(), MulCounter()
        K = kernel_basis(A, got, **kw, debug_checks=debug)
        assert kernel_basis(P, want, **kw, debug_checks=debug)._d == beside_identity(
            K._d, P.cols - cols, field)
        assert got == want


@pytest.mark.parametrize("field", [GF(2), GF7, GF65521, QQ], ids=str)
@pytest.mark.parametrize("debug", [False, True], ids=["fast", "debug"])
def test_each_one_of_e_counts_one_inversion(field, debug):
    # each one of E is one nonzero pivot inverted, by an n = 1 node or a
    # GF(p) leaf, and nothing else inverts: scalar_invs is the rank for every
    # operation that runs the decomposition body and reads no inverse
    r = random.Random(0x1A5)
    inputs = []
    for n in (1, 2, 5, 12, 19):
        inputs.append(rand_matrix(field, n, n, r))
        inputs += [profiled(field, n, k, r)[0] for k in (0, n // 2, n)]
    for A in inputs:
        counts = []
        for op in (leu_decompose, mat_rank, kernel_basis):
            c = MulCounter()
            op(A, c, debug_checks=debug)
            counts.append(c.scalar_invs)
        c = MulCounter()
        largest_nonsingular_block(A, c, verify=debug)
        counts.append(c.scalar_invs)
        assert counts == [oracle.gauss_rank(A)] * 4


def test_rank_and_kernel_skip_the_unread_products(monkeypatch):
    # on a full-rank input every product runs the kernel: the rank, which
    # reads only E, runs fewer than the kernel, which reads E and U, and the
    # kernel fewer than the decomposition, which reads both factors
    from leu.dense import _PrimeBlocks

    calls = []
    real = _PrimeBlocks._classical

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(_PrimeBlocks, "_classical", counted)
    A = bench_matrix(32, 1)
    made = []
    for op in (mat_rank, kernel_basis, leu_decompose):
        calls.clear()
        op(A)
        made.append(len(calls))
    assert made[0] < made[1] < made[2]
