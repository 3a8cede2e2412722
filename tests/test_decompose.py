"""Core factorization: base cases, worked traces, invariants, counting."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import leu
from leu import (
    GF,
    QQ,
    BruhatResult,
    DenseMatrix,
    InvariantError,
    LeuResult,
    MulCounter,
    ShapeError,
    SingularError,
    TruncPerm,
    VerifyReport,
    bruhat_decompose,
    kernel_basis,
    leu_decompose,
    leu_verify,
    mat_inverse,
    mat_rank,
    tp_to_dense,
)
from leu import oracle
from helpers import (FIELDS, GF7, GF65521, beside_identity, mul, planted_rank, pow2_padded, profiled,
                     rand_matrix)

rng = random.Random(0x1EAF)


def reconstructs(A, res):
    return mul(mul(res.L, A), res.U) == tp_to_dense(res.E, A.field)


def test_base_zero():
    res = leu_decompose(DenseMatrix(GF7, [[0]]))
    assert res.L == DenseMatrix(GF7, [[1]])
    assert res.E == TruncPerm(1)
    assert res.U == DenseMatrix(GF7, [[1]])
    assert res.counter.scalar_invs == 0


def test_base_nonzero_gf7():
    c = MulCounter()
    res = leu_decompose(DenseMatrix(GF7, [[3]]), c)
    assert res.L == DenseMatrix(GF7, [[5]])
    assert res.E == TruncPerm(1, [(0, 0)])
    assert res.U == DenseMatrix(GF7, [[1]])
    assert c.scalar_invs == 1


def test_base_rational():
    res = leu_decompose(DenseMatrix(QQ, [[QQ(-2) / QQ(3)]]))
    assert res.L == DenseMatrix(QQ, [[QQ(-3) / QQ(2)]])
    assert res.E == TruncPerm(1, [(0, 0)])
    assert res.U == DenseMatrix(QQ, [[1]])
    assert res.counter.scalar_invs == 1


def test_worked_trace_gf7():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    c = MulCounter()
    res = leu_decompose(A, c)
    assert res.L == DenseMatrix(GF7, [[5, 0], [2, 4]])
    assert res.E == TruncPerm(2, [(0, 0), (1, 1)])
    assert res.U == DenseMatrix(GF7, [[1, 2], [0, 1]])
    assert c.scalar_mults == 17


def test_worked_trace_nilpotent():
    A = DenseMatrix(GF7, [[0, 1], [0, 0]])
    res = leu_decompose(A)
    assert res.L == DenseMatrix.identity(GF7, 2)
    assert res.E == TruncPerm(2, [(0, 1)])
    assert res.U == DenseMatrix.identity(GF7, 2)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_zero_matrix(n):
    res = leu_decompose(DenseMatrix.zeros(GF7, n, n))
    assert res.L == DenseMatrix.identity(GF7, n)
    assert res.E == TruncPerm(n)
    assert res.U == DenseMatrix.identity(GF7, n)


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
def test_a_zero_block_builds_only_the_factors_its_caller_reads(field):
    # L = U = I, E empty: each factor that reads leaves out comes back as
    # None, each one it asks for as the identity of the real block's order.
    # The recursion counts nothing; the body counts the zero root of order n
    # from the model
    from math import inf

    from leu.decompose import _E, _L, _LU, _U, _leu_blocks, _leu_rec, _Plan, _tree_count

    for n, r, c, im, jm in [(1, 1, 1, 1, 1), (4, 3, 2, 0b111, 0b11), (8, 5, 8, 0, 0xFF),
                            (8, 0, 6, 0, 0b111111)]:
        for reads in (_E, _L, _U, _LU):
            plan = _Plan(field, False, False, MulCounter())
            Z = DenseMatrix.zeros(field, r, c)
            counter = MulCounter()
            body = _leu_blocks(Z, reads, counter, "classical", 32, False)
            for l, e, u in (_leu_rec(plan.k.load(Z._d), n, im, jm, plan, reads, r, c), body[:3]):
                assert e == []
                for got, k, bit in ((l, r, _L), (u, c, _U)):
                    if reads & bit:
                        assert plan.k.store(got) == DenseMatrix.identity(field, k)._d
                    else:
                        assert got is None
            assert plan.counter == MulCounter()
            assert counter == MulCounter(scalar_mults=_tree_count(n, inf))


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
@pytest.mark.parametrize("shape", [(1, 600), (600, 1)])
def test_a_row_or_a_column_builds_no_factor_that_nothing_reads(field, shape, monkeypatch):
    # the rank reads E alone.  No node of a row has rows below its top half
    # (r2 = 0), so no U of it meets a nonempty block; no node of a column has
    # columns right of its left half (c2 = 0), so no L does.  Only a GF(p)
    # leaf, which makes both its factors, returns one, of order 4 at most.
    # Nor does a column build t = b * E11^T, which then meets only the empty
    # q: no block with permuted columns gets a row
    from math import inf

    from leu import decompose
    from leu.decompose import _model_log, _tree_count
    from leu.dense import blocks

    real = decompose._leu_rec
    orders = []
    kernel = blocks(field)
    real_perm_cols = kernel.perm_cols
    heights = []

    def perm_cols(self, x, ones, c):
        out = real_perm_cols(x, ones, c)
        heights.append(self.height(out))
        return out

    def recorded(a, n, im, jm, plan, reads, r, c):
        l, e, u = real(a, n, im, jm, plan, reads, r, c)
        unread = u if shape[0] == 1 else l
        if unread is not None:
            orders.append(plan.k.height(unread))
        return l, e, u

    monkeypatch.setattr(decompose, "_leu_rec", recorded)
    monkeypatch.setattr(type(kernel), "perm_cols", perm_cols)
    A = rand_matrix(field, *shape, random.Random(600))
    assert not A.is_zero()
    c = MulCounter()
    assert mat_rank(A, c) == 1
    assert max(orders, default=0) <= 4
    assert not any(heights)
    assert c.scalar_mults == _tree_count(1024, inf)
    log = []
    decompose._leu_blocks(A, decompose._E, MulCounter(), "classical", 32, False, False, log)
    assert log == _model_log(1024, inf)


def test_a_column_hands_on_the_cached_identity_as_its_u(monkeypatch):
    # a column's U is [[1]] at every node.  A cropped GF(p) leaf and every
    # node with no columns right of its top-left quarter hand on the kernel's
    # cached identity(1), which every product skips: no kernel product runs
    # with y = [[1]]
    from leu import dense

    ys = []
    real = dense._PrimeBlocks._classical

    def recorded(self, x, y, *rest):
        ys.append(y)
        return real(self, x, y, *rest)

    monkeypatch.setattr(dense._PrimeBlocks, "_classical", recorded)
    A = rand_matrix(GF7, 3000, 1, random.Random(3000))
    assert mat_rank(A) == 1
    assert [[1]] not in ys


def test_identity_any_size():
    for n in (1, 3, 5, 8):
        res = leu_decompose(DenseMatrix.identity(QQ, n))
        assert res.L == DenseMatrix.identity(QQ, n)
        assert res.E == TruncPerm(n, [(i, i) for i in range(n)])
        assert res.U == DenseMatrix.identity(QQ, n)


def test_scaled_permutation():
    # input a*E: L must be a^-1 on the support, 1 elsewhere, and U stays I
    for _ in range(20):
        n = rng.randint(1, 8)
        rows = rng.sample(range(n), n)
        cols = rng.sample(range(n), n)
        k = rng.randint(0, n)
        E = TruncPerm(n, list(zip(rows[:k], cols[:k])))
        a = GF65521(rng.randrange(1, 65521))
        A = DenseMatrix._wrap(GF65521, [[a.value if (i, j) in E.ones else 0 for j in range(n)]
                                        for i in range(n)], n, n)
        res = leu_decompose(A)
        assert res.E == E
        assert res.U == DenseMatrix.identity(GF65521, n)
        ainv = a.inv().value
        expect = [[(ainv if (i >> 0) in {r for r, _ in E.ones} else 1) if i == j else 0
                   for j in range(n)] for i in range(n)]
        assert res.L == DenseMatrix(GF65521, expect)
        assert reconstructs(A, res)


def test_rank_reported_by_support():
    A = planted_rank(QQ, 5, 2, rng)
    res = leu_decompose(A)
    assert res.rank == oracle.gauss_rank(A) == len(res.E.ones)


@pytest.mark.parametrize("field", FIELDS + (GF(2), GF(3)))
def test_reconstruction_random(field):
    for _ in range(25):
        n = rng.randint(1, 12)
        A = planted_rank(field, n, rng.randint(0, n), rng)
        res = leu_decompose(A, debug_checks=True)
        assert reconstructs(A, res)
        assert leu_verify(A, res).passed
        assert res.rank == oracle.gauss_rank(A)


@pytest.mark.parametrize("field", FIELDS + (GF(2), GF(3)))
def test_e_is_p_on_profiled_inputs(field):
    # L0 * P * U0 has the rank profile matrix P, so E == P at every size and
    # rank, and the middle recursions of its nodes get nonzero blocks
    r = random.Random(0x1F)
    for n in range(1, 34):
        for rank in sorted({0, 1, n // 2, n - 1, n}):
            A, P = profiled(field, n, rank, r)
            res = leu_decompose(A)
            assert res.E == P, (A._d, rank)
            assert reconstructs(A, res)
            if n <= 12:
                assert leu_decompose(A, debug_checks=True).E == P


def test_block_support_disjointness():
    # quadrants of E occupy disjoint rows/columns pairwise as the recursion
    # distributes zero rows and columns
    for _ in range(25):
        n = rng.choice([2, 4, 8])
        A = planted_rank(GF7, n, rng.randint(0, n), rng)
        E = leu_decompose(A).E
        h = n // 2
        quads = [[], [], [], []]  # ones of E11, E12, E21, E22
        for i, j in E.ones:
            quads[2 * (i >= h) + (j >= h)].append((i % h, j % h))
        e11, e12, e21, e22 = (TruncPerm(h, q) for q in quads)
        assert not (e11.col_support().mask & e21.col_support().mask)
        assert not (e11.row_support().mask & e12.row_support().mask)
        assert not (e22.row_support().mask & e21.row_support().mask)
        assert not (e22.col_support().mask & e12.col_support().mask)
        f = GF7
        z = DenseMatrix.zeros(f, n // 2, n // 2)
        d11, d21 = tp_to_dense(e11, f), tp_to_dense(e21, f)
        d12, d22 = tp_to_dense(e12, f), tp_to_dense(e22, f)
        assert mul(d11, d21.transpose()) == z
        assert mul(d12.transpose(), d11) == z
        assert mul(d12, d22.transpose()) == z
        assert mul(d22.transpose(), d21) == z


def test_exact_17_products_per_node():
    log = []
    A = rand_matrix(GF65521, 16, 16, rng)
    c = MulCounter()
    leu_decompose(A, c, _node_log=log)
    assert len(log) == 1 + 4 + 16 + 64  # internal nodes of sizes 16, 8, 4, 2
    for size, own in log:
        h = size // 2
        assert own == 17 * h * h * h
    assert c.scalar_mults == sum(own for _, own in log)


@pytest.mark.parametrize("field", (GF7, GF65521, QQ), ids=str)
def test_each_node_makes_the_products_its_caller_reads(field, monkeypatch):
    # the paper's node makes 17 half-size products: 5 on the way to E and 6
    # more for each of L and U, which it makes only when its caller reads that
    # factor.  Each product is charged to the innermost node running.  A zero
    # block, a pivot, a GF(p) leaf and a node whose real block fits in its
    # top-left quarter make none of their own.  debug_checks runs the GF(p)
    # nodes of n <= 4 through the body and reads both factors everywhere; the
    # rank (E) and the kernel (E and U) ask for less
    from leu import decompose
    from leu.decompose import _L, _U, _Plan

    real_mm, real_rec = _Plan.mm, decompose._leu_rec
    running = []  # the products of each node entered and not yet left
    kinds = set()

    def charged(self, x, y, *rest):
        running[-1] += 1
        return real_mm(self, x, y, *rest)

    def node(a, n, im, jm, plan, reads, r, c):
        h = n >> 1
        if not (im and jm) or plan.k.is_zero(a) or n == 1 or plan.leaf and n <= 4:
            want = None  # no node body: computes without a block product
        elif r <= h and c <= h:
            want = 0
        else:
            want = 5 + 6 * bool(reads & _L) + 6 * bool(reads & _U)
        running.append(0)
        out = real_rec(a, n, im, jm, plan, reads, r, c)
        made = running.pop()
        assert made == (want or 0), (n, r, c, reads, made)
        kinds.add(want)
        return out

    monkeypatch.setattr(_Plan, "mm", charged)
    monkeypatch.setattr(decompose, "_leu_rec", node)
    g = random.Random(f"17 products {field!r}")
    for n in (2, 3, 4, 5, 8, 11, 12):
        for A in (planted_rank(field, n, n // 2, g), planted_rank(field, n, n, g),
                  profiled(field, n, n // 2, g)[0], profiled(field, n, n - 1, g)[0]):
            for debug in (True, False):
                leu_decompose(A, debug_checks=debug)
                mat_rank(A, debug_checks=debug)
                kernel_basis(A, debug_checks=debug)
                mat_rank(A.select(range(n // 2 + 1), range(n)), debug_checks=debug)
    assert kinds == {None, 0, 5, 11, 17}


LEAF_MODES = [dict(method=m, cutoff=c, parallel=par)
              for m, c in (("classical", 32), ("strassen", 1)) for par in (False, True)]


def _leaf_run(A, debug, **kw):
    # the entries by repr, so that a flag standing in for an integer shows
    c, log = MulCounter(), []
    res = leu_decompose(A, c, debug_checks=debug, _node_log=log, **kw)
    return repr((res.L._d, res.E.ones, res.U._d)), c.scalar_mults, c.scalar_invs, log


def assert_leaf_matches_the_recursion(A, modes=LEAF_MODES):
    # debug_checks runs every GF(p) node of n <= 4 through the plain recursion,
    # without it the scalar leaves: values, E, counts and node log must agree
    for kw in modes:
        assert _leaf_run(A, False, **kw) == _leaf_run(A, True, **kw), (A._d, kw)


def _all_matrices(field, n, pad=0):
    # every n x n matrix over a prime field, with pad zero rows and columns
    for v in itertools.product(range(field.modulus), repeat=n * n):
        rows = [list(v[i * n:(i + 1) * n]) + [0] * pad for i in range(n)]
        yield DenseMatrix(field, rows + [[0] * (n + pad)] * pad)


@pytest.mark.parametrize("p", (2, 5))
def test_gfp_leaf_matches_the_recursion_on_every_2x2(p, monkeypatch):
    from leu import decompose

    leaves = [0]
    real = decompose._leaf4

    def counted(a, p, inv):
        leaves[0] += 1
        return real(a, p, inv)

    monkeypatch.setattr(decompose, "_leaf4", counted)
    for A in _all_matrices(GF(p), 2):
        assert_leaf_matches_the_recursion(A)
    # each nonzero matrix takes the one leaf entry, padded to 4 x 4, once per
    # mode, and only without debug_checks
    assert leaves[0] == (p**4 - 1) * len(LEAF_MODES)


def test_gfp_leaf_matches_the_recursion_under_a_node():
    # every 3 x 3 over GF(2), padded to 4 x 4: the n = 2 leaf sees the blocks
    # a running 4 x 4 node hands it, the padding's zero rows and columns included
    for A in _all_matrices(GF(2), 3, pad=1):
        assert_leaf_matches_the_recursion(A)


def test_gfp_leaf4_matches_the_recursion_on_every_4x4(monkeypatch):
    # L, E, U and the counts of the n = 4 leaf do not depend on the mode, so
    # one mode covers every 4 x 4 over GF(2); the sample below covers the modes
    from leu import decompose

    leaves = [0]
    real = decompose._leaf4

    def counted(a, p, inv):
        leaves[0] += 1
        return real(a, p, inv)

    monkeypatch.setattr(decompose, "_leaf4", counted)
    for A in _all_matrices(GF(2), 4):
        assert_leaf_matches_the_recursion(A, LEAF_MODES[:1])
    # each nonzero matrix takes the leaf once, and only without debug_checks
    assert leaves[0] == 2**16 - 1


def _zero_quadrants(A, mask):
    # A with each 2 x 2 quadrant k of its 4 x 4 set to zero where bit k of mask is
    rows = [list(r) for r in A._d]
    for k in range(4):
        if (mask >> k) & 1:
            for i, j in itertools.product(range(2), repeat=2):
                rows[2 * (k >> 1) + i][2 * (k & 1) + j] = 0
    return DenseMatrix(A.field, rows)


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_gfp_leaf4_matches_the_recursion_in_every_mode(p):
    # seeded 4 x 4 at every planted rank, half of them with zero quadrants
    r = random.Random(0x1EAF4 + p)
    for case in range(670):
        A = planted_rank(GF(p), 4, case % 5, r)
        if case % 2:
            A = _zero_quadrants(A, r.randrange(1, 16))
        assert_leaf_matches_the_recursion(A)


def test_gfp_leaf4_matches_the_recursion_under_larger_nodes():
    # n = 5 to 16 over GF(2): the n = 4 leaves run under n = 8 and n = 16 nodes
    r = random.Random(0x1EAF5)
    for n in range(5, 17):
        for rank in sorted({0, 1, n // 2, n - 1, n}):
            assert_leaf_matches_the_recursion(planted_rank(GF(2), n, rank, r))


@pytest.mark.parametrize("p", (2, 7, 65521))
def test_gfp_leaf_matches_the_recursion_on_profiled_inputs(p):
    # n = 4 to 16: the leaves run under nodes whose middle children are nonzero
    r = random.Random(0x1EAF6 + p)
    for n in range(4, 17):
        for rank in sorted({0, 1, n // 2, n - 1, n}):
            assert_leaf_matches_the_recursion(profiled(GF(p), n, rank, r)[0])


@pytest.mark.parametrize("p", (7, 65521))
def test_gfp_leaf_matches_the_recursion_seeded(p):
    r = random.Random(0x1EAF2 + p)
    for n in range(3, 17):
        for rank in sorted({0, n // 2, n}):
            assert_leaf_matches_the_recursion(planted_rank(GF(p), n, rank, r))


def test_total_count_closed_form():
    # classical multiplication: 17 * (n^3 - n^2) / 4 for power-of-two n
    for n in (2, 4, 8, 16, 32):
        A = rand_matrix(GF7, n, n, rng)
        c = MulCounter()
        leu_decompose(A, c)
        assert c.scalar_mults == 17 * (n**3 - n**2) // 4


@pytest.mark.parametrize("field", FIELDS)
def test_count_does_not_depend_on_the_data(field):
    # zero blocks, and products with a zero or identity operand, are skipped
    # without arithmetic but must be counted exactly as if computed
    n = 16
    inputs = [
        DenseMatrix.zeros(field, n, n),
        DenseMatrix.identity(field, n),
        planted_rank(field, n, 3, rng),
        rand_matrix(field, n, n, rng),
    ]
    for method, cutoff in (("classical", 32), ("strassen", 1), ("strassen", 4)):
        counts = set()
        for A in inputs:
            c = MulCounter()
            leu_decompose(A, c, method=method, cutoff=cutoff)
            counts.add(c.scalar_mults)
        assert len(counts) == 1, (method, cutoff, counts)
    c = MulCounter()
    leu_decompose(DenseMatrix.zeros(field, n, n), c, method="strassen", cutoff=1)
    # per level: 17 products of 8x8, 4 x 17 of 4x4, 16 x 17 of 2x2, 64 x 17 of 1x1
    assert c.scalar_mults == 17 * (7**3 + 4 * 7**2 + 16 * 7 + 64)


def test_strassen_and_classical_agree():
    A = rand_matrix(GF65521, 8, 8, rng)
    r1 = leu_decompose(A)
    r2 = leu_decompose(A, method="strassen", cutoff=1)
    assert (r1.L, r1.E, r1.U) == (r2.L, r2.E, r2.U)
    r3 = leu_decompose(A, method="strassen", cutoff=2)
    assert (r1.L, r1.E, r1.U) == (r3.L, r3.E, r3.U)


def _strassen_tree_count(m, cutoff):
    # 17 Strassen products of half size per node, four children per node
    from leu.dense import strassen_count

    if m == 1:
        return 0
    return 17 * strassen_count(m // 2, cutoff) + 4 * _strassen_tree_count(m // 2, cutoff)


@pytest.mark.parametrize("p", (2, 7, 65521, 2**64 - 59, "QQ"))
def test_strassen_decomposition_matches_classical(p):
    # Strassen-mode products run on the field's one kernel and keep Strassen's
    # count; L, E, U must be the classical bytes and the count the model
    r = random.Random(p)
    F = QQ if p == "QQ" else GF(p)
    for n in (17,) if F is QQ else (17, 33, 40):
        A = rand_matrix(F, n, n, r)
        d = [row[:] for row in A._d]
        for i in r.sample(range(n), 3):
            d[i] = [0] * n
        for i in range(n // 2):
            d[i][n // 2:] = [0] * (n - n // 2)
        A = DenseMatrix(F, d)
        ref_c = MulCounter()
        ref = leu_decompose(A, ref_c)
        m = 1 << (n - 1).bit_length()
        for cutoff in (1, 2, 8) if F is QQ else (1, 2, 8, 32):
            c = MulCounter()
            res = leu_decompose(A, c, method="strassen", cutoff=cutoff)
            assert (str(res.L), res.E.ones, str(res.U)) == (str(ref.L), ref.E.ones, str(ref.U))
            assert c.scalar_mults == _strassen_tree_count(m, cutoff), (n, cutoff)
            assert c.scalar_invs == ref_c.scalar_invs


def _zero_top_left(field, n, r):
    # e11 is empty at the root, so the two middle blocks are the input's own
    # off-diagonal quarters and both middle recursions have work to do
    d = [row[:] for row in rand_matrix(field, n, n, r)._d]
    for row in d[: n // 2]:
        row[: n // 2] = [field.zero_raw] * (n // 2)
    return DenseMatrix._wrap(field, d, n, n)


def test_parallel_matches_sequential():
    # parallel=True evaluates each node's two middle recursions in the
    # opposite order; L, E, U, the counts and the node log's entries must
    # not notice
    r = random.Random(0x0DD)
    inputs = []
    for field in FIELDS:
        inputs.append(DenseMatrix(field, [[0, 1], [0, 0]]))  # gf7_nilpotent over field
        inputs += [_zero_top_left(field, n, r) for n in (4, 8, 16, 12)]
    for A in inputs:
        for method, cutoff in (("classical", 32), ("strassen", 1)):
            c_seq, c_rev, log_seq, log_rev = MulCounter(), MulCounter(), [], []
            seq = leu_decompose(A, c_seq, method=method, cutoff=cutoff, _node_log=log_seq)
            rev = leu_decompose(A, c_rev, method=method, cutoff=cutoff, parallel=True,
                                _node_log=log_rev)
            assert (str(seq.L), seq.E, str(seq.U)) == (str(rev.L), rev.E, str(rev.U))
            assert c_seq == c_rev
            assert sorted(log_seq) == sorted(log_rev)
            assert sum(own for _, own in log_rev) == c_rev.scalar_mults
            assert sum(own for _, own in log_seq) == c_seq.scalar_mults


@pytest.mark.parametrize("field", FIELDS)
def test_logged_run_matches_skipping_run(field):
    # a _node_log run lists a skipped zero block's subtree from the model:
    # the skipped work must be counted exactly as the work performed
    r = random.Random(0x106)
    for n, rank in ((8, 0), (16, 3), (16, 8), (12, 5)):
        A = planted_rank(field, n, rank, r)
        for method, cutoff in (("classical", 32), ("strassen", 1)):
            log, c_log, c = [], MulCounter(), MulCounter()
            logged = leu_decompose(A, c_log, method=method, cutoff=cutoff, _node_log=log)
            plain = leu_decompose(A, c, method=method, cutoff=cutoff)
            assert (str(logged.L), logged.E, str(logged.U)) == (str(plain.L), plain.E, str(plain.U))
            assert c_log == c
            assert sum(own for _, own in log) == c.scalar_mults


@pytest.mark.parametrize("field", FIELDS)
def test_logged_run_does_the_work_of_a_plain_run(field, monkeypatch):
    # keeping a _node_log must not change which block products run: a zero
    # block is skipped whether or not a log is kept
    from leu import dense

    calls = {"mul": 0, "classical": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(dense._Blocks, "mul", counting("mul", dense._Blocks.mul))
    for cls in (dense._PrimeBlocks, dense._RationalBlocks):
        monkeypatch.setattr(cls, "_classical", counting("classical", cls._classical))
    r = random.Random(0x107)
    for n, rank in ((8, 0), (16, 3), (16, 8), (12, 5)):
        A = planted_rank(field, n, rank, r)
        for method, cutoff in (("classical", 32), ("strassen", 1)):
            runs = []
            for log in (None, []):
                calls.update(mul=0, classical=0)
                leu_decompose(A, method=method, cutoff=cutoff, _node_log=log)
                runs.append(dict(calls))
            assert runs[0] == runs[1], (n, rank, method)


def test_padding_truncation_roundtrip():
    for s in (3, 5, 6, 7, 9, 48):
        A = planted_rank(GF65521, s, rng.randint(0, s), rng)
        res = leu_decompose(A, debug_checks=True)
        assert res.L.shape == (s, s) and res.U.shape == (s, s) and res.E.n == s
        assert reconstructs(A, res)


@pytest.mark.parametrize("field", [GF(2), GF7, GF65521, QQ], ids=["gf2", "gf7", "gf65521", "qq"])
@pytest.mark.parametrize("kw", [{}, {"method": "strassen", "cutoff": 1}], ids=["classical", "strassen-1"])
@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_the_decomposition_is_that_of_the_padded_square(field, kw, debug):
    # the recursion runs on each block's real rows and columns and never
    # stores the padding: L, E, U, the count and every node's log entry are
    # those of A padded with zeros, by hand, to its power-of-two square,
    # whose factors are the identity beyond A's
    g = random.Random(f"padded {field!r}")
    for s in (3, 5, 6, 12, 17, 33):
        for A in (rand_matrix(field, s, s, g), profiled(field, s, s // 2, g)[0]):
            P = pow2_padded(A)
            log, full_log = [], []
            res = leu_decompose(A, **kw, debug_checks=debug, _node_log=log)
            full = leu_decompose(P, **kw, debug_checks=debug, _node_log=full_log)
            assert full.L._d == beside_identity(res.L._d, P.rows - s, field)
            assert full.U._d == beside_identity(res.U._d, P.rows - s, field)
            assert (res.E.n, sorted(res.E.ones)) == (s, sorted(full.E.ones))
            assert (res.counter, log) == (full.counter, full_log)


def test_a_33x33_costs_the_kernel_about_what_its_32x32_does(monkeypatch):
    # the padded 64 x 64 square of a full-rank 33 x 33 is never multiplied:
    # the kernel's r * k * c stays near that of the leading 32 x 32 block
    from leu import dense
    from leu.cli import bench_matrix

    work = []
    real = dense._gfp_classical

    def counted(x, y, k, c, p, *rest):
        work.append(len(x) * k * c)
        return real(x, y, k, c, p, *rest)

    monkeypatch.setattr(dense, "_gfp_classical", counted)
    A = bench_matrix(33, 1)
    totals = []
    for B in (A, A.select(range(32), range(32))):
        work.clear()
        assert leu_decompose(B).rank == B.rows
        totals.append(sum(work))
    assert totals[1] <= totals[0] <= 1.25 * totals[1]


def test_a_generic_node_folds_its_sums_and_signs_into_its_products(monkeypatch):
    # a1_22, w, v, l_bl and u_tr are each made in the reduction of a kernel
    # product: no negation or block sum runs a second pass over a block
    # that a product just made
    from leu import dense
    from leu.cli import bench_matrix

    made, fused, passes = [], [], []
    real = dense._gfp_classical
    K = dense._PrimeBlocks
    real_axpy = K._axpy

    def kernel(x, y, k, c, p, tri, acc=None, s=1):
        out = real(x, y, k, c, p, tri, acc, s)
        made.append(out)
        if acc is not None or s == -1:
            fused.append(out)
        return out

    def axpy(self, acc, m, s):
        passes.extend((acc, m))
        return real_axpy(self, acc, m, s)

    monkeypatch.setattr(dense, "_gfp_classical", kernel)
    monkeypatch.setattr(K, "_axpy", axpy)
    assert leu_decompose(bench_matrix(64, 1)).rank == 64
    assert fused
    assert not any(b is m for b in passes for m in made)


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
def test_debug_checks_hold_a_declared_triangle_at_a_fused_product(field):
    # w, v and u_tr declare a triangle and take a sum or a sign: with
    # debug_checks the plan checks the declared operand whatever acc and s
    from leu.decompose import _Plan
    from leu.dense import _LOWER, _UPPER

    r = random.Random(2902)
    debug, plain = (_Plan(field, d, False, MulCounter()) for d in (True, False))
    x, y, acc = (debug.k.load(rand_matrix(field, 4, 4, r)._d) for _ in range(3))
    for tri in (_LOWER, _UPPER):
        for a, s in ((acc, 1), (acc, -1), (None, -1)):
            with pytest.raises(InvariantError, match="declared triangular"):
                debug.mm(x, y, tri, a, s)
            assert plain.mm(x, y, tri, a, s) == plain.k.mul(x, y, tri, a, s)


def test_the_root_checks_read_only_the_real_block(monkeypatch):
    # under debug_checks the support check of a 3 x 5 input's 8 x 8 root
    # reads A's own rows, not a padded square
    from leu import decompose

    calls = []
    real = decompose._outside_support

    def recorded(rows, c, im, jm):
        calls.append((rows, c, im, jm))
        return real(rows, c, im, jm)

    monkeypatch.setattr(decompose, "_outside_support", recorded)
    A = rand_matrix(GF7, 3, 5, rng)
    kernel_basis(A, debug_checks=True)
    assert calls[0] == (A._d, 5, 0b111, 0b11111)


def test_leu_pow2_respects_support_contract():
    # a matrix that vanishes outside rows I and columns J decomposes with E
    # inside (I, J), and the contract checks at every node hold
    for _ in range(20):
        n = rng.choice([2, 3, 4, 6, 8])
        im = rng.getrandbits(n)
        jm = rng.getrandbits(n)
        B = rand_matrix(GF7, n, n, rng)
        A = DenseMatrix._wrap(
            GF7,
            [[B._d[i][j] if (im >> i) & 1 and (jm >> j) & 1 else 0
              for j in range(n)] for i in range(n)],
            n, n)
        res = leu_decompose(A, debug_checks=True)
        assert res.E.row_support().mask & ~im == 0
        assert res.E.col_support().mask & ~jm == 0
        assert reconstructs(A, res)


def test_non_square_rejected():
    with pytest.raises(ShapeError):
        leu_decompose(rand_matrix(GF7, 2, 3, rng))


def test_verify_flags_tampering():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    res = leu_decompose(A)
    good = leu_verify(A, res)
    assert good.passed and len(good.checks) == 5

    tampered_u = DenseMatrix(GF7, [[1, 3], [0, 1]])
    bad = leu_verify(A, type(res)(res.L, res.E, tampered_u, res.counter))
    assert dict(bad.checks)["reconstruction"] is False

    zero_diag = DenseMatrix(GF7, [[0, 0], [2, 4]])
    bad2 = leu_verify(A, type(res)(zero_diag, res.E, res.U, res.counter))
    assert dict(bad2.checks)["lower-triangular"] is False


def test_verify_reports_wrong_shaped_factors():
    # factors of the wrong size or field fail their checks instead of raising
    A = DenseMatrix(GF7, [[3, 1, 4], [1, 5, 2], [6, 5, 3]])
    res = leu_decompose(A)
    small_l = DenseMatrix.identity(GF7, 2)
    large_u = DenseMatrix.identity(GF7, 4)
    other_l = DenseMatrix(GF(11), res.L._d)
    for L, U in ((small_l, res.U), (res.L, large_u), (small_l, large_u), (other_l, res.U)):
        checks = dict(leu_verify(A, LeuResult(L, res.E, U, res.counter)).checks)
        assert checks["reconstruction"] is False
        assert checks["support-form"] is False
    checks = dict(leu_verify(A, LeuResult(small_l, res.E, large_u, res.counter)).checks)
    assert checks["lower-triangular"] is False and checks["upper-unitriangular"] is False
    assert checks["support-form-inverse"] is False


def test_verify_fails_both_support_forms_on_factors_over_another_field():
    # the inverses' form is read off L and U, so a factor over another field
    # than A's fails it exactly as it fails the factors' own form
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    res = leu_decompose(A)
    other_l, other_u = DenseMatrix(GF(11), res.L._d), DenseMatrix(GF(11), res.U._d)
    for L, U in ((other_l, res.U), (res.L, other_u), (other_l, other_u)):
        checks = dict(leu_verify(A, LeuResult(L, res.E, U, res.counter)).checks)
        assert checks["support-form"] is False
        assert checks["support-form-inverse"] is False


def _with_entry(M, i, j, v):
    rows = [list(row) for row in M._d]
    rows[i][j] = v
    return DenseMatrix(M.field, rows)


def test_verify_reads_the_inverses_form_off_the_factors(monkeypatch):
    # an invertible matrix has column or row k of the identity exactly when
    # its inverse has, so leu_verify inverts neither factor and its verdicts
    # are still those of the inverses
    import leu.dense

    def no_inversion(*args):
        raise AssertionError("leu_verify inverted a triangular factor")

    monkeypatch.setattr(leu.dense, "_inv_lower", no_inversion)

    def failed(A, L, E, U):
        return [name for name, ok in leu_verify(A, LeuResult(L, E, U, MulCounter())).checks
                if not ok]

    # rank 2, E's ones in rows 1 and 3: L's columns 0 and 2 must be unit
    A = DenseMatrix(GF7, [[0, 0, 0, 0], [1, 2, 0, 3], [2, 4, 0, 6], [0, 0, 0, 5]])
    res = leu_decompose(A)
    assert res.E.ones == ((1, 0), (3, 3))
    assert failed(A, res.L, res.E, res.U) == []
    # row 0 of A is zero, so L*A*U is unchanged, but column 0 of L is not
    # the identity's and neither is that of its inverse
    assert failed(A, _with_entry(res.L, 2, 0, 4), res.E, res.U) == [
        "support-form", "support-form-inverse"]
    # a non-unit diagonal entry of U in a row of E's support
    assert failed(A, res.L, res.E, _with_entry(res.U, 3, 3, 2)) == [
        "upper-unitriangular", "reconstruction", "support-form-inverse"]

    # full rank: E's support is every row and column, so any L and U have
    # the form, but an L that is not lower triangular has no checked inverse
    B = DenseMatrix(GF7, [[3, 1], [2, 5]])
    full = leu_decompose(B)
    assert failed(B, _with_entry(full.L, 0, 1, 1), full.E, full.U) == [
        "lower-triangular", "reconstruction", "support-form-inverse"]


def test_classical_ignores_cutoff():
    # a classical product is a Strassen product that never splits, so no
    # cutoff, not even one Strassen rejects, changes its bytes or counts
    r = random.Random(0xC0FF)
    for field in FIELDS:
        A = planted_rank(field, 12, 7, r)
        B = mul(rand_matrix(field, 5, 2, r), rand_matrix(field, 2, 9, r))
        c_ref, c = MulCounter(), MulCounter()
        ref = leu_decompose(A, c_ref)
        res = leu_decompose(A, c, method="classical", cutoff=0)
        assert (str(res.L), res.E, str(res.U)) == (str(ref.L), ref.E, str(ref.U))
        assert c == c_ref
        c_ref, c = MulCounter(), MulCounter()
        assert mat_rank(B, c, method="classical", cutoff=0) == mat_rank(B, c_ref) == 2
        assert c == c_ref


@pytest.mark.parametrize(
    "kw, exc",
    [
        (dict(method="bogus"), ValueError),
        (dict(method="strassen", cutoff=0), ValueError),
        (dict(method="strassen", cutoff=True), TypeError),
        (dict(method="strassen", cutoff=1.5), TypeError),
        (dict(method="strassen", cutoff="8"), TypeError),
    ],
    ids=["unknown-method", "strassen-cutoff-0", "strassen-cutoff-bool",
         "strassen-cutoff-float", "strassen-cutoff-str"],
)
def test_bad_method_or_cutoff_rejected(kw, exc):
    A = rand_matrix(GF7, 4, 4, rng)
    with pytest.raises(exc):
        leu_decompose(A, **kw)
    with pytest.raises(exc):
        mat_rank(rand_matrix(GF7, 2, 3, rng), **kw)


def test_support_form():
    # columns of L outside the row support of E are unit columns, and the
    # same for rows of U outside the column support; likewise the inverses
    for _ in range(10):
        n = rng.randint(2, 10)
        A = planted_rank(QQ, n, rng.randint(0, n - 1), rng)
        res = leu_decompose(A)
        i_e = res.E.row_support()
        j_e = res.E.col_support()
        ident = DenseMatrix.identity(QQ, n)
        for j in range(n):
            if not (i_e.mask >> j) & 1:
                assert [r[j] for r in res.L._d] == [r[j] for r in ident._d]
        for i in range(n):
            if not (j_e.mask >> i) & 1:
                assert res.U._d[i] == ident._d[i]
        assert leu_verify(A, res).passed


_I2 = [[1, 0], [0, 1]]
_BAD = [[1, 5], [5, 1]]  # neither a unit row nor a unit column anywhere


@pytest.mark.parametrize(
    "l, e, u, im, jm, what",
    [
        (_I2, [(1, 0)], _I2, 0b01, 0b11, "row support escapes"),
        (_I2, [(0, 1)], _I2, 0b11, 0b01, "column support escapes"),
        (_BAD, [], _I2, 0b11, 0b11, "L has a non-unit column"),
        ([[1, 0], [5, 1]], [(0, 0)], _I2, 0b01, 0b11, "L has a non-unit row"),
        (_I2, [], _BAD, 0b11, 0b11, "U has a non-unit row"),
        (_I2, [(0, 0)], [[1, 5], [0, 1]], 0b11, 0b01, "U has a non-unit column"),
    ],
)
def test_debug_node_rejects_corrupted_nodes(l, e, u, im, jm, what):
    from leu.decompose import _debug_node

    _debug_node(_I2, [(0, 0)], _I2, 0b11, 0b11, 1)  # a sound node passes
    with pytest.raises(InvariantError, match=what):
        _debug_node(l, e, u, im, jm, 1)


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
@pytest.mark.parametrize("which", ["l", "u"])
def test_debug_checks_hold_a_declared_triangle(field, which, monkeypatch):
    # the root's l11 is declared lower triangular in q = l11 a12, and its u11
    # upper in b = a21 u11: with one entry above l11's diagonal (below u11's)
    # debug_checks raises before the kernel could skip that entry
    from leu import decompose

    real = decompose._leu_rec

    def corrupted(a, n, im, jm, plan, reads, r, c):
        l, e, u = real(a, n, im, jm, plan, reads, r, c)
        if n == 4:  # the first node of n = 4 to return is the 8 x 8 root's a11
            x = l if which == "l" else u
            rows = [row[:] for row in (x[0] if field == QQ else x)]
            i, j = (0, 1) if which == "l" else (1, 0)
            rows[i][j] = 1
            x = (rows, *x[1:]) if field == QQ else rows
            l, u = (x, u) if which == "l" else (l, x)
        return l, e, u

    A = rand_matrix(field, 8, 8, random.Random(2901))
    assert leu_decompose(A, debug_checks=True).rank == 8
    monkeypatch.setattr(decompose, "_leu_rec", corrupted)
    with pytest.raises(InvariantError, match="declared triangular"):
        leu_decompose(A, debug_checks=True)


_O_SCRIPT = textwrap.dedent("""
    import sys
    from leu import GF, DenseMatrix, InvariantError, MulCounter
    import leu.derived
    from leu.decompose import _LU, _debug_node, _leu_rec, _Plan

    assert sys.flags.optimize and not __debug__
    caught = []
    try:
        _debug_node([[1, 0], [0, 1]], [(1, 0)], [[1, 0], [0, 1]], 0b01, 0b11, 1)
    except InvariantError as exc:
        caught.append(str(exc))
    # a node entered with an entry outside its column support
    try:
        plan = _Plan(GF(7), True, False, MulCounter())
        _leu_rec([[0, 1], [0, 0]], 2, 0b11, 0b01, plan, _LU, 2, 2)
    except InvariantError as exc:
        caught.append(str(exc))

    # hand kernel_basis a U that is not the decomposition's: its candidate
    # columns then fail to annihilate A
    real = leu.derived._leu_blocks

    def wrong_u(A, *args):
        l, e, u, plan = real(A, *args)
        return l, e, plan.k.identity(A.cols), plan

    leu.derived._leu_blocks = wrong_u
    try:
        leu.derived.kernel_basis(DenseMatrix(GF(7), [[1, 1], [0, 0]]), debug_checks=True)
    except InvariantError as exc:
        caught.append(str(exc))
    print(caught)
""")


def test_contract_checks_hold_under_python_O():
    # the contract checks are typed errors, not asserts that -O strips
    src = str(Path(leu.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _O_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "['row support escapes its contract', 'block has entries outside its (I, J) support',"
        " 'kernel candidate fails to annihilate']"
    )


# the result records keep the dataclass behaviour they had, without the
# dataclasses module


def test_result_records_behave_as_dataclasses():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    res = leu_decompose(A)
    rep, bru = leu_verify(A, res), bruhat_decompose(A)
    assert repr(res) == ("LeuResult(L=<DenseMatrix 2x2 over GF(7)>, E=TruncPerm(2, [(0, 0), (1, 1)]), "
                         "U=<DenseMatrix 2x2 over GF(7)>, counter=MulCounter(scalar_mults=17, scalar_invs=2))")
    assert repr(rep) == ("VerifyReport(checks=(('lower-triangular', True), ('upper-unitriangular', True), "
                         "('reconstruction', True), ('support-form', True), ('support-form-inverse', True)))")
    assert repr(bru) == ("BruhatResult(V1=<DenseMatrix 2x2 over GF(7)>, w=TruncPerm(2, [(0, 1), (1, 0)]), "
                         "V2=<DenseMatrix 2x2 over GF(7)>)")
    for rec, cls, fields in ((res, LeuResult, ("L", "E", "U", "counter")), (rep, VerifyReport, ("checks",)),
                             (bru, BruhatResult, ("V1", "w", "V2"))):
        values = [getattr(rec, k) for k in fields]
        assert cls.__match_args__ == fields
        assert cls(*values) == cls(**dict(zip(fields, values))) == rec
        assert rec.__eq__(tuple(values)) is NotImplemented and rec != tuple(values)
        sub = type("Sub", (cls,), {"__slots__": ()})(*values)
        assert sub != rec and repr(sub) == "Sub" + repr(rec)[len(cls.__name__):]
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            hash(rec)
        changed = cls(*values)
        setattr(changed, fields[0], None)
        assert changed != rec and getattr(changed, fields[0]) is None
    match res, bru:
        case LeuResult(L, E, U, counter), BruhatResult(_, w, _):
            assert (L, E, U, counter, w) == (res.L, res.E, res.U, MulCounter(17, 2), bru.w)
        case _:
            pytest.fail("the records take no positional pattern")


def test_import_loads_no_dataclasses():
    # every CLI command is a fresh process, which would pay for these modules
    code = ("import sys; start = set(sys.modules); import leu, leu.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - start)))")
    src = str(Path(leu.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# differential fuzz of the derived operations against the elimination oracle


_FUZZ_FIELDS = (GF7, GF65521, GF(2**64 - 59), QQ)


def _entries(field):
    if field.kind == "gfp":
        return st.integers(0, field.modulus - 1)
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def planted_matrices(draw):
    """A matrix of 1..12 rows and columns (square half the time) and rank at
    most a drawn r, as the product of an rows x r and an r x cols matrix."""
    field = draw(st.sampled_from(_FUZZ_FIELDS))
    rows = draw(st.integers(1, 12))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 12))
    r = draw(st.integers(0, min(rows, cols)))
    if r == 0:
        return DenseMatrix.zeros(field, rows, cols)
    x = _entries(field)
    P = DenseMatrix(field, draw(st.lists(st.lists(x, min_size=r, max_size=r),
                                         min_size=rows, max_size=rows)))
    Q = DenseMatrix(field, draw(st.lists(st.lists(x, min_size=cols, max_size=cols),
                                         min_size=r, max_size=r)))
    return mul(P, Q)


@st.composite
def profiled_matrices(draw):
    """(L0 * P * U0, P) as helpers.profiled makes them, of order 1..12: L0
    lower triangular with a nonzero diagonal, P a truncated permutation of a
    drawn rank and U0 unit upper triangular.  P is the product's rank
    profile matrix."""
    field = draw(st.sampled_from(_FUZZ_FIELDS))
    n = draw(st.integers(1, 12))
    rank = draw(st.integers(0, n))
    x = _entries(field)
    below = [draw(st.lists(x, min_size=i, max_size=i)) for i in range(n)]
    lo = [row + [draw(x.filter(bool))] + [0] * (n - 1 - i) for i, row in enumerate(below)]
    up = [[0] * i + [1] + draw(st.lists(x, min_size=n - 1 - i, max_size=n - 1 - i))
          for i in range(n)]
    rows = draw(st.permutations(range(n)))[:rank]
    cols = draw(st.permutations(range(n)))[:rank]
    P = TruncPerm(n, zip(rows, cols))
    pu = [[0] * n for _ in range(n)]
    for i, j in P.ones:
        pu[i] = up[j]
    return mul(DenseMatrix(field, lo), DenseMatrix(field, pu)), P


@settings(max_examples=60, deadline=None)
@given(profiled_matrices())
def test_a_profiled_matrix_decomposes_to_its_profile(case):
    # E is the rank profile matrix, and the count is the model's whatever
    # the profile, in either mode
    from math import inf

    from leu.decompose import _tree_count

    A, P = case
    m = 1 << (A.rows - 1).bit_length()
    for method, cutoff, model in (("classical", 32, inf), ("strassen", 1, 1), ("strassen", 4, 4)):
        c = MulCounter()
        res = leu_decompose(A, c, method=method, cutoff=cutoff)
        assert res.E == P
        assert reconstructs(A, res)
        assert c == MulCounter(_tree_count(m, model), len(P.ones))


@settings(max_examples=100, deadline=None)
@given(planted_matrices(), st.sampled_from([("classical", 32), ("strassen", 1), ("strassen", 4)]))
def test_derived_ops_match_the_oracle(A, mode):
    method, cutoff = mode
    kw = dict(method=method, cutoff=cutoff)
    rank = oracle.gauss_rank(A)
    assert mat_rank(A, **kw) == rank
    K = kernel_basis(A, debug_checks=True, **kw)
    assert K.shape == (A.cols, A.cols - rank)
    assert mul(A, K).is_zero()
    assert oracle.gauss_rank(K) == K.cols
    if A.rows != A.cols:
        return
    if rank == A.rows:
        assert mat_inverse(A, **kw) == oracle.gauss_inverse(A)
    else:
        with pytest.raises(SingularError) as exc:
            mat_inverse(A, **kw)
        assert exc.value.rank == rank
