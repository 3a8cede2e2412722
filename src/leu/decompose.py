"""Recursive pivot-free factorization L * A * U = E over an exact field.

For any square matrix A the factorization produces a nonsingular lower
triangular L, an upper unitriangular U and a truncated permutation E with
the same rank as A, such that L*A*U equals E exactly.  Equivalently
A = L^-1 * E * U^-1.  No entry is ever searched for or swapped: the block
layout of the recursion is fixed in advance, so identical inputs take
identical paths regardless of the data.  The two middle recursions of a node
are independent of each other, so they can be evaluated in either order with
bitwise-identical results; ``parallel=True`` runs them in the opposite order.

Each recursion node on a 2n x 2n block performs exactly 17 dense n x n
products plus additions and sparse permutation/diagonal applications, which
are free of counted multiplications.  Over GF(p) the nodes of n <= 4 run on
scalars: a nonzero 4 x 4 block (a 2 x 2 root padded to one) is one leaf on
flat 2 x 2 blocks of residues, the node's own operations in the same order,
so the same values and E without the block glue; ``debug_checks`` keeps the
plain recursion and its node checks.  Every other product is computed by the
field's one product kernel.  The recursion only computes: since its cost is
17 products a node whatever the data, the body counts a decomposition once,
from the model of the whole tree, each product at ``strassen_count(n,
cutoff)`` (n^3 classical), the only choice ``method`` and ``cutoff`` make,
and one inversion, of one nonzero pivot, per one of E.

The node's sums and sign flips (the Schur complement a22 - t q, w, v and
the off-diagonal blocks of L and U) ride on the product that makes each, in
the kernel's one pass over it, and t = b E11^T is b itself when E11 is the
identity.

Blocks travel through the recursion in the form of their field's block
kernel (see :mod:`leu.dense`): rows of residues over GF(p), and over the
rationals fraction-free integer rows with a scale per row and per column,
turned into canonical fractions once at the end.  Work whose outcome is known
without arithmetic, or whose result no caller reads, is skipped: a product
with a zero operand or with the identity block a node hands on, a zero block
(E empty, and L = U = I, built only if read), and the six products that make
a node's L, or its U, when nothing reads that factor (the rank and the block
read only E, the kernel E and U, and a node asks each child for what it
reads of it, so a node with no rows below or columns right of its top-left
quarter builds no factor that meets only an empty block).  Every L is lower
and every U upper triangular, and each product says which of its operands
is, so that the GF(p) kernel skips the zero triangle.  The count, taken from
the model, does not depend on which shortcuts were taken.

:func:`leu_decompose` is the one entry point.  Its body runs the recursion
at the next power-of-two order, with the input's own entries as the root's
real block: every node splits at half its order, as the padded square would,
but holds and multiplies only the real rows and columns of its quarters, and
returns L and U as the leading blocks of its factors, which are the identity
beyond them.  So the padding is counted and never stored.  A node whose
real block fits in its top-left quarter runs that child alone.  The derived
operations read the body's blocks and store only their own results (see
:mod:`leu.derived`); the rank and the kernel of a rectangular matrix run on
its own shape as well.

The support masks (i, j) threaded through the recursion express which rows
and columns of a block may be nonzero.  At the root they are the rows and
columns of the input, so the root's own checks read its real block; below
it they are narrowed by the ones of E that the earlier sub-blocks found.
They never influence the computed values: a block with an empty mask is
zero and is skipped without a scan, which changes no value and no count.
With ``debug_checks`` on, each sub-result is checked against its support
contract, before any such skip, and the masks document where the algorithm
is allowed to place nonzero entries.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import inf

from .dense import (
    _LOWER,
    _UPPER,
    DenseMatrix,
    MulCounter,
    _Record,
    _keep_cols,
    _keep_rows,
    blocks,
    is_lower_triangular,
    is_upper_triangular,
    is_upper_unitriangular,
    mat_mul_classical,
    strassen_count,
)
from .errors import InvariantError, ShapeError
from .perms import TruncPerm, _col_mask, _integer, _row_mask, tp_to_dense


class LeuResult(_Record):
    """Decomposition triple with the counter state at completion."""

    __slots__ = __match_args__ = ("L", "E", "U", "counter")

    def __init__(self, L: DenseMatrix, E: TruncPerm, U: DenseMatrix, counter: MulCounter):
        self.L, self.E, self.U, self.counter = L, E, U, counter

    @property
    def rank(self) -> int:
        return len(self.E.ones)


class VerifyReport(_Record):
    """Named pass/fail outcomes of the structural checks."""

    __slots__ = __match_args__ = ("checks",)

    def __init__(self, checks: tuple):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self) -> list:
        return [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in self.checks]


class _Plan:
    """Per-call context shared by every node of one decomposition: the block
    kernel, the node checks, the order of the middle recursions, and the
    counter the derived operations go on counting into."""

    __slots__ = ("k", "debug", "reverse", "counter", "leaf")

    def __init__(self, field, debug, reverse, counter):
        self.k = blocks(field)
        self.debug = debug
        self.reverse = reverse
        self.counter = counter
        # GF(p) runs its nodes of n <= 4 on scalars; debug_checks keeps the recursion
        self.leaf = field.kind == "gfp" and not debug

    def mm(self, x, y, tri=0, acc=None, s=1):
        """acc + s * (x * y) for blocks x and y (see _Blocks.mul).  tri
        declares x lower or y upper triangular; a factor not built (None)
        meets only an empty block, which adds nothing to acc."""
        if x is None or y is None:
            return acc if acc is not None else y if x is None else x
        if self.debug and tri:
            t = self.k.store(x if tri == _LOWER else y)
            t = DenseMatrix._wrap(self.k.field, t, len(t), len(t))
            _ensure(is_lower_triangular(t) if tri == _LOWER else is_upper_triangular(t),
                    "an operand declared triangular is not")
        return self.k.mul(x, y, tri, acc, s)


@lru_cache(maxsize=256)
def _tree_count(n, cutoff):
    # multiplications the recursion counts on an n x n block
    return 0 if n == 1 else 17 * strassen_count(n >> 1, cutoff) + 4 * _tree_count(n >> 1, cutoff)


def _model_log(n, cutoff):
    # the log entries of an n x n block's subtree, in the order a visit of
    # every node would append them
    if n == 1:
        return []
    return 4 * _model_log(n >> 1, cutoff) + [(n, 17 * strassen_count(n >> 1, cutoff))]


# which factors besides E a caller reads: a bit each for L and U
_E, _L, _U, _LU = 0, 1, 2, 3


def _outside_support(rows, c, im, jm):
    """True if some entry of the c columns wide rows lives in a row outside
    im or a column outside jm."""
    return _keep_cols(_keep_rows(rows, im, [0] * c), jm, c) != rows


def _unit_outside(rows, n, mask, one, cols):
    """Whether every column (``cols``) or else every row of the n x n rows
    whose index is outside mask is that column or row of the identity."""
    for k in range(n):
        if not (mask >> k) & 1:
            unit = [0] * n
            unit[k] = one
            if ([r[k] for r in rows] if cols else rows[k]) != unit:
                return False
    return True


def _ensure(ok, what):
    if not ok:
        raise InvariantError(what)


def _debug_node(l, e, u, im, jm, one):
    # the checks of a node on its real r x r L and c x c U: the
    # node's factors are the identity beyond them, which no check need read
    i_e = _row_mask(e)
    j_e = _col_mask(e)
    r, c = len(l), len(u)
    _ensure(i_e & im == i_e, "row support escapes its contract")
    _ensure(j_e & jm == j_e, "column support escapes its contract")
    _ensure(_unit_outside(l, r, i_e, one, True), "L has a non-unit column outside the support")
    _ensure(_unit_outside(l, r, im, one, False), "L has a non-unit row outside the support")
    _ensure(_unit_outside(u, c, j_e, one, False), "U has a non-unit row outside the support")
    _ensure(_unit_outside(u, c, jm, one, True), "U has a non-unit column outside the support")


def _leu_rec(a, n, im, jm, plan, reads, r, c):
    # a is the real r x c block of an n x n node whose other entries are zero,
    # in the form of plan.k.  The node's L and U are the identity beyond their
    # leading r x r and c x c blocks, which come back in the same form, unless
    # reads leaves the factor out: then it may be None.  Splits are those of
    # the n x n node, which computes and never counts: _leu_blocks counts
    # the whole tree from the model.  The support check comes before every
    # shortcut
    K = plan.k
    if plan.debug:
        _ensure(not _outside_support(K.store(a), c, im, jm),
                "block has entries outside its (I, J) support")

    # a zero block: every node below sees zeros only, L = U = I, E = 0.
    # The masks bound the block's support, so an empty one needs no scan
    if not (im and jm) or K.is_zero(a):
        return K.identity(r) if reads & _L else None, [], K.identity(c) if reads & _U else None
    if n == 1:  # a nonzero pivot
        return K.inverse1(a), [(0, 0)], K.identity(1)
    if plan.leaf and n <= 4:
        # the leaf runs on the whole 4 x 4 block: a 2 x 2 root is the
        # top-left quarter of a 4 x 4 whose other quarters are zero
        cut = r < 4 or c < 4
        if cut:
            a = [row + [0] * (4 - c) for row in a] + [[0] * 4] * (4 - r)
        l, e, u = _leaf4(a, K.p, K.field.inv)
        if cut:
            # a 1 x 1 unitriangular U is the cached identity, which products skip
            l = [row[:r] for row in l[:r]]
            u = K.identity(1) if c == 1 else [row[:c] for row in u[:c]]
        return l, e, u

    h = n >> 1
    if r <= h and c <= h:
        # only a11 is real: its factors and E are the node's, the other three
        # children are zero blocks, and every product meets one of them or
        # the identity they return.  a11 checks what this node would
        return _leu_rec(a, h, im, jm, plan, reads, r, c)

    # each quarter's real shape: the top rows (left columns) fill before
    # the bottom (right) ones get any
    r1, c1 = min(r, h), min(c, h)
    r2, c2 = r - r1, c - c1
    hm = (1 << h) - 1
    i1, i2 = im & hm, im >> h
    j1, j2 = jm & hm, jm >> h
    a11, a12, a21, a22 = K.split(a, h)
    mm = plan.mm
    # a child builds what the rest of this node reads of it: u11 and u12
    # meet the r2 rows below (b, g), l11 and l21 the c2 columns to the
    # right (q, g), and every factor goes into this node's own L or U
    reads12 = reads | _U if r2 else reads
    reads21 = reads | _L if c2 else reads

    l11, e11, u11 = _leu_rec(a11, h, i1, j1, plan, reads12 | reads21, r1, c1)

    q = mm(l11, a12, _LOWER)
    b = mm(a21, u11, _UPPER)

    i11 = _row_mask(e11)
    j11 = _col_mask(e11)
    ib11 = i11 ^ ((1 << r1) - 1)
    jb11 = j11 ^ ((1 << c1) - 1)
    a1_12 = K.keep_rows(q, ib11, c2)
    a1_21 = K.keep_cols(b, jb11, c1)
    t = K.perm_cols(b, e11, r1) if c2 or reads & _L else None
    a1_22 = mm(t, q, 0, a22, -1)

    # the two middle recursions are independent: either order gives the same
    if plan.reverse:
        l21, e21, u21 = _leu_rec(a1_21, h, i2, jb11 & j1, plan, reads21, r2, c1)
        l12, e12, u12 = _leu_rec(a1_12, h, ib11 & i1, j2, plan, reads12, r1, c2)
    else:
        l12, e12, u12 = _leu_rec(a1_12, h, ib11 & i1, j2, plan, reads12, r1, c2)
        l21, e21, u21 = _leu_rec(a1_21, h, i2, jb11 & j1, plan, reads21, r2, c1)

    g = mm(mm(l21, a1_22, _LOWER), u12, _UPPER)
    i21 = _row_mask(e21)
    j12 = _col_mask(e12)
    ib21 = i21 ^ ((1 << r2) - 1)
    jb12 = j12 ^ ((1 << c2) - 1)
    gj = K.keep_cols(g, jb12, c2)
    a2_22 = K.keep_rows(gj, ib21, c2)

    l22, e22, u22 = _leu_rec(a2_22, h, ib21 & i2, jb12 & j2, plan, reads, r2, c2)

    # L and U each take six more products, run only when read
    l = u = None
    if reads & _L:
        ge = K.perm_cols(g, e12, r1)
        w = mm(l21, t, _LOWER, mm(ge, l12))
        l_tl = mm(l12, l11, _LOWER)
        l_bl = mm(mm(l22, w, _LOWER), l11, 0, None, -1)
        l_br = mm(l22, l21, _LOWER)
        # with no rows below, L is its top-left quarter
        l = K.join(l_tl, K.zeros(r1, r2), l_bl, l_br) if r2 else l_tl
    if reads & _U:
        eg = K.perm_rows(e21, gj, c1, c2)
        eq = K.perm_rows(e11, q, c1, c2)
        v = mm(eq, u12, _UPPER, mm(u21, eg))
        u_tl = mm(u11, u21, _UPPER)
        u_tr = mm(mm(u11, v), u22, _UPPER, None, -1)
        u_br = mm(u12, u22, _UPPER)
        u = K.join(u_tl, u_tr, K.zeros(c2, c1), u_br) if c2 else u_tl
    # a right (bottom) quarter holds a one only when the left (top) is whole
    e = list(e11)
    e += [(i, j + h) for i, j in e12]
    e += [(i + h, j) for i, j in e21]
    e += [(i + h, j + h) for i, j in e22]
    if plan.debug:
        _debug_node(K.store(l), e, K.store(u), im, jm, K.field.one_raw)
    return l, e, u


def _leaf2(a, p, inv):
    # _leu_rec's node at n = 2 over GF(p) on a flat block (x11, x12, x21, x22)
    # of residues: the same operations in the same order.  L and U come back
    # flat, E as flags in that order; the count is taken once, from the model
    a11, a12, a21, a22 = a
    if not (a11 or a12 or a21 or a22):
        return _I2, (False,) * 4, _I2  # as _leu_rec's zero block: L = U = I, E = 0
    # an n = 1 node's l inverts a nonzero pivot (1 stays 1), which E takes
    l11 = inv(a11) if a11 > 1 else 1
    q = l11 * a12 % p
    # E11 keeps q and b = a21 out of the middle blocks and moves b into t
    x12, x21, t = (0, 0, a21) if a11 else (q, a21, 0)
    l12 = inv(x12) if x12 > 1 else 1
    l21 = inv(x21) if x21 > 1 else 1
    g = l21 * (a22 - t * q) % p
    ge, gj = (g, 0) if x12 else (0, g)
    x22 = 0 if x21 else gj
    l22 = inv(x22) if x22 > 1 else 1
    w = (ge * l12 + l21 * t) % p
    v = (gj if x21 else 0) + (q if a11 else 0)
    e = (a11 != 0, x12 != 0, x21 != 0, x22 != 0)
    return (l12 * l11 % p, 0, -l22 * w * l11 % p, l22 * l21 % p), e, (1, -v % p, 0, 1)


# a 4 x 4's cells by quadrant in the order E11, E12, E21, E22, each in the
# flat order of a 2 x 2 block
_CELLS4 = tuple((2 * bi + i, 2 * bj + j) for bi, bj, i, j in product((0, 1), repeat=4))
_I2 = (1, 0, 0, 1)


def _mul2(x, y, p):
    # the product of two flat 2 x 2 blocks; the identity, by value, costs nothing
    if x == _I2:
        return y
    if y == _I2:
        return x
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return ((x0 * y0 + x1 * y2) % p, (x0 * y1 + x1 * y3) % p,
            (x2 * y0 + x3 * y2) % p, (x2 * y1 + x3 * y3) % p)


def _add2(x, y, p, s=1):
    # x + s * y on flat 2 x 2 blocks
    return (x[0] + s * y[0]) % p, (x[1] + s * y[1]) % p, (x[2] + s * y[2]) % p, (x[3] + s * y[3]) % p


def _keep2(x, e, cols):
    # x without the rows (with cols, the columns) that E's flags take
    x0, x1, x2, x3 = x
    e0, e1, e2, e3 = e
    if cols:
        k0, k1 = not (e0 or e2), not (e1 or e3)
        return (x0 if k0 else 0, x1 if k1 else 0, x2 if k0 else 0, x3 if k1 else 0)
    k0, k1 = not (e0 or e1), not (e2 or e3)
    return (x0 if k0 else 0, x1 if k0 else 0, x2 if k1 else 0, x3 if k1 else 0)


def _leaf4(a, p, inv):
    # _leu_rec's node at n = 4 over GF(p) on flat 2 x 2 blocks: the same
    # operations in the same order, its four children through _leaf2; the
    # count is taken once, from the model
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = a
    l11, e11, u11 = _leaf2((r00, r01, r10, r11), p, inv)
    et11 = (e11[0], e11[2], e11[1], e11[3])  # E11^T, as perm_cols and perm_rows apply it
    q = _mul2(l11, (r02, r03, r12, r13), p)
    b = _mul2((r20, r21, r30, r31), u11, p)
    t = _mul2(b, et11, p)
    a1_22 = _add2((r22, r23, r32, r33), _mul2(t, q, p), p, -1)
    # the model logs both middle children alike, so plan.reverse cannot show
    l12, e12, u12 = _leaf2(_keep2(q, e11, False), p, inv)
    l21, e21, u21 = _leaf2(_keep2(b, e11, True), p, inv)
    g = _mul2(_mul2(l21, a1_22, p), u12, p)
    gj = _keep2(g, e12, True)
    l22, e22, u22 = _leaf2(_keep2(gj, e21, False), p, inv)
    ge = _mul2(g, (e12[0], e12[2], e12[1], e12[3]), p)
    w = _add2(_mul2(ge, l12, p), _mul2(l21, t, p), p)
    eg = _mul2((e21[0], e21[2], e21[1], e21[3]), gj, p)
    v = _add2(_mul2(u21, eg, p), _mul2(_mul2(et11, q, p), u12, p), p)
    t0, _, t2, t3 = _mul2(l12, l11, p)
    b0, b1, b2, b3 = _mul2(_mul2(l22, w, p), l11, p)
    c0, _, c2, c3 = _mul2(l22, l21, p)
    s0, s1, _, s3 = _mul2(u11, u21, p)
    d0, d1, d2, d3 = _mul2(_mul2(u11, v, p), u22, p)
    f0, f1, _, f3 = _mul2(u12, u22, p)
    e = [ij for ij, f in zip(_CELLS4, e11 + e12 + e21 + e22) if f]
    l = [[t0, 0, 0, 0], [t2, t3, 0, 0], [-b0 % p, -b1 % p, c0, 0], [-b2 % p, -b3 % p, c2, c3]]
    u = [[s0, s1, -d0 % p, -d1 % p], [0, s3, -d2 % p, -d3 % p], [0, 0, f0, f1], [0, 0, 0, f3]]
    return l, e, u


def leu_decompose(
    A: DenseMatrix,
    counter: MulCounter | None = None,
    *,
    method: str = "classical",
    cutoff: int = 32,
    parallel: bool = False,
    debug_checks: bool = False,
    _node_log=None,
) -> LeuResult:
    """Decompose any square matrix by the recursion of its power-of-two square.

    The factors of the zero-padded square are the identity on the padded
    region, so only their leading s x s blocks of L, E, U are computed; they
    satisfy every invariant for the original matrix.  ``parallel=True``
    evaluates the two independent middle recursions of every node in the
    opposite order; the result and the counts are the same.
    """
    l, e, u, plan = _leu_blocks(_square(A), _LU, counter, method, cutoff, debug_checks, parallel,
                                _node_log)
    store, s = plan.k.store, A.rows
    return LeuResult(DenseMatrix._wrap(A.field, store(l), s, s), TruncPerm(s, e),
                     DenseMatrix._wrap(A.field, store(u), s, s), plan.counter.copy())


def _square(A):
    if A.cols != A.rows:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    return A


def _leu_blocks(A, reads, counter, method, cutoff, debug_checks, parallel=False, node_log=None):
    # the body of leu_decompose for any shape, as (l, e, u, plan): the root is
    # the power-of-two square of order m >= max(rows, cols), and A's own
    # r x c entries are its real block, so the padding is never stored.  l is
    # r x r and u is c x c, in kernel form.  The root's masks are A's rows and
    # columns, so its node checks run on the real block; E never leaves it.
    # reads (_E, _L, _U or _LU) names the factors the caller reads; one it leaves
    # out may come back as None.  The node checks read both, so debug_checks
    # computes both.
    r, c = A.shape
    s = max(r, c)
    if s == 0:
        raise ShapeError("empty matrix")
    # the classical count is Strassen's count of a product that never splits
    if method == "classical":
        cutoff = inf
    elif method != "strassen":
        raise ValueError(f"unknown multiplication method {method!r}")
    elif _integer(cutoff, "cutoffs") < 1:
        raise ValueError("cutoff must be >= 1")
    m = 1 << (s - 1).bit_length()
    plan = _Plan(A.field, debug_checks, parallel, MulCounter() if counter is None else counter)
    if not (r and c) and reads == _E:
        # an empty dimension has rank 0: the zero root is counted, never visited
        l, e, u = None, [], None
    else:
        l, e, u = _leu_rec(plan.k.load(A._d), m, (1 << r) - 1, (1 << c) - 1, plan,
                           _LU if debug_checks else reads, r, c)
        _ensure(all(i < r and j < c for i, j in e), "support escaped the unpadded block")
    # the recursion makes 17 products a node whatever the data, and every
    # shortcut only skips some of them, so its count is the model's.  Each
    # one of E is one pivot inverted
    plan.counter.scalar_mults += _tree_count(m, cutoff)
    plan.counter.scalar_invs += len(e)
    if node_log is not None:
        node_log.extend(_model_log(m, cutoff))
    return l, e, u, plan


def leu_verify(A: DenseMatrix, r: LeuResult) -> VerifyReport:
    """Structural checks of a decomposition against the matrix it came from.

    Reports, per check: L lower triangular with nonzero diagonal, U upper
    unitriangular, exact reconstruction L*A*U = E, the support form of L
    and U (identity outside the support of E), and the same form for their
    inverses, read off L and U: an invertible matrix has column or row k of
    the identity exactly when its inverse has.  Never raises; failures are
    reported.
    """
    checks = []
    scratch = MulCounter()
    n = A.rows
    one = A.field.one_raw
    lower_ok = (
        r.L.shape == (n, n)
        and is_lower_triangular(r.L)
        and all(r.L._d[i][i] for i in range(n))
    )
    checks.append(("lower-triangular", lower_ok))
    upper_ok = r.U.shape == (n, n) and is_upper_unitriangular(r.U)
    checks.append(("upper-unitriangular", upper_ok))

    # the checks below read entries of, or multiply by, n x n factors over A's field
    fits = r.L.shape == r.U.shape == (n, n) and r.L.field == r.U.field == A.field
    recon_ok = False
    if fits and A.cols == n and r.E.n == n:
        prod = mat_mul_classical(mat_mul_classical(r.L, A, scratch), r.U, scratch)
        recon_ok = prod == tp_to_dense(r.E, A.field)
    checks.append(("reconstruction", recon_ok))

    i_e = _row_mask(r.E.ones)
    j_e = _col_mask(r.E.ones)
    form = (fits and _unit_outside(r.L._d, n, i_e, one, True)
            and _unit_outside(r.U._d, n, j_e, one, False))
    checks.append(("support-form", form))
    # M e_k = e_k exactly when M^-1 e_k = e_k (rows alike): no inverse is needed
    checks.append(("support-form-inverse", lower_ok and upper_ok and form))
    return VerifyReport(tuple(checks))
