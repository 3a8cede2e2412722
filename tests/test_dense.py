"""Dense matrix operations: products, counters, inverses."""

import operator
import random
from math import isqrt

import pytest

from leu import (
    QQ,
    DenseMatrix,
    FieldMismatchError,
    GF,
    MulCounter,
    ShapeError,
    SingularError,
    format_matrix,
    invert_lower_triangular,
    invert_upper_unitriangular,
    leu_decompose,
    mat_mul_classical,
    parse_matrix,
    tp_to_dense,
)
from leu.dense import is_upper_unitriangular
from helpers import FIELDS, GF7, mul, rand_matrix

rng = random.Random(0xD15EA5E)


def test_classical_identity():
    A = rand_matrix(GF7, 4, 4, rng)
    I = DenseMatrix.identity(GF7, 4)
    assert mul(I, A) == A
    assert mul(A, I) == A


def test_classical_worked_product():
    # [[3,1],[2,5]] times its inverse mod 7
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    B = DenseMatrix(GF7, [[2, 1], [2, 4]])
    assert mul(A, B) == DenseMatrix.identity(GF7, 2)


def test_classical_count():
    c = MulCounter()
    A = rand_matrix(GF7, 8, 8, rng)
    mat_mul_classical(A, A, c)
    assert c.scalar_mults == 512
    c2 = MulCounter()
    mat_mul_classical(rand_matrix(GF7, 3, 5, rng), rand_matrix(GF7, 5, 2, rng), c2)
    assert c2.scalar_mults == 3 * 5 * 2
    assert repr(c2) == "MulCounter(scalar_mults=30, scalar_invs=0)"
    # a record as the dataclass was: zero defaults, position or keyword,
    # assignable fields only, == by exact type and values, no hash, match
    assert repr(MulCounter()) == "MulCounter(scalar_mults=0, scalar_invs=0)"
    assert MulCounter(30) == MulCounter(scalar_mults=30) == MulCounter(30, 0)
    assert c2 == MulCounter(scalar_invs=0, scalar_mults=30) != MulCounter(30, 1)
    assert c2.__eq__((30, 0)) is NotImplemented and c2 != (30, 0)
    copied = c2.copy()
    copied.scalar_invs += 1
    assert (copied, c2) == (MulCounter(30, 1), MulCounter(30, 0))
    with pytest.raises(AttributeError):
        c2.mults = 1
    with pytest.raises(TypeError):
        MulCounter(1, 2, 3)
    with pytest.raises(TypeError):
        hash(c2)
    match c2:
        case MulCounter(mults, invs):
            assert (mults, invs) == (30, 0)
        case _:
            pytest.fail("MulCounter takes no positional pattern")


def test_classical_shape_error():
    with pytest.raises(ShapeError):
        mat_mul_classical(rand_matrix(GF7, 2, 3, rng), rand_matrix(GF7, 2, 3, rng))


def test_classical_field_mismatch():
    with pytest.raises(FieldMismatchError, match=r"^mixed fields GF\(7\) and QQ$"):
        mat_mul_classical(rand_matrix(GF7, 2, 2, rng), rand_matrix(QQ, 2, 2, rng))


def test_strassen_validation():
    # Strassen products are reached through leu_decompose, which pads any
    # square to a power of two and rejects other shapes and a cutoff below 1
    A = rand_matrix(GF7, 3, 3, rng)
    s, k = leu_decompose(A, method="strassen", cutoff=2), leu_decompose(A)
    assert (s.L, s.E, s.U) == (k.L, k.E, k.U)
    with pytest.raises(ShapeError):
        leu_decompose(rand_matrix(GF7, 3, 4, rng), method="strassen", cutoff=2)
    B = rand_matrix(GF7, 4, 4, rng)
    with pytest.raises(ValueError):
        leu_decompose(B, method="strassen", cutoff=0)


def test_invert_lower_identity():
    I = DenseMatrix.identity(GF7, 3)
    assert invert_lower_triangular(I) == I


def test_invert_lower_worked():
    L = DenseMatrix(GF7, [[5, 0], [2, 4]])
    Li = invert_lower_triangular(L)
    assert Li == DenseMatrix(GF7, [[3, 0], [2, 2]])
    assert mul(L, Li) == DenseMatrix.identity(GF7, 2)
    assert mul(Li, L) == DenseMatrix.identity(GF7, 2)


def test_invert_lower_singular():
    with pytest.raises(SingularError):
        invert_lower_triangular(DenseMatrix(GF7, [[1, 0], [0, 0]]))
    with pytest.raises(ShapeError):
        invert_lower_triangular(DenseMatrix(GF7, [[1, 1], [0, 1]]))


def test_invert_upper_unitriangular():
    U = DenseMatrix(QQ, [[1, 2], [0, 1]])
    assert invert_upper_unitriangular(U) == DenseMatrix(QQ, [[1, -2], [0, 1]])
    I = DenseMatrix.identity(QQ, 4)
    assert invert_upper_unitriangular(I) == I
    with pytest.raises(ValueError):
        invert_upper_unitriangular(DenseMatrix(QQ, [[2, 1], [0, 1]]))
    with pytest.raises(ShapeError, match="^matrix is not upper triangular$"):
        invert_upper_unitriangular(DenseMatrix(QQ, [[1, 0], [1, 1]]))


def test_unitriangular_needs_a_square():
    assert is_upper_unitriangular(DenseMatrix.identity(GF7, 3))
    assert not is_upper_unitriangular(DenseMatrix(GF7, [[1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("invert", [invert_lower_triangular, invert_upper_unitriangular])
def test_triangular_inverse_shapes(invert):
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got \(2, 3\)$"):
        invert(DenseMatrix(GF7, [[1, 0, 0], [0, 1, 0]]))
    # the 0 x 0 matrix is its own inverse; the recursion never sees it
    c = MulCounter()
    assert invert(DenseMatrix(GF7, []), c) == DenseMatrix(GF7, [])
    assert c == MulCounter()


@pytest.mark.parametrize("field", FIELDS)
def test_invert_random_triangulars(field):
    n = 8
    one = field.one_raw
    lo = [[rand_matrix(field, 1, 1, rng)._d[0][0] if j < i else (one if j == i else 0)
           for j in range(n)] for i in range(n)]
    for i in range(n):  # keep the diagonal nonzero
        if not lo[i][i]:
            lo[i][i] = one
    L = DenseMatrix(field, lo)
    assert mul(L, invert_lower_triangular(L)) == DenseMatrix.identity(field, n)
    up = [[rand_matrix(field, 1, 1, rng)._d[0][0] if j > i else (one if j == i else 0)
          for j in range(n)] for i in range(n)]
    U = DenseMatrix(field, up)
    c = MulCounter()
    Ui = invert_upper_unitriangular(U, c)
    assert mul(U, Ui) == DenseMatrix.identity(field, n)
    assert c.scalar_invs == 0
    # two classical (n/2)^3 products per node: T(n) = 2 T(n/2) + n^3 / 4
    assert c.scalar_mults == 168


def test_inversion_counts_inversions():
    c = MulCounter()
    invert_lower_triangular(DenseMatrix(GF7, [[5, 0], [2, 4]]), c)
    assert c.scalar_invs == 2
    assert c.scalar_mults == 2
    # n = 3 splits 1 + 2: a 2x1 by 1x1 and a 2x2 by 2x1 product, and the 2x2 block's 2
    c = MulCounter()
    invert_lower_triangular(DenseMatrix(GF7, [[5, 0, 0], [2, 4, 0], [1, 1, 1]]), c)
    assert (c.scalar_mults, c.scalar_invs) == (2 + 4 + 2, 3)


def test_entries_are_scalars():
    A = DenseMatrix(GF7, [[3, 1], [2, 5]])
    assert A[0, 1] == GF7(1)
    assert A[1, 1].value == 5


def test_constructor_validation():
    with pytest.raises(ShapeError):
        DenseMatrix(GF7, [[1, 2], [3]])
    with pytest.raises(FieldMismatchError):
        DenseMatrix(GF7, [[QQ(1)]])
    with pytest.raises(TypeError):
        DenseMatrix(GF7, [[1.5]])


@pytest.mark.parametrize("field", [GF7, QQ])
@pytest.mark.parametrize("entries", [
    ["12", "34"],  # rows that would split into characters
    "12",  # a matrix that would become two rows of one character
    [b"12"],  # a row that would become the byte values 49 and 50
    [bytearray(b"12")],
    b"12",
    [[1, 2], "34"],
], ids=["str-rows", "str", "bytes-row", "bytearray-row", "bytes", "str-second-row"])
def test_constructor_rejects_text_rows(field, entries):
    with pytest.raises(TypeError):
        DenseMatrix(field, entries)


def test_constructor_keeps_rational_string_entries():
    A = DenseMatrix(QQ, [["1/2", "-3"], [4, "5/6"]])
    assert str(A) == "1/2 -3\n4 5/6"


# --- fraction-free rational products -------------------------------------
#
# Over QQ every product is taken on integer rows and columns scaled to a
# common denominator.  The reference below is the schoolbook sum in the
# field's own rational type, so agreement is byte for byte.


def _schoolbook(A, B):
    zero = A.field.zero_raw
    data = [[sum((a * b for a, b in zip(r, c)), zero) for c in zip(*B._d)] for r in A._d]
    if not A.cols:
        data = [[zero] * B.cols for _ in range(A.rows)]
    return DenseMatrix._wrap(A.field, data, A.rows, B.cols)


def _mixed_rational(rows, cols, r):
    """Entries with mixed and negative denominators, zero rows and columns,
    and plain int 0 entries as the recursion's zero rows hold them."""
    zero_row = r.randrange(rows) if rows > 1 else None
    zero_col = r.randrange(cols) if cols > 1 else None
    data = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if i == zero_row or j == zero_col or r.random() < 0.2:
                row.append(0 if r.random() < 0.5 else QQ.zero_raw)
            else:
                den = r.choice([1, 2, 3, -4, 6, -9, 35, 2**70 + 1])
                row.append(QQ.canon(r.randint(-50, 50)) / den)
        data.append(row)
    return DenseMatrix._wrap(QQ, data, rows, cols)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got == want
    assert str(got) == str(want)
    assert all(type(v) is type(QQ.zero_raw) for row in got._d for v in row)


@pytest.mark.parametrize("seed", range(8))
def test_rational_classical_square_matches_schoolbook(seed):
    r = random.Random(seed)
    for n in (1, 2, 3, 5, 8):
        A, B = _mixed_rational(n, n, r), _mixed_rational(n, n, r)
        c = MulCounter()
        _assert_same_bytes(mat_mul_classical(A, B, c), _schoolbook(A, B))
        assert c.scalar_mults == n**3


@pytest.mark.parametrize("seed", range(8))
def test_rational_classical_rectangular_matches_schoolbook(seed):
    # from 16 columns the integer product runs on packed slots
    r = random.Random(100 + seed)
    for rows, inner, cols in ((1, 4, 3), (5, 2, 1), (3, 0, 4), (0, 3, 2), (4, 7, 6), (6, 16, 16),
                              (3, 20, 33)):
        A, B = _mixed_rational(rows, inner, r), _mixed_rational(inner, cols, r)
        c = MulCounter()
        _assert_same_bytes(mat_mul_classical(A, B, c), _schoolbook(A, B))
        assert c.scalar_mults == rows * inner * cols


def _shared_denominators(rows, cols, r, down_columns):
    """Entries that share one denominator per column (a U-type operand) or
    per row (an L-type one), with some zero entries."""
    dens = [r.choice([1, 3, 7, 2**40 + 15, 6 * 2**70]) for _ in range(cols if down_columns else rows)]
    data = [
        [QQ.canon(r.randint(-99, 99) if r.random() > 0.2 else 0) / dens[j if down_columns else i]
         for j in range(cols)]
        for i in range(rows)
    ]
    return DenseMatrix._wrap(QQ, data, rows, cols)


@pytest.mark.parametrize("seed", range(4))
def test_rational_u_times_l_matches_schoolbook(seed):
    # the inverse's final product U * (E^T * L): the left operand shares its
    # denominators down its columns, the right one along its rows
    r = random.Random(150 + seed)
    for rows, inner, cols in ((1, 1, 1), (4, 4, 4), (8, 8, 8), (5, 3, 6), (2, 7, 3)):
        A = _shared_denominators(rows, inner, r, down_columns=True)
        B = _shared_denominators(inner, cols, r, down_columns=False)
        c = MulCounter()
        _assert_same_bytes(mat_mul_classical(A, B, c), _schoolbook(A, B))
        assert c.scalar_mults == rows * inner * cols
    res = leu_decompose(_mixed_rational(8, 8, r))
    for X, Y in ((res.U, mul(tp_to_dense(res.E, QQ).transpose(), res.L)), (res.U, res.L)):
        c = MulCounter()
        _assert_same_bytes(mat_mul_classical(X, Y, c), _schoolbook(X, Y))
        assert c.scalar_mults == 8**3


def _entrywise(op, *mats):
    data = [[op(*vs) for vs in zip(*rows)] for rows in zip(*(M._d for M in mats))]
    return DenseMatrix._wrap(QQ, data, mats[0].rows, mats[0].cols)


def test_rational_block_kernel_round_trip():
    from leu.dense import blocks

    r = random.Random(300)
    K = blocks(QQ)
    for n in (1, 2, 4, 6):
        A, B = _mixed_rational(n, n, r), _mixed_rational(n, n, r)
        x, y = K.load(A._d), K.load(B._d)

        def back(blk, rows=n, cols=n):
            return DenseMatrix._wrap(QQ, K.store(blk), rows, cols)

        _assert_same_bytes(back(x), A)
        _assert_same_bytes(back(K.add(x, y)), _entrywise(operator.add, A, B))
        _assert_same_bytes(back(K.sub(x, y)), _entrywise(operator.sub, A, B))
        _assert_same_bytes(back(K.neg(x)), _entrywise(operator.neg, A))
        xy = _schoolbook(A, B)
        _assert_same_bytes(back(K.mul(x, y)), xy)
        # the fused forms are the block sums of the product
        _assert_same_bytes(back(K.mul(x, y, 0, None, -1)), _entrywise(operator.neg, xy))
        _assert_same_bytes(back(K.mul(x, y, 0, y)), _entrywise(operator.add, B, xy))
        _assert_same_bytes(back(K.mul(x, y, 0, y, -1)), _entrywise(operator.sub, B, xy))
        c = MulCounter()
        _assert_same_bytes(mat_mul_classical(A, B, c), _schoolbook(A, B))
        assert c.scalar_mults == n**3
        wide = DenseMatrix._wrap(QQ, [ra + rb for ra, rb in zip(A._d, B._d)], n, 2 * n)
        _assert_same_bytes(back(K.join(x, y, y, x), 2 * n, 2 * n),
                           DenseMatrix._wrap(QQ, wide._d + [rb + ra for ra, rb in zip(A._d, B._d)],
                                             2 * n, 2 * n))


# --- packed GF(p) products ---------------------------------------------------
#
# Over GF(p) a classical product packs each row of the right operand into one
# integer of fixed-width slots.  The reference is the schoolbook sum of
# products reduced once, so agreement is byte for byte.

GFP_PRIMES = (2, 7, 65521, 18446744073709551557)  # the last: largest prime < 2**64


def _gfp_schoolbook(x, y, k, c, p):
    cols = [[y[t][j] for t in range(k)] for j in range(c)]
    return [[sum(a * b for a, b in zip(r, col)) % p for col in cols] for r in x]


def _gfp_operands(p, rows, k, c, r, kind):
    if kind == "max":  # every slot at its largest sum, k(p-1)^2
        return [[p - 1] * k for _ in range(rows)], [[p - 1] * c for _ in range(k)]
    x = [[r.randrange(p) for _ in range(k)] for _ in range(rows)]
    y = [[r.randrange(p) for _ in range(c)] for _ in range(k)]
    if rows > 1:
        x[r.randrange(rows)] = [0] * k
    return x, y


def _assert_same_residues(got, want):
    assert got == want
    assert all(type(v) is int for row in got for v in row)


@pytest.mark.parametrize("p", GFP_PRIMES)
@pytest.mark.parametrize("kind", ["random", "max"])
def test_gfp_classical_square_matches_schoolbook(p, kind):
    # with zero and identity operands too, which the block product hands
    # back without the kernel; negating a product, as l_bl and u_tr are,
    # gives (-schoolbook) % p and leaves the product as it was
    from leu.dense import blocks

    r = random.Random(p)
    F = GF(p)
    K = blocks(F)
    for h in (1, 2, 3, 8, 64):
        x, y = _gfp_operands(p, h, h, h, r, kind)
        want = _gfp_schoolbook(x, y, h, h, p)
        c = MulCounter()
        got = mat_mul_classical(DenseMatrix(F, x), DenseMatrix(F, y), c)
        _assert_same_residues(got._d, want)
        assert c.scalar_mults == h**3
        zero, one = [[0] * h for _ in range(h)], K.identity(h)
        for a, b in ((x, y), (zero, y), (x, zero), (one, y), (x, one)):
            want = _gfp_schoolbook(a, b, h, h, p)
            got = K.mul(a, b)
            _assert_same_residues(K.neg(got), [[-v % p for v in row] for row in want])
            _assert_same_residues(got, want)


@pytest.mark.parametrize("p", GFP_PRIMES)
def test_gfp_classical_rectangular_matches_schoolbook(p):
    r = random.Random(500 + p)
    F = GF(p)
    shapes = ((1, 4, 3), (5, 2, 1), (2, 9, 5), (3, 0, 4), (0, 3, 2), (4, 7, 0), (4, 0, 0))
    for rows, k, cols in shapes:
        for kind in ("random", "max"):
            x, y = _gfp_operands(p, rows, k, cols, r, kind)
            A = DenseMatrix._wrap(F, x, rows, k)
            B = DenseMatrix._wrap(F, y, k, cols)
            c = MulCounter()
            got = mat_mul_classical(A, B, c)
            assert got.shape == (rows, cols)
            _assert_same_residues(got._d, _gfp_schoolbook(x, y, k, cols, p))
            assert c.scalar_mults == rows * k * cols


# (p, k): the k at which k(p-1)^2, the largest sum in a slot of the GF(p)
# classical kernel, first needs one more byte; at p = 2^31 - 1 the slots
# outgrow 8 bytes, the widest that struct packs.  Rows of 32 or more slots
# take the exact width where it is 5 bytes (65521, 2 and 256); the 3-, 6-
# and 7-byte steps (7, 1821; 65521, 257; 2^24 - 3, 2) are rounded to 4 or 8
SLOT_STEPS = [(2, 256), (7, 8), (7, 1821), (65521, 2), (65521, 257), (2**24 - 3, 2),
              (2**31 - 1, 5), (2**32 - 5, 2), (2**64 - 59, 2)]


@pytest.mark.parametrize("p,step", SLOT_STEPS)
def test_gfp_classical_at_slot_width_steps(p, step):
    # all-(p-1) operands fill every slot to its bound, so a slot one byte
    # too narrow on either side of a step carries into its neighbour.  Three
    # columns take the struct-rounded slots, and 33 the exact width where it
    # is 5 bytes; the zero row of the second goes through the whole-matrix
    # cut with the others
    from leu.dense import _gfp_classical

    def width(k):
        return ((k * (p - 1) ** 2).bit_length() + 7) // 8

    assert width(step) == width(step - 1) + 1
    F = GF(p)
    for k in (step - 1, step):
        for rows, cols in ((1, 3), (3, 33)):
            xd = [[p - 1] * k for _ in range(rows)]
            want = [[k % p] * cols for _ in range(rows)]
            if rows > 1:
                xd[1], want[1] = [0] * k, [0] * cols
            x = DenseMatrix._wrap(F, xd, rows, k)
            y = DenseMatrix._wrap(F, [[p - 1] * cols for _ in range(k)], k, cols)
            _assert_same_residues(mat_mul_classical(x, y)._d, want)
            # a fused sign or sum widens the slots by up to p - 1 each
            acc = [[p - 1] * cols for _ in range(rows)]
            for a, s in ((None, -1), (acc, 1), (acc, -1)):
                got = _gfp_classical(xd, y._d, k, cols, p, 0, a, s)
                _assert_same_residues(got, [[(b + s * w) % p for b, w in zip(br, wr)]
                                            for br, wr in zip(a or [[0] * cols] * rows, want)])


def _triangle(p, n, lower, r):
    # a seeded n x n triangular matrix of residues with two zero rows
    t = [[r.randrange(p) if (j <= i if lower else j >= i) else 0 for j in range(n)]
         for i in range(n)]
    t[r.randrange(n)] = t[r.randrange(n)] = [0] * n
    return t


@pytest.mark.parametrize("p", (2, 7, 65521, 2**61 - 1))
def test_a_triangular_hint_changes_no_product(p):
    # the kernel skips the zero triangle of a lower x (each row sums its
    # first i + 1 terms) or an upper y (packed in reverse slot order and
    # read back reversed) once r, k and c are all at least _EXACT_COLS = 32:
    # on both sides of that gate the hinted product is the unhinted one.
    # 2^61 - 1 takes slots of 17 bytes, which go through byte slices
    from leu.dense import _LOWER, _UPPER, _gfp_classical

    r = random.Random(2900 + p)
    for n, other in ((31, 40), (32, 32), (32, 31), (33, 5), (33, 70), (64, 64), (100, 33)):
        x = _triangle(p, n, True, r)
        y, _ = _gfp_operands(p, n, other, 1, r, "random")
        want = _gfp_schoolbook(x, y, n, other, p)
        _assert_same_residues(_gfp_classical(x, y, n, other, p, 0), want)
        _assert_same_residues(_gfp_classical(x, y, n, other, p, _LOWER), want)
        x, _ = _gfp_operands(p, other, n, 1, r, "random")
        y = _triangle(p, n, False, r)
        want = _gfp_schoolbook(x, y, n, n, p)
        _assert_same_residues(_gfp_classical(x, y, n, n, p, 0), want)
        _assert_same_residues(_gfp_classical(x, y, n, n, p, _UPPER), want)


# (p, n, slot bytes) for an n x n by n x n product on each slot path: struct
# slots of 1, 2, 4 and 8 bytes, the 5-byte exact width (32 slots or more)
# beside the 8 bytes it rounds to on fewer, and 16-byte slots cut by byte
# slices
FUSED_PATHS = [(2, 40, 1), (7, 40, 2), (4093, 40, 4), (2**24 - 3, 40, 8), (65521, 40, 5),
               (65521, 8, 8), (2**61 - 1, 40, 16)]


@pytest.mark.parametrize("p,n,size", FUSED_PATHS)
def test_fused_products_match_schoolbook(p, n, size):
    # acc + s * (x * y) for s = +-1 and acc None, random or zero, under no
    # hint, a lower x and an upper y, is the schoolbook product's sum,
    # reduced once.  Each x has zero rows, whose product rows are zero: a
    # fused row there is its acc row itself.  Through the block product the
    # zero and cached identity operands take their shortcuts, then the sums
    from leu.dense import _LOWER, _UPPER, _slots, blocks

    assert _slots(((n * (p - 1) ** 2).bit_length() + 7) // 8, n, n)[2] == size
    r = random.Random(3400 + p + n)
    K = blocks(GF(p))
    zero, eye = [[0] * n for _ in range(n)], K.identity(n)
    for tri in (0, _LOWER, _UPPER):
        x = _triangle(p, n, True, r) if tri == _LOWER else _gfp_operands(p, n, n, n, r, "random")[0]
        y = _triangle(p, n, False, r) if tri == _UPPER else _gfp_operands(p, n, n, n, r, "random")[1]
        acc = _gfp_operands(p, n, n, n, r, "random")[1]
        for a in (None, acc, zero):
            for s in (1, -1):
                for u, v in ((x, y), (zero, y), (x, zero), (eye, y), (x, eye)):
                    uv = _gfp_schoolbook(u, v, n, n, p)
                    want = [[(b + s * w) % p for b, w in zip(br, wr)] for br, wr in zip(a or zero, uv)]
                    _assert_same_residues(K.mul(u, v, tri, a, s), want)
                if a is not None:
                    got = K.mul(x, y, tri, a, s)
                    assert all(g is b for g, b, row in zip(got, a, x) if not any(row))


def test_perm_cols_passes_the_full_width_identity_through():
    # X * E^T with E the identity at X's full width is X itself, found in
    # O(h); a partial identity, or one of another width, still moves
    # columns and zero-fills the rest, as any other E does
    from leu.dense import _perm_cols

    r = random.Random(3500)
    rows = [[r.randrange(1, 7) for _ in range(4)] for _ in range(3)]
    narrow = [row[:3] for row in rows]
    eye = [(i, i) for i in range(4)]
    assert _perm_cols(rows, eye, 4) is rows
    assert _perm_cols([], eye, 4) == []
    swap = [(0, 1), (1, 0), (2, 2), (3, 3)]
    for x, ones, c, want in ((rows, eye[:3], 4, [v + [0] for v in narrow]),  # partial
                             (rows, eye[:3], 3, narrow),  # rows wider than E
                             (narrow, eye[:3], 4, [v + [0] for v in narrow]),  # E wider
                             (rows, swap, 4, [[b, a, c, d] for a, b, c, d in rows])):
        got = _perm_cols(x, ones, c)
        assert got == want and got is not x


# --- packed integer products (the ℚ kernel) ----------------------------------
#
# Over ℚ the integer product of two fraction-free blocks packs the right
# operand's rows, offset by its largest magnitude, into slots of one sign bit
# more than k max|x| max|y|, from 16 columns and up to 32-byte slots.  The
# reference is the schoolbook _raw_classical, and each case also checks which
# of the two ran.


def _int_path(monkeypatch):
    # _int_classical with its schoolbook fallback recorded; returns the
    # kernel, the reference and the list of fallback calls
    import leu.dense as dense

    raw, calls = dense._raw_classical, []

    def recorded(x, y, c):
        calls.append(c)
        return raw(x, y, c)

    monkeypatch.setattr(dense, "_raw_classical", recorded)
    return dense._int_classical, raw, calls


def _packs(k, mx, my, c):
    return c >= 16 and ((k * mx * my).bit_length() + 8) // 8 <= 32


def _magnitude(bits, largest):
    # the largest or smallest m with 3 m^2 of exactly the given bit length
    m = isqrt(((1 << bits) - 1) // 3) if largest else isqrt(((1 << (bits - 1)) - 1) // 3) + 1
    assert (3 * m * m).bit_length() == bits
    return m


@pytest.mark.parametrize("width", range(2, 34))
def test_int_classical_at_slot_width_steps(monkeypatch, width):
    # At the step where an entry bound of k m^2 (k = 3) first needs width
    # bytes: the largest m still in width - 1 bytes and the smallest m past
    # it.  Rows of +m, 0 and -m against all +m or all -m put every slot at
    # its bound with either sign and leave a zero row between, so a slot
    # one bit too narrow carries and a bias one bit short borrows.  15
    # columns take the schoolbook sums, 16 the struct-rounded or byte-sliced
    # slots and 33 the exact 5-byte ones; 33-byte slots fall back too.  Where
    # struct rounds width - 1 up (3, 6 and 7 bytes, and 5 below 32 columns)
    # the slot has room to spare and the step is only checked, not tight.
    kernel, raw, calls = _int_path(monkeypatch)
    k = 3
    for m in (_magnitude(8 * width - 9, True), _magnitude(8 * width - 8, False)):
        x = [[m] * k, [0] * k, [-m] * k]
        for c in (15, 16, 33):
            for s in (1, -1):
                y = [[s * m] * c for _ in range(k)]
                want = [[s * k * m * m] * c, [0] * c, [-s * k * m * m] * c]
                assert raw(x, y, c) == want
                del calls[:]
                got = kernel(x, y, k, c)
                assert got == want, (m, c, s)
                assert all(type(v) is int for row in got for v in row)
                assert calls == ([] if _packs(k, m, m, c) else [c])


@pytest.mark.parametrize("bits", [1, 5, 40, 120, 300])
def test_int_classical_random_signed_matches_schoolbook(monkeypatch, bits):
    # random signs and sizes, zero rows, zero and one-sided zero operands,
    # and shapes on either side of 16 columns and of 32 slots
    kernel, raw, calls = _int_path(monkeypatch)
    r = random.Random(bits)
    for rows, k, c in ((5, 7, 16), (16, 16, 16), (3, 40, 33), (32, 32, 32), (1, 1, 64), (4, 9, 15)):
        x = [[r.randint(-(1 << bits), 1 << bits) for _ in range(k)] for _ in range(rows)]
        y = [[r.randint(-(1 << bits), 1 << bits) for _ in range(c)] for _ in range(k)]
        x[r.randrange(rows)] = [0] * k
        zx, zy = [[0] * k for _ in range(rows)], [[0] * c for _ in range(k)]
        for a, b in ((x, y), (zx, y), (x, zy), (zx, zy)):
            del calls[:]
            got = kernel(a, b, k, c)
            assert got == raw(a, b, c)
            mx = max(abs(v) for row in a for v in row) or 1
            my = max(abs(v) for row in b for v in row)
            assert calls == ([] if _packs(k, mx, my, c) else [c])


@pytest.mark.parametrize("field", [GF7, QQ])
def test_product_with_the_cached_identity_is_the_other_operand(field):
    from leu.dense import blocks

    K = blocks(field)
    x = K.load(rand_matrix(field, 4, 4, random.Random(5))._d)
    zero = K.zeros(4, 4)
    for other in (x, zero):
        assert K.mul(K.identity(4), other) is other
        assert K.mul(other, K.identity(4)) is other


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
def test_an_empty_mask_or_no_ones_give_a_zero_block(field):
    # keeping no column, or moving columns by an E with no ones, builds no
    # row of the operand: the result is the zero block of its shape
    from leu.dense import blocks

    K = blocks(field)
    x = K.load(rand_matrix(field, 3, 4, random.Random(6))._d)
    for got in (K.keep_cols(x, 0, 4), K.perm_cols(x, [], 4)):
        assert K.is_zero(got) and K.store(got) == DenseMatrix.zeros(field, 3, 4)._d


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
def test_the_inverse_of_a_one_is_the_cached_identity(field):
    # a pivot of 1 hands on the kernel's identity(1), so the block products
    # that take it skip the kernel; any other pivot gets its own inverse
    from leu.dense import blocks

    K = blocks(field)
    ones = [K.load([[field.one_raw]])]
    if field == QQ:  # a one in fraction-free form: 6 / (2 * 3)
        ones.append(([[6]], [2], [3]))
    for x in ones:
        assert K.inverse1(x) is K.identity(1)
    for v in (field.canon(3), field.canon(-1)):
        inv = K.inverse1(K.load([[v]]))
        assert inv is not K.identity(1)
        assert K.store(inv) == [[field.inv(v)]]


@pytest.mark.parametrize("seed", range(4))
def test_one_sided_rational_blocks_are_the_loads_of_the_stored_ones(seed):
    # moving a block's scales onto its rows (or its columns) in integers
    # gives exactly what loading its stored fractions gives
    from leu.dense import blocks

    r = random.Random(seed)
    K = blocks(QQ)

    def scales(n):
        if r.random() < 0.3:
            return [1] * n
        return [r.choice([1, 2, 3, 4, 6, 9, 35, 2**70 + 1]) for _ in range(n)]

    for rows, cols in ((1, 1), (3, 3), (4, 6), (7, 2)):
        nums = [[r.randint(-40, 40) if r.random() < 0.8 else 0 for _ in range(cols)]
                for _ in range(rows)]
        x = (nums, scales(rows), scales(cols))
        stored = K.store(x)
        assert K.one_sided(x) == K.load(stored)
        assert K.one_sided(x, cols=True) == K.load_cols(stored)
        assert K.store(K.transpose(x)) == [list(c) for c in zip(*stored)]


def test_packing_plans_stay_cached_across_workload_ops():
    # a rational 32 x 32 inverse and a GF(65521) decomposition at n = 128,
    # the inputs of the qq-inverse-32 and gfp-leu-128 benchmark workloads:
    # after one op of each, a second op of each finds every plan cached
    from leu import mat_inverse
    from leu.cli import bench_matrix
    from leu.dense import _slots

    r, n = random.Random(1), 32
    lo = [[1 if i == j else (r.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (r.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    A = mul(DenseMatrix(QQ, lo), DenseMatrix(QQ, up))
    G = bench_matrix(128, 1, 65521)
    mat_inverse(A)
    leu_decompose(G)
    warm = _slots.cache_info()
    mat_inverse(A)
    leu_decompose(G)
    info = _slots.cache_info()
    assert info.misses == warm.misses
    assert info.hits > warm.hits


def _reference(A, B):
    if A.field == QQ:
        return _schoolbook(A, B)
    data = _gfp_schoolbook(A._d, B._d, A.cols, B.cols, A.field.modulus)
    return DenseMatrix._wrap(A.field, data, A.rows, B.cols)


@pytest.mark.parametrize("field", [GF7, GF(65521), GF(2**64 - 59), QQ])
def test_identity_and_zero_operands_match_schoolbook(field):
    # a zero operand takes the block kernel's shortcut, and an identity
    # passed in by value runs the kernel like any other operand; either way
    # the result must be the schoolbook's canonical entries, counted r*k*c
    r = random.Random(160)
    shapes = ((3, 3, 3), (1, 4, 3), (5, 2, 1), (2, 9, 5), (3, 0, 4), (0, 3, 2), (4, 7, 0),
              (4, 0, 0), (0, 0, 0))
    want_type = type(field.zero_raw)
    for rows, k, cols in shapes:
        A = _mixed_rational(rows, k, r) if field == QQ else rand_matrix(field, rows, k, r)
        B = _mixed_rational(k, cols, r) if field == QQ else rand_matrix(field, k, cols, r)
        pairs = [(DenseMatrix.zeros(field, rows, k), B), (A, DenseMatrix.zeros(field, k, cols)),
                 (DenseMatrix.identity(field, rows), A), (A, DenseMatrix.identity(field, k)),
                 (DenseMatrix.identity(field, k), B), (B, DenseMatrix.identity(field, cols))]
        for X, Y in pairs:
            c = MulCounter()
            got, want = mat_mul_classical(X, Y, c), _reference(X, Y)
            assert got.shape == want.shape and got == want and str(got) == str(want)
            assert all(type(v) is want_type for row in got._d for v in row)
            assert c.scalar_mults == X.rows * X.cols * Y.cols


@pytest.mark.parametrize("field", [GF7, GF(65521), QQ], ids=str)
def test_products_build_no_identity(monkeypatch, field):
    # the block product's one identity test is by object, against the
    # identity the recursions hand on, so a public product of nonzero
    # squares builds none to compare its operands with
    from leu.dense import _Blocks

    def refuse(self, n):
        raise AssertionError(f"identity({n}) built by a product")

    monkeypatch.setattr(_Blocks, "identity", refuse)
    r = random.Random(170)

    def nonzero(h):
        if field == QQ:
            return DenseMatrix(QQ, [[QQ.canon(r.randint(1, 50)) / r.choice([1, -3, 7]) for _ in range(h)]
                                    for _ in range(h)])
        return DenseMatrix(field, [[r.randrange(1, field.modulus) for _ in range(h)] for _ in range(h)])

    for h in (1, 2, 8):
        A, B = nonzero(h), nonzero(h)
        for X, Y in ((A, B), (DenseMatrix.identity(field, h), B), (A, DenseMatrix.identity(field, h))):
            c = MulCounter()
            got, want = mat_mul_classical(X, Y, c), _reference(X, Y)
            assert got == want and str(got) == str(want)
            assert c.scalar_mults == h**3


@pytest.mark.parametrize("field", [GF7, QQ], ids=str)
def test_transpose_of_a_matrix_with_no_rows(field):
    # a parsed 0 x 3 matrix transposes to three empty rows, so a product
    # with it keeps its rows and its text parses back
    A = parse_matrix(format_matrix(DenseMatrix.zeros(field, 0, 3)))
    T = A.transpose()
    assert T == DenseMatrix.zeros(field, 3, 0)
    c = MulCounter()
    P = mat_mul_classical(T, DenseMatrix.zeros(field, 0, 2), c)
    assert P == DenseMatrix.zeros(field, 3, 2)
    assert parse_matrix(format_matrix(P)) == P
    assert c.scalar_mults == 0


# --- Strassen-mode products ---------------------------------------------------
#
# Strassen mode changes only the count: a decomposition plan's ``mm`` takes
# the product from the field's one kernel, and the decomposition prices each
# node of order n from the model, 17 products at ``strassen_count(n // 2,
# cutoff)``.  So the operands that mode multiplies are checked on the kernel,
# and the count once per (n, cutoff), whatever the kernel skipped.


def _zero_quarter(x, n, which, zero):
    h = n // 2
    rows = range(h) if which < 2 else range(h, n)
    cols = range(h) if which % 2 == 0 else range(h, n)
    x = [row[:] for row in x]
    for i in rows:
        for j in cols:
            x[i][j] = zero
    return x


def _one_value_product(x, y, field, t):
    # x and y hold only zeros and t: entry (i, j) is t^2 times the number
    # of terms whose factors are both nonzero
    rows = [sum(1 << j for j, v in enumerate(row) if v) for row in x]
    cols = [sum(1 << i for i, row in enumerate(y) if row[j]) for j in range(len(y[0]))]
    entry = [field.canon(m * t * t) for m in range(len(y) + 1)]
    return [[entry[(a & b).bit_count()] for b in cols] for a in rows]


@pytest.mark.parametrize("field", [GF(p) for p in GFP_PRIMES] + [QQ], ids=str)
def test_structured_operands_match_schoolbook(field):
    # Random operands, with one zero quarter in each, or zero.  And operands
    # of zeros and t = p - 1 (-1 over QQ): all t, which fills every slot of
    # the kernel to its k(p-1)^2 bound; one zero quarter against all t in
    # either operand; and the self-similar operand whose bottom-left quarter
    # is zero at every level, which leaves whole slots empty beside full
    # ones.  p = 2 has the narrowest slots, 2^64 - 59 slots wider than 8
    # bytes; over QQ the -1 operands take the packed slots from 16 columns.
    from leu.dense import blocks

    K = blocks(field)
    r = random.Random(900)
    zero, t = field.zero_raw, field.canon(-1)

    def square(rows):
        return DenseMatrix._wrap(field, rows, len(rows), len(rows))

    def check(x, y, want):
        n = len(x)
        got = square(K.store(K.mul(K.load(x), K.load(y))))
        assert got == want and str(got) == str(want), n
        assert all(type(v) is type(zero) for row in got._d for v in row)

    for n in (1, 2, 4, 8, 16, 32, 64):
        full = [[t] * n for _ in range(n)]
        nested = [[zero if i & ~j else t for j in range(n)] for i in range(n)]
        pairs = [(full, full), (nested, full), (full, nested), (nested, nested)]
        for which in range(4) if n > 1 else ():
            z = _zero_quarter(full, n, which, zero)
            pairs += [(z, full), (full, z)]
        for x, y in pairs:
            check(x, y, square(_one_value_product(x, y, field, t)))
        if n > (8 if field == QQ else 32):
            continue
        if field == QQ:
            x, y = _mixed_rational(n, n, r)._d, _mixed_rational(n, n, r)._d
        else:
            x, y = _gfp_operands(field.modulus, n, n, n, r, "random")
        zeros = [[zero] * n for _ in range(n)]
        pairs = [(x, y), (zeros, y), (x, zeros)]
        for which in range(4) if n > 1 else ():
            pairs += [(_zero_quarter(x, n, which, zero), _zero_quarter(y, n, 3 - which, zero))]
        for x, y in pairs:
            check(x, y, _reference(square(x), square(y)))


def test_strassen_counts():
    # a plan's mm returns the kernel's product, zero quarters and zero
    # operands included, hands a factor not built (None) the other operand
    # and counts nothing.  A node of order n is priced at 17 products of one
    # strassen_count(n // 2, cutoff) each
    from leu.decompose import _Plan
    from leu.dense import strassen_count

    models = {(1, 1): 1, (2, 1): 7, (4, 1): 49, (8, 1): 343, (8, 2): 392, (8, 4): 448, (8, 8): 512}
    assert {nc: strassen_count(*nc) for nc in models} == models
    grid = {n: (1, 2, 8, 32) for n in (1, 2, 4, 8, 16, 32)}
    grid[8] += (4,)
    grid[16] += (4,)
    grid[64] = (2,)
    r = random.Random(901)
    for field in [GF(p) for p in GFP_PRIMES] + [QQ]:
        plan = _Plan(field, False, False, MulCounter())
        K = plan.k
        for n, cutoffs in grid.items():
            A = rand_matrix(field, n, n, r)
            Z = [[field.zero_raw] * n for _ in range(n)]
            pairs = [(A._d, A._d), (Z, A._d), (A._d, Z)]
            for which in range(4) if n > 1 else ():
                q = _zero_quarter(A._d, n, which, field.zero_raw)
                pairs += [(q, A._d), (A._d, q)]
            for x, y in pairs:
                x, y = K.load(x), K.load(y)
                assert plan.mm(x, y) == K.mul(x, y)
            assert plan.mm(None, x) is x and plan.mm(x, None) is x
            assert plan.counter == MulCounter()
            for cutoff in cutoffs:
                log = []
                leu_decompose(A, method="strassen", cutoff=cutoff, _node_log=log)
                assert all(own == 17 * strassen_count(size // 2, cutoff) for size, own in log)
                assert log[-1:] == ([(n, 17 * strassen_count(n // 2, cutoff))] if n > 1 else [])
