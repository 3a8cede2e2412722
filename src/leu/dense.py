"""Dense matrices over an exact field.

Matrices are immutable after construction, so every operation is a pure
function and rows may be shared between results freely.

Each field has one product kernel, and the kernel only computes.  The
count is the caller's: multiplications carry an explicit
:class:`MulCounter` instead of global state, and the code that owns the
cost model adds to it.  The classical model counts rows*inner*cols scalar
products, the Strassen model 7 half-size products per level down to
classical leaves at the cutoff (``strassen_count``), and applications of
permutation or diagonal matrices (see :mod:`leu.perms`) count nothing.
The exact product is unique, so ``method`` and ``cutoff`` choose only the
count, never the kernel or a value.  Strassen's recursion measured slower
than the classical kernels in both fields at every size and cutoff tried.

Every product is an exact integer product followed by one canonicalization
per output entry.  Over GF(p) the kernel packs each row of the right
operand into one integer of fixed-width slots, wide enough that the sum of
a row's products never carries from one slot into the next; an output row
is then one multiply-accumulate of residues against the packed rows, cut
back into its slots and reduced once per entry (see ``_gfp_classical``).
A slot is as many bytes as its largest sum needs when that is 5 (GF(65521)
up to k = 256) and a row holds at least 32 slots; otherwise it is rounded
up to the next size that ``struct`` packs (1, 2, 4 or 8 bytes), and wider
slots are cut by byte slices.  Narrow rows keep the rounding because the
strided copies that drop the padding cost more there than the shorter
integers save; other widths keep it until a gain there is measured (see
``_slots``).
A caller may declare x lower (``_LOWER``) or y upper (``_UPPER``)
triangular, and the kernel then skips the zero triangle: row i of a lower x
sums only its first i + 1 packed rows, and an upper y is packed in reverse
slot order, so that its row t is c - t slots long, summed shortest first so
that the running sum stays short, and each cut row is read back reversed.
The skipped terms are zero, so no value changes.  Products with fewer than
``_EXACT_COLS`` rows, inner or columns ignore the hint, which cost more there
than it saved.  The rational kernel takes none: on its packed sums a hint
read 1.00x on a 64 x 64 decomposition and 1.05x on a 64 x 64 inverse.
A product may also take a sign and an accumulator, acc + s * (x * y) with
s = 1 or -1: the recursions' block sums and sign flips.  Over GF(p) both
ride on the packed row sums (each taken off a multiple of p in every slot,
acc's rows packed and added), so each entry is still cut and reduced once;
a rational product, or one made without the kernel, takes them in one pass.
Over the rationals products are fraction-free: a block is integer rows with
a scale per row and per column, the form the recursions keep throughout
(see the block kernels below).  The public product loads each row of its
left operand and each column of its right one over the lcm of its
denominators, so the kernel takes one integer product and makes each entry
one integer over the product of its row and column scales.  The integer
product runs on the same packed slots, with the signs offset instead of
reduced: the right operand's largest magnitude is added to its entries
before packing and taken off each packed row, and each row sum starts at
half a slot, which comes off each cut entry (see ``_int_classical``).
Products of fewer than 16 columns, or whose slots would be wider than 32
bytes, keep the schoolbook sums, which are faster there.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add as _add, mul as _mul, sub as _sub
from struct import Struct

from .errors import FieldMismatchError, ShapeError, SingularError
from .fields import FieldSpec, Scalar, _rational


class _Record:
    """A record that names its fields in ``__match_args__`` and ``__slots__``
    and sets them in ``__init__``, with a dataclass's repr and ``==`` (by exact
    type and field values) and no hash.  A dataclass would load ``inspect``,
    ``ast``, ``dis`` and ``tokenize`` into every process that imports leu."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__match_args__
        return [getattr(self, k) for k in fields] == [getattr(other, k) for k in fields]


class MulCounter(_Record):
    """Running totals of scalar multiplications and scalar inversions."""

    __slots__ = __match_args__ = ("scalar_mults", "scalar_invs")

    def __init__(self, scalar_mults: int = 0, scalar_invs: int = 0):
        self.scalar_mults, self.scalar_invs = scalar_mults, scalar_invs

    def copy(self) -> "MulCounter":
        return MulCounter(self.scalar_mults, self.scalar_invs)


_TEXT = (str, bytes, bytearray)


class DenseMatrix:
    """A rows x cols matrix of canonical field values.

    Construct from any nested sequence of entries: integers of any integral
    type, fractions or rational strings over the rationals, or
    :class:`Scalar` of the matching field.  Floats are rejected, because a
    float is not the exact value it was written as, and so are a string or
    bytes in place of the rows or of a row.  Indexing with
    ``A[i, j]`` returns a :class:`Scalar`.
    """

    __slots__ = ("field", "rows", "cols", "_d")

    def __init__(self, field: FieldSpec, entries):
        canon = field.canon
        data = []
        cols = None
        # a string iterates as its characters and bytes as small integers
        if isinstance(entries, _TEXT):
            raise TypeError(f"matrix entries must be rows, got {type(entries).__name__}")
        for raw_row in entries:
            if isinstance(raw_row, _TEXT):
                raise TypeError(f"a matrix row must hold entries, got {type(raw_row).__name__}")
            row = []
            for v in raw_row:
                if isinstance(v, Scalar):
                    if v.field != field:
                        raise FieldMismatchError(f"entry of field {v.field!r} in {field!r} matrix")
                    row.append(v.value)
                else:
                    row.append(canon(v))
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise ShapeError("ragged rows")
            data.append(row)
        self.field = field
        self.rows = len(data)
        self.cols = 0 if cols is None else cols
        self._d = data

    @classmethod
    def _wrap(cls, field: FieldSpec, data: list, rows: int, cols: int) -> "DenseMatrix":
        # internal fast path: data is already canonical, no validation
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._d = data
        return m

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "DenseMatrix":
        z = field.zero_raw
        return cls._wrap(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "DenseMatrix":
        z, o = field.zero_raw, field.one_raw
        data = [[o if i == j else z for j in range(n)] for i in range(n)]
        return cls._wrap(field, data, n, n)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar(self.field, self._d[i][j])

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._d == self._d
        )

    def transpose(self) -> "DenseMatrix":
        data = [list(col) for col in zip(*self._d)] if self.rows else [[]] * self.cols
        return DenseMatrix._wrap(self.field, data, self.cols, self.rows)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._d)

    def select(self, row_idx, col_idx) -> "DenseMatrix":
        """Submatrix at the given row and column index lists."""
        data = [[self._d[i][j] for j in col_idx] for i in row_idx]
        return DenseMatrix._wrap(self.field, data, len(data), len(col_idx))

    def __repr__(self):
        return f"<DenseMatrix {self.rows}x{self.cols} over {self.field!r}>"

    def __str__(self):
        return "\n".join(" ".join(map(str, row)) for row in self._d)


def is_lower_triangular(A: DenseMatrix) -> bool:
    d = A._d
    return all(not d[i][j] for i in range(A.rows) for j in range(i + 1, A.cols))


def is_upper_triangular(A: DenseMatrix) -> bool:
    d = A._d
    return all(not d[i][j] for i in range(A.rows) for j in range(min(i, A.cols)))


def is_upper_unitriangular(A: DenseMatrix) -> bool:
    if A.rows != A.cols or not is_upper_triangular(A):
        return False
    one = A.field.one_raw
    return all(A._d[i][i] == one for i in range(A.rows))


# ---------------------------------------------------------------------------
# integer product kernels: exact over any ring of Python numbers


def _raw_classical(x, y, out_cols):
    zrow = [0] * out_cols
    yt = list(zip(*y))
    return [[sum(map(_mul, r, c)) for c in yt] if any(r) else zrow for r in x]


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_EXACT_COLS = 32  # the fewest slots per row that take exact-width slots
_LOWER, _UPPER = 1, 2  # a product's hint: x is lower, or y upper, triangular


@lru_cache(maxsize=64)
def _slots(width, k, c):
    # A packer of the k rows of a right operand into one integer per row, a
    # cutter of row integers back into tuples of c slot values, and the slot
    # size in bytes, for slots of values in [0, 2^(8 width)).  A row read as
    # a little-endian integer has slot j at byte j * size, so whole-row
    # integer sums are slot-wise sums while no slot leaves [0, 2^(8 size)).
    #
    # The slot size is width itself where width is 5 bytes and rows hold at
    # least _EXACT_COLS slots: the whole operand is packed into 8-byte slots
    # by one struct call, and width strided copies keep the low width bytes
    # of each, so the integers that the multiply-accumulate runs on carry no
    # padding; the sums go back the same way in reverse.  Rows of fewer
    # slots round width up to 8 bytes and go through struct a row at a
    # time: per matrix, the strided copies cost more than the padding saves
    # there (1.1-1.3x slower at 8 slots), and per row more still.  Widths of
    # 3, 6 and 7 bytes keep the rounding too; at 32 slots the copies lost
    # there (1.45x slower at 3 bytes, 1.08x at 7).  Slots of 1, 2, 4 or 8
    # bytes go through struct, wider ones through byte slices.  The plans
    # are cached, since the recursion asks for the same few shapes at every
    # node.
    fb = int.from_bytes
    if width == 5 and c >= _EXACT_COLS:
        whole, row = Struct(f"<{k * c}Q"), Struct(f"<{c}Q")
        n = width * c

        def pack(y):
            b8 = whole.pack(*chain.from_iterable(y))
            bw = bytearray(n * k)
            for i in range(width):
                bw[i::width] = b8[i::8]
            return [fb(bw[j : j + n], "little") for j in range(0, n * k, n)]

        def cut(sums):
            bw = b"".join([z.to_bytes(n, "little") for z in sums])
            b8 = bytearray(8 * c * len(sums))
            for i in range(width):
                b8[i::8] = bw[i::width]
            return row.iter_unpack(b8)

        return pack, cut, width

    size = next((s for s in _STRUCT_CODES if s >= width), width)
    code = _STRUCT_CODES.get(size)
    n = size * c
    if code:
        s = Struct(f"<{c}{code}")
        pack_row, unpack = s.pack, s.unpack
    else:
        def pack_row(*row):
            return b"".join([v.to_bytes(size, "little") for v in row])

        def unpack(b):
            return [fb(b[j : j + size], "little") for j in range(0, n, size)]

    def pack(y):
        return [fb(pack_row(*row), "little") for row in y]

    def cut(sums):
        return [unpack(z.to_bytes(n, "little")) for z in sums]

    return pack, cut, size


def _gfp_classical(x, y, k, c, p, tri, acc=None, s=1):
    # Canonical rows of acc + s * x * y (r x k times k x c) for residues in
    # [0, p), with s = 1 or -1 and acc an r x c block or None for zero.
    # Each row of y is packed into one integer of c slots, so row i of the
    # product is one multiply-accumulate of x[i] against the packed rows.
    # A slot sums k products of residues, at most top = k(p-1)^2, and its
    # width holds that, so no slot carries into the next.  tri skips a zero
    # triangle once r, k and c reach _EXACT_COLS (see the module docstring).
    # The sign and acc ride on the packed row sums, so that the one
    # reduction of each cut entry gives acc + s * x * y: for s = -1 each row
    # sum is taken off top, rounded up to a multiple of p, in every slot,
    # and acc's rows are packed and added, p - 1 more a slot.  A zero row of
    # the product hands its acc row on as it is.
    top = k * (p - 1) ** 2
    if s < 0:
        top = -(-top // p) * p
    width = ((top if acc is None else top + p).bit_length() + 7) // 8
    pack, cut, size = _slots(width, k, c)
    if tri and min(len(x), k, c) < _EXACT_COLS:
        tri = 0
    if not tri:
        packed = pack(y)
        sums = [sum(map(_mul, r, packed)) for r in x]
    elif tri == _LOWER:
        packed = pack(y)
        sums = [sum(map(_mul, r[: i + 1], packed)) for i, r in enumerate(x)]
    else:
        packed = pack([row[::-1] for row in y])
        sums = [sum(map(_mul, reversed(r), reversed(packed))) for r in x]
    rows = sums
    if s < 0:
        base = top * int.from_bytes((b"\1" + bytes(size - 1)) * c, "little")
        rows = [base - z for z in sums]
    if acc is not None:
        packed = _slots(width, len(acc), c)[0]((r[::-1] for r in acc) if tri == _UPPER else acc)
        rows = list(map(_add, rows, packed))
    cuts = cut(rows)
    if tri == _UPPER:  # each cut row is read back reversed, one at a time
        cuts = (t[::-1] for t in cuts)
    if acc is None:
        zrow = [0] * c
        return [[v % p for v in t] if z else zrow for z, t in zip(sums, cuts)]
    return [[v % p for v in t] if z else a for z, t, a in zip(sums, cuts, acc)]


_SIGNED_COLS = 16  # the fewest columns whose integer products are packed
_SIGNED_WIDTH = 32  # the widest slot, in bytes, that they are packed into


def _int_classical(x, y, k, c):
    # Rows of x * y (r x k times k x c) over the integers, on the packed
    # slots of _gfp_classical.  Each row of y is packed with my = max|y|
    # added to every entry, and my in every slot is taken off the packed
    # row, so its integer is sum_j y[t][j] 2^(8 size j) exactly.  An entry of
    # the product is at most b = k max|x| my in size, and a slot of one bit
    # more than b holds it plus half a slot: each row sum starts at that
    # bias in every slot, so no slot goes negative or carries, and the bias
    # comes off each cut entry.  Narrow products (c < 16) and slots wider
    # than 32 bytes keep the schoolbook sums, which are faster there.
    if c >= _SIGNED_COLS:
        mx = max(map(abs, chain.from_iterable(x)), default=0) or 1  # y packs even if x is 0
        my = max(map(abs, chain.from_iterable(y)), default=0)
        width = ((k * mx * my).bit_length() + 8) // 8
        if width <= _SIGNED_WIDTH:
            pack, cut, size = _slots(width, k, c)
            ones = int.from_bytes((b"\1" + bytes(size - 1)) * c, "little")
            half = 1 << (8 * size - 1)
            offset = my * ones
            packed = [z - offset for z in pack([[v + my for v in row] for row in y])]
            bias = half * ones
            sums = [sum(map(_mul, r, packed), bias) for r in x]
            zrow = [0] * c
            return [[v - half for v in t] if z != bias else zrow for z, t in zip(sums, cut(sums))]
    return _raw_classical(x, y, c)


def _quarters(rows, h):
    top, bot = rows[:h], rows[h:]
    return [r[:h] for r in top], [r[h:] for r in top], [r[:h] for r in bot], [r[h:] for r in bot]


@lru_cache(maxsize=256)
def strassen_count(n: int, cutoff: int) -> int:
    """Scalar multiplications of one n x n Strassen product at ``cutoff``."""
    if n <= cutoff:
        return n * n * n
    return 7 * strassen_count(n >> 1, cutoff)


# ---------------------------------------------------------------------------
# block kernels
#
# The recursions (the decomposition and the triangular inverses) keep their
# blocks in a field-specific form and go through a kernel for every block
# operation, and the public product is one block product.  Over GF(p) a
# block is a list of rows of residues.  Over the rationals a block is
# fraction-free: integer rows with a scale per row and per column (see
# _RationalBlocks), so products and sums are integer arithmetic and
# canonical fractions are made once, when a block leaves the recursion.  A
# product with an all-zero operand, or with the identity block that the
# recursions hand on, touches no scalar; its caller counts it like any other.
#
# The row helpers below move or zero whole rows and columns and serve both
# forms: over the rationals they act on the integer rows and, with a fill
# of 1, on the list of row scales.


def _keep_rows(rows, mask, fill):
    return [r if (mask >> i) & 1 else fill for i, r in enumerate(rows)]


def _perm_rows(ones, rows, fill, m):
    # E^T * X, m rows high: row j of the result is row i of X for each one (i, j)
    out = [fill] * m
    for i, j in ones:
        out[j] = rows[i]
    return out


def _keep_cols(rows, mask, c):
    if mask == (1 << c) - 1:
        return rows
    if not mask:
        return [[0] * c] * len(rows)
    keep = [(mask >> j) & 1 for j in range(c)]
    return [[v if k else 0 for v, k in zip(r, keep)] for r in rows]


def _perm_cols(rows, ones, c):
    # X * E^T: column i of the result is column j of X for each one (i, j)
    if not ones:
        return [[0] * c] * len(rows)
    # the identity at full width moves nothing (E11's, on generic input)
    if len(ones) == c == len(rows[0] if rows else ones) and all(i == j for i, j in ones):
        return rows
    out = []
    for r in rows:
        nr = [0] * c
        for i, j in ones:
            nr[i] = r[j]
        out.append(nr)
    return out


def _eye(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


class _Blocks:
    """What the block kernels share: the one block product, acc + s * (x * y),
    which computes and counts nothing (its caller adds the count of its own
    cost model).  It needs no arithmetic when an operand is zero, nor the
    product when one is the kernel's cached ``identity(k)``; an identity
    built elsewhere runs the kernel like any other operand.  The GF(p)
    kernel folds acc and s into the reduction of its product; a shortcut
    product, and every rational one, is made first and then summed by
    ``_epilogue``, the one block sum, through the kernel's ``_axpy``."""

    __slots__ = ("field", "_eye")

    def __init__(self, field):
        self.field = field
        self._eye = {}

    def identity(self, n):
        eye = self._eye.get(n)
        if eye is None:
            eye = self._eye[n] = self._identity(n)
        return eye

    def mul(self, x, y, tri=0, acc=None, s=1):
        """acc + s * (x * y) for x (r x k), y (k x c), s = 1 or -1 and acc an
        r x c block or None for zero.  tri may declare x lower (_LOWER) or y
        upper (_UPPER) triangular, which only GF(p) reads."""
        # the recursions hand the cached identity on as it is, so one
        # identity test by object, keyed by k, comes before any scan; the
        # result's shape is read only once the product is zero or runs
        eye = self._eye.get(self.height(y))
        if x is eye:
            return self._epilogue(y, acc, s)
        if y is eye:
            return self._epilogue(x, acc, s)
        if self.is_zero(x) or self.is_zero(y):
            return self.zeros(self.height(x), self.width(y)) if acc is None else acc
        return self._classical(x, y, tri, acc, s)

    def _epilogue(self, m, acc, s):
        # acc + s * m for a product m made without the kernel; acc None is
        # tested first, so an acc-free product with s = 1 passes unscanned
        if acc is not None and self.is_zero(m):
            return acc
        if acc is None or self.is_zero(acc):
            return m if s == 1 else self._axpy(None, m, s)
        return self._axpy(acc, m, s)


class _PrimeBlocks(_Blocks):
    """Blocks over GF(p): lists of rows of residues in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, field):
        super().__init__(field)
        self.p = field.modulus

    def store(self, x):
        return x

    load = load_cols = store

    height = staticmethod(len)
    split = staticmethod(_quarters)
    keep_cols = staticmethod(_keep_cols)
    perm_cols = staticmethod(_perm_cols)
    _identity = staticmethod(_eye)

    def is_zero(self, x):
        return not any(map(any, x))

    def zeros(self, r, c):
        return [[0] * c] * r

    def width(self, x):
        # rows keep their width, no rows none: a product of the recursions
        # with k = 0 has a factor of order 0 on the right, so c = 0 there
        return len(x[0]) if x else 0

    def inverse1(self, x):
        v = x[0][0]
        return self.identity(1) if v == 1 else [[self.field.inv(v)]]

    def join(self, tl, tr, bl, br):
        return [a + b for a, b in zip(tl, tr)] + [a + b for a, b in zip(bl, br)]

    def _axpy(self, acc, m, s):
        p = self.p
        if acc is None:
            return [[-v % p for v in r] for r in m]
        op = _add if s == 1 else _sub
        return [[v % p for v in map(op, ra, rm)] for ra, rm in zip(acc, m)]

    def keep_rows(self, x, mask, c):
        return _keep_rows(x, mask, [0] * c)

    def perm_rows(self, ones, x, m, c):
        return _perm_rows(ones, x, [0] * c, m)

    def _classical(self, x, y, tri, acc, s):
        return _gfp_classical(x, y, len(y), len(y[0]), self.p, tri, acc, s)


def _fraction_free(rows):
    # canonical rational rows as (integer rows, row denominators), each row
    # over the lcm of its entries' denominators
    nums, dens = [], []
    for r in rows:
        ds = [v.denominator for v in r]
        d = lcm(*ds)
        if d == 1:
            nums.append([v.numerator for v in r])
        else:
            nums.append([v.numerator * (d // dv) for v, dv in zip(r, ds)])
        dens.append(d)
    return nums, dens


def _scaled(rows, r, c, R, C):
    # the entries rows[i][j] / (r[i] c[j]) as integers over R[i] C[j], where
    # r[i] divides R[i] and c[j] divides C[j]
    fc = [b // a for a, b in zip(c, C)]
    plain = fc.count(1) == len(fc)
    out = []
    for row, a, b in zip(rows, r, R):
        f = b // a
        if plain:
            out.append(row if f == 1 else [v * f for v in row])
        else:
            out.append([v * (f * g) for v, g in zip(row, fc)])
    return out


def _row_reduced(rows, r):
    nrows, nr = [], []
    for row, d in zip(rows, r):
        if d != 1:
            g = gcd(d, *row)
            if g != 1:
                row = [v // g for v in row]
                d //= g
        nrows.append(row)
        nr.append(d)
    return nrows, nr


def _col_reduced(rows, c):
    if c.count(1) == len(c):
        return rows, c
    gs = [gcd(d, *col) if d != 1 else 1 for d, col in zip(c, zip(*rows))]
    if gs.count(1) == len(gs):
        return rows, c
    return [[v // g for v, g in zip(row, gs)] for row in rows], [d // g for d, g in zip(c, gs)]


def _bits(scales):
    return sum(map(int.bit_length, scales))


def _reduced(rows, r, c):
    # Divide each row, then each column, by the content it shares with its
    # scale, so a block's numbers stay the size of its entries.  When the
    # rows are left sharing one large denominator, as the rows of a U-type
    # block do (its entries share denominators down the columns), try the
    # same entries with that denominator moved to the columns, and keep
    # whichever form has the smaller scales.  Blocks of one or two rows
    # skip the trial, which costs more than it saves there.
    if r.count(1) != len(r):
        rows, r = _row_reduced(rows, r)
        d = lcm(*r)
        if d != 1 and len(r) > 2 and d.bit_length() < 2 * max(r).bit_length():
            n = len(r)
            b_rows, b_c = _col_reduced(_scaled(rows, r, c, [d] * n, c), [d * e for e in c])
            rows, c = _col_reduced(rows, c)
            if _bits(b_c) < _bits(r) + _bits(c):
                return b_rows, [1] * n, b_c
            return rows, r, c
    rows, c = _col_reduced(rows, c)
    return rows, r, c


class _RationalBlocks(_Blocks):
    """Fraction-free rational blocks: triples (rows, r, c).

    Entry (i, j) is rows[i][j] / (r[i] * c[j]) with integer numerators and
    positive integer row and column scales.  Rationals that a factor of the
    decomposition produces tend to share denominators along rows (L) or
    along columns (U), and a product of the two keeps the scales of both,
    so the numerators stay the size of the entries.  Sums and products
    divide each result row and column by the content it shares with its
    scale.
    """

    __slots__ = ()

    def load(self, rows):
        nums, r = _fraction_free(rows)
        return nums, r, [1] * (len(rows[0]) if rows else 0)

    def load_cols(self, rows):
        # each column over the lcm of its denominators: the form of a right
        # operand, and of any operand whose columns share denominators (U)
        cols, c = _fraction_free(zip(*rows))
        return [list(r) for r in zip(*cols)], [1] * len(rows), c

    def store(self, x):
        q = _rational
        zero = self.field.zero_raw
        rows, r, c = x
        if c.count(1) != len(c):
            return [[q(v, a * b) if v else zero for v, b in zip(row, c)]
                    for row, a in zip(rows, r)]
        return [
            [q(v) if v else zero for v in row] if a == 1 else [q(v, a) if v else zero for v in row]
            for row, a in zip(rows, r)
        ]

    def height(self, x):
        return len(x[1])

    def width(self, x):
        return len(x[2])

    def is_zero(self, x):
        return not any(map(any, x[0]))

    def zeros(self, r, c):
        return [[0] * c] * r, [1] * r, [1] * c

    def _identity(self, n):
        return _eye(n), [1] * n, [1] * n

    def inverse1(self, x):
        v = x[0][0][0]
        d = x[1][0] * x[2][0]
        if v == d:
            return self.identity(1)
        g = gcd(v, d)
        if v < 0:
            g = -g
        return [[d // g]], [v // g], [1]

    def split(self, x, h):
        rows, r, c = x
        rt, rb, cl, cr = r[:h], r[h:], c[:h], c[h:]
        tl, tr, bl, br = _quarters(rows, h)
        return (tl, rt, cl), (tr, rt, cr), (bl, rb, cl), (br, rb, cr)

    def join(self, tl, tr, bl, br):
        rt = [lcm(a, b) for a, b in zip(tl[1], tr[1])]
        rb = [lcm(a, b) for a, b in zip(bl[1], br[1])]
        cl = [lcm(a, b) for a, b in zip(tl[2], bl[2])]
        cr = [lcm(a, b) for a, b in zip(tr[2], br[2])]
        rows = [a + b for a, b in zip(_scaled(*tl, rt, cl), _scaled(*tr, rt, cr))]
        rows += [a + b for a, b in zip(_scaled(*bl, rb, cl), _scaled(*br, rb, cr))]
        return rows, rt + rb, cl + cr

    def _axpy(self, acc, m, s):
        # acc + s * m over the lcms of both blocks' scales, or -m for acc None
        if acc is None:
            return [[-v for v in row] for row in m[0]], m[1], m[2]
        R = [lcm(a, b) for a, b in zip(acc[1], m[1])]
        C = [lcm(a, b) for a, b in zip(acc[2], m[2])]
        op = _add if s == 1 else _sub
        a, b = _scaled(*acc, R, C), _scaled(*m, R, C)
        return _reduced([list(map(op, u, v)) for u, v in zip(a, b)], R, C)

    def keep_rows(self, x, mask, c):
        return _keep_rows(x[0], mask, [0] * c), _keep_rows(x[1], mask, 1), x[2]

    def perm_rows(self, ones, x, m, c):
        return _perm_rows(ones, x[0], [0] * c, m), _perm_rows(ones, x[1], 1, m), x[2]

    def keep_cols(self, x, mask, c):
        return _keep_cols(x[0], mask, c), x[1], x[2]

    def perm_cols(self, x, ones, c):
        cc = [1] * c
        for i, j in ones:
            cc[i] = x[2][j]
        return _perm_cols(x[0], ones, c), x[1], cc

    def _classical(self, x, y, tri, acc, s):
        # x * y = diag(1/rx) nx diag(1/m) ny diag(1/cy) with m = cx * ry;
        # the rows of ny are brought over the common multiple of m
        nx, rx, cx = x
        ny, ry, cy = y
        m = [a * b for a, b in zip(cx, ry)]
        big = lcm(*m)
        if big != 1:
            ny = [row if d == big else [v * (big // d) for v in row] for row, d in zip(ny, m)]
        xy = _reduced(_int_classical(nx, ny, len(ry), len(cy)), [a * big for a in rx], cy)
        return self._epilogue(xy, acc, s)


def blocks(field: FieldSpec):
    """The block kernel of a field."""
    return _RationalBlocks(field) if field.kind == "rational" else _PrimeBlocks(field)


# ---------------------------------------------------------------------------
# public operations


def mat_mul_classical(A: DenseMatrix, B: DenseMatrix, counter: MulCounter | None = None) -> DenseMatrix:
    """Schoolbook product; counts A.rows * A.cols * B.cols multiplications."""
    if A.field != B.field:
        raise FieldMismatchError(f"mixed fields {A.field!r} and {B.field!r}")
    if A.cols != B.rows:
        raise ShapeError(f"cannot multiply {A.shape} by {B.shape}")
    if counter is None:
        counter = MulCounter()
    k, c = A.cols, B.cols
    counter.scalar_mults += A.rows * k * c
    if not k:  # a GF(p) block of no rows keeps no width (see _PrimeBlocks.width)
        return DenseMatrix.zeros(A.field, A.rows, c)
    K = blocks(A.field)
    data = K.store(K.mul(K.load(A._d), K.load_cols(B._d)))
    return DenseMatrix._wrap(A.field, data, A.rows, c)


def _inv_lower(K, x, n, unit):
    # inverse of a lower triangular block; with unit, of a unit one, whose
    # diagonal needs no inversions.  It counts nothing (see _tri_count)
    if n == 1:
        return K.identity(1) if unit else K.inverse1(x)
    h = n // 2
    a, _, c, b = K.split(x, h)
    ia = _inv_lower(K, a, h, unit)
    ib = _inv_lower(K, b, n - h, unit)
    m = K.mul(ib, K.mul(c, ia), _LOWER, None, -1)
    return K.join(ia, K.zeros(h, n - h), m, ib)


@lru_cache(maxsize=256)
def _tri_count(n):
    # multiplications of an n x n triangular inverse: per node, c * ia and ib times that
    h = n // 2
    return 0 if n < 2 else _tri_count(h) + _tri_count(n - h) + (n - h) * h * n


def _invert_lower(L, counter, unit):
    # the inverse of a lower triangular L, counted with n inversions unless unit
    n, K = L.rows, blocks(L.field)
    if counter is not None:
        counter.scalar_mults += _tri_count(n)
        counter.scalar_invs += 0 if unit else n
    data = K.store(_inv_lower(K, K.load(L._d), n, unit)) if n else []
    return DenseMatrix._wrap(L.field, data, n, n)


def invert_lower_triangular(L: DenseMatrix, counter: MulCounter | None = None) -> DenseMatrix:
    """Exact inverse of a lower triangular matrix with nonzero diagonal.

    Recursive block scheme with multiplication-time complexity; diagonal
    inversions are counted as scalar inversions.
    """
    n = L.rows
    if L.cols != n:
        raise ShapeError(f"expected a square matrix, got {L.shape}")
    if not is_lower_triangular(L):
        raise ShapeError("matrix is not lower triangular")
    d = L._d
    for i in range(n):
        if not d[i][i]:
            raise SingularError(f"zero diagonal entry at position {i}")
    return _invert_lower(L, counter, False)


def invert_upper_unitriangular(U: DenseMatrix, counter: MulCounter | None = None) -> DenseMatrix:
    """Exact inverse of an upper triangular matrix with unit diagonal.

    Computed as the transpose of the inverse of the unit lower triangular
    U^T.  The lower recursion multiplies blocks of the same shapes as an
    upper one would, so the count is the same, and no diagonal entry is
    inverted.  Over the rationals U shares denominators down its columns,
    so U^T shares them along its rows, where loading a fraction-free block
    puts them.
    """
    n = U.rows
    if U.cols != n:
        raise ShapeError(f"expected a square matrix, got {U.shape}")
    if not is_upper_triangular(U):
        raise ShapeError("matrix is not upper triangular")
    one = U.field.one_raw
    for i in range(n):
        if U._d[i][i] != one:
            raise ValueError(f"diagonal entry at position {i} is not 1")
    return _invert_lower(U.transpose(), counter, True).transpose()
